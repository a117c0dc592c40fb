/**
 * @file
 * Parameterized innermost-loop DDG generators.
 *
 * These are the building blocks of the synthetic SPECfp95 suite
 * (docs/ARCHITECTURE.md, "Paper substitutions", 1): each generator
 * produces a loop shape that appears in modulo-scheduling studies
 * of that suite — streaming kernels, stencils, reductions,
 * first-order recurrences, very wide independent blocks, integer
 * address arithmetic — so the schedulers face the same structural
 * challenges (recurrence-limited IIs, bus saturation, register
 * pressure, memory-port saturation) as in the paper's evaluation.
 * A deterministic random generator produces irregular bodies for
 * property tests.
 */

#ifndef GPSCHED_WORKLOAD_LOOP_SHAPES_HH
#define GPSCHED_WORKLOAD_LOOP_SHAPES_HH

#include <cstdint>
#include <string>

#include "graph/ddg.hh"
#include "machine/op.hh"
#include "support/random.hh"

namespace gpsched
{

/**
 * Streaming map kernel: per stream, Load -> FP chain -> Store, plus
 * an induction-variable recurrence feeding the addresses.
 *
 * @param streams independent load/store streams
 * @param chain_len FP operations between load and store
 */
Ddg streamKernel(const std::string &name, const LatencyTable &lat,
                 int streams, int chain_len, std::int64_t trip);

/**
 * Stencil kernel: @p taps loads, coefficient multiplies, a balanced
 * FAdd reduction tree, one store. Memory-port heavy.
 */
Ddg stencilKernel(const std::string &name, const LatencyTable &lat,
                  int taps, std::int64_t trip);

/**
 * Sum reduction: @p width parallel Load -> FMul chains feeding one
 * loop-carried FAdd accumulator (distance-1 recurrence).
 */
Ddg reductionKernel(const std::string &name, const LatencyTable &lat,
                    int width, std::int64_t trip);

/**
 * First-order recurrence x = a*x + b (FMul -> FAdd cycle at
 * distance 1, RecMII = latFMul + latFAdd) with @p extra_ops of
 * independent parallel work.
 */
Ddg recurrenceKernel(const std::string &name, const LatencyTable &lat,
                     int extra_ops, std::int64_t trip);

/**
 * Very wide independent block (fpppp-like): @p chains independent
 * FP chains of @p chain_len ops fed by a few loads, converging into
 * stores late. High ILP and high register pressure.
 */
Ddg wideBlockKernel(const std::string &name, const LatencyTable &lat,
                    int chains, int chain_len, std::int64_t trip);

/** Unrolled dot product: @p unroll Load-pairs -> FMul -> carried
 *  FAdd accumulators. */
Ddg dotProductKernel(const std::string &name, const LatencyTable &lat,
                     int unroll, std::int64_t trip);

/** DAXPY: y[i] = a*x[i] + y[i], unrolled @p unroll times. */
Ddg daxpyKernel(const std::string &name, const LatencyTable &lat,
                int unroll, std::int64_t trip);

/**
 * Integer-dominated kernel: IAlu address chains (with an IMul) feed
 * @p width gather loads and a store (wave5-like particle code).
 */
Ddg intAddressKernel(const std::string &name, const LatencyTable &lat,
                     int width, std::int64_t trip);

/** Knobs for the random-loop generator. */
struct RandomLoopParams
{
    int numOps = 24;
    double memFraction = 0.3;  ///< loads+stores share
    double fpFraction = 0.5;   ///< FP share of the non-mem ops
    double carriedProb = 0.15; ///< per-node loop-carried edge prob.
    double fanoutProb = 0.35;  ///< extra consumer edge probability
    int maxDistance = 2;       ///< max carried-dependence distance
    std::int64_t tripCount = 100;
};

/**
 * Connected random loop DDG with the mix given by @p params; always
 * acyclic at distance 0 (cycles only through carried edges).
 * Deterministic for a given @p rng state.
 */
Ddg randomLoop(const std::string &name, const LatencyTable &lat,
               Rng &rng, const RandomLoopParams &params = {});

} // namespace gpsched

#endif // GPSCHED_WORKLOAD_LOOP_SHAPES_HH
