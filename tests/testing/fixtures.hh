/**
 * @file
 * Hand-built DDG fixtures and scheduling helpers shared by tests.
 */

#ifndef GPSCHED_TESTS_TESTING_FIXTURES_HH
#define GPSCHED_TESTS_TESTING_FIXTURES_HH

#include <optional>
#include <vector>

#include "engine/engine.hh"
#include "graph/ddg.hh"
#include "machine/machine.hh"
#include "partition/partition.hh"
#include "sched/schedule.hh"
#include "sched/uracam.hh"

namespace gpsched::testing
{

/**
 * Unwraps engine results where a test expects every compile to have
 * succeeded. Asserts (via GoogleTest ADD_FAILURE in the .cc) on any
 * per-loop failure and returns the successful payloads in order.
 */
std::vector<CompiledLoop>
unwrapAll(std::vector<CompileResult> results);

/** Unwraps one result, asserting it succeeded. */
CompiledLoop unwrapOne(CompileResult result);

/** Compiles @p job alone: a one-job batch, which a one-job engine
 *  runs on the calling thread. */
CompileResult compileOne(Engine &engine, const EngineJob &job);

/** Default engine options with one job (runs on the calling thread). */
EngineOptions oneJobOptions();

/** Linear chain of @p n IAlu ops (acyclic). */
Ddg chainLoop(int n, const LatencyTable &lat);

/** @p n independent IAlu ops (maximum ILP, no edges). */
Ddg parallelLoop(int n, const LatencyTable &lat);

/** First-order recurrence x = a*x + b (RecMII = FMul+FAdd). */
Ddg recurrenceLoop(const LatencyTable &lat);

/** Two loads -> FMul/FAdd diamond -> store. */
Ddg diamondLoop(const LatencyTable &lat);

/** @p loads independent loads feeding one FAdd tree and a store. */
Ddg memHeavyLoop(int loads, const LatencyTable &lat);

/**
 * Probes @p v at (@p cluster, @p cycle) and applies the plan; the
 * placement must be feasible.
 */
void placeAt(PartialSchedule &ps, NodeId v, int cluster, int cycle);

/** placeAt() at the first feasible cycle from @p from to @p to. */
void placeInWindow(PartialSchedule &ps, NodeId v, int cluster, int from,
                   int to);

/** True when @p v can issue at (@p cluster, @p cycle). */
bool canPlace(const PartialSchedule &ps, NodeId v, int cluster,
              int cycle);

/**
 * Schedules @p ddg completely with the given policy, raising the II
 * from MII until one attempt succeeds (up to @p max_ii_slack above
 * the flat length). Returns std::nullopt when every II fails.
 */
std::optional<PartialSchedule>
scheduleLoop(const Ddg &ddg, const MachineConfig &machine,
             ClusterPolicy policy = ClusterPolicy::FreeChoice,
             const Partition *assignment = nullptr,
             int max_ii_slack = 4);

} // namespace gpsched::testing

#endif // GPSCHED_TESTS_TESTING_FIXTURES_HH
