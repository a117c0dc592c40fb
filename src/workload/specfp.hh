/**
 * @file
 * Synthetic SPECfp95 workload (docs/ARCHITECTURE.md, "Paper
 * substitutions", 1).
 *
 * The paper evaluates on the SPECfp95 innermost loops extracted by
 * the ICTINEO compiler with profiled trip counts. Neither the
 * compiler nor the (proprietary) suite is available, so each
 * benchmark is modelled as a deterministic set of loop DDGs whose
 * shapes follow what is published about that benchmark's
 * modulo-scheduling behaviour: stencil sweeps in tomcatv/swim/mgrid,
 * reductions and matrix kernels in su2cor, first-order recurrences
 * in hydro2d/apsi, very large register-hungry blocks in fpppp,
 * gather/scatter integer address code in wave5, and so on. Trip
 * counts stand in for profiling. Loops are generated from per-
 * benchmark seeds, so the suite is bit-stable across runs and
 * machines.
 */

#ifndef GPSCHED_WORKLOAD_SPECFP_HH
#define GPSCHED_WORKLOAD_SPECFP_HH

#include <string>
#include <vector>

#include "core/pipeline.hh"
#include "machine/op.hh"

namespace gpsched
{

/** The ten SPECfp95 benchmark names, in the paper's order. */
const std::vector<std::string> &specFp95Names();

/** Builds one named benchmark program; fatal on unknown name. */
Program specFp95Program(const std::string &name,
                        const LatencyTable &lat);

/** Builds the whole suite. */
std::vector<Program> specFp95Suite(const LatencyTable &lat);

} // namespace gpsched

#endif // GPSCHED_WORKLOAD_SPECFP_HH
