/**
 * @file
 * Tour of the synthetic SPECfp95 workload: compile one benchmark
 * (default hydro2d, the paper's recurrence-heavy troublemaker) with
 * all three schemes on a chosen machine and print the per-loop
 * breakdown — which loops are recurrence-limited, which fall back to
 * list scheduling, where the spills go.
 *
 * Run: ./build/examples/spec_tour [benchmark] [clusters] [regs]
 */

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>

#include "core/pipeline.hh"
#include "machine/configs.hh"
#include "support/table.hh"
#include "workload/specfp.hh"

using namespace gpsched;

int
main(int argc, char **argv)
{
    std::string name = argc > 1 ? argv[1] : "hydro2d";
    int clusters = argc > 2 ? std::atoi(argv[2]) : 4;
    int regs = argc > 3 ? std::atoi(argv[3]) : 32;

    LatencyTable lat;
    Program prog = specFp95Program(name, lat);
    MachineConfig machine = clusters == 1 ? unifiedConfig(regs)
                            : clusters == 2
                                ? twoClusterConfig(regs, 1)
                                : fourClusterConfig(regs, 1);
    std::printf("benchmark %s on %s\n\n", prog.name.c_str(),
                machine.summary().c_str());

    for (SchedulerKind kind :
         {SchedulerKind::Uracam, SchedulerKind::FixedPartition,
          SchedulerKind::Gp}) {
        ProgramResult r = compileProgram(prog, machine, kind);
        TextTable table({"loop", "ops", "trip", "MII", "II", "SL",
                         "bus", "mem", "spill", "IPC"});
        for (std::size_t i = 0; i < r.loops.size(); ++i) {
            const CompiledLoop &l = r.loops[i];
            table.addRow(
                {l.loopName,
                 std::to_string(prog.loops[i].numNodes()),
                 std::to_string(prog.loops[i].tripCount()),
                 std::to_string(l.mii),
                 l.moduloScheduled ? std::to_string(l.ii) : "LS",
                 std::to_string(l.scheduleLength),
                 std::to_string(l.stats.busTransfers),
                 std::to_string(l.stats.memTransfers),
                 std::to_string(l.stats.spills),
                 TextTable::num(l.ipc)});
        }
        table.print(std::cout,
                    toString(kind) + "  (program IPC " +
                        TextTable::num(r.ipc) + ")");
        std::cout << "\n";
    }
    return 0;
}
