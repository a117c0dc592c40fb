#include "workload/fuzz.hh"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <mutex>
#include <sstream>
#include <utility>

#include "engine/thread_pool.hh"
#include "graph/ddg_builder.hh"
#include "graph/textio.hh"
#include "machine/configs.hh"
#include "machine/registry.hh"
#include "serialize/record.hh"
#include "sim/replay.hh"
#include "support/compile_error.hh"
#include "support/output.hh"
#include "support/random.hh"
#include "workload/loop_shapes.hh"

namespace gpsched::fuzz
{

const char *
toString(ShapeClass shape)
{
    switch (shape) {
      case ShapeClass::Random:
        return "random";
      case ShapeClass::DeepRecurrence:
        return "deep-recurrence";
      case ShapeClass::NearZeroSlack:
        return "near-zero-slack";
      case ShapeClass::StoreHeavyTail:
        return "store-heavy-tail";
      case ShapeClass::WideFanout:
        return "wide-fanout";
      case ShapeClass::LatencyStress:
        return "latency-stress";
      default:
        return "?";
    }
}

const char *
toString(FuzzVerdict verdict)
{
    switch (verdict) {
      case FuzzVerdict::Pass:
        return "pass";
      case FuzzVerdict::CompileRejected:
        return "compile-rejected";
      case FuzzVerdict::OracleDisagree:
        return "oracle-disagree";
      case FuzzVerdict::ScheduleRejected:
        return "schedule-rejected";
      case FuzzVerdict::MetricMismatch:
        return "metric-mismatch";
      default:
        return "?";
    }
}

const char *
toString(ScheduleCorruption corruption)
{
    switch (corruption) {
      case ScheduleCorruption::None:
        return "none";
      case ScheduleCorruption::ClusterOutOfRange:
        return "cluster";
      case ScheduleCorruption::CyclesOffByOne:
        return "cycles";
    }
    GPSCHED_PANIC("bad ScheduleCorruption");
}

namespace
{

// ---------------------------------------------------------------
// Shape generators. Every generator must emit a *valid* loop: flow
// edges leave value-defining nodes with at least the producer's
// table latency, distance-0 edges run forward, trip count >= 1 —
// the compiler may struggle (that is the point) but must never be
// entitled to reject.
// ---------------------------------------------------------------

/** A trip count biased toward the awkward ends: 1- and 2-iteration
 *  loops stress prolog/epilog accounting, huge trips stress the
 *  cycle extrapolation. */
std::int64_t
drawTrip(Rng &rng)
{
    double r = rng.nextDouble();
    if (r < 0.15)
        return rng.nextRange(1, 3);
    if (r < 0.85)
        return rng.nextRange(4, 2000);
    return rng.nextRange(100000, 1000000);
}

Ddg
genRandom(const std::string &name, const LatencyTable &lat, Rng &rng)
{
    RandomLoopParams p;
    p.numOps = static_cast<int>(rng.nextRange(4, 64));
    p.memFraction = rng.nextDouble() * 0.6;
    p.fpFraction = rng.nextDouble();
    p.carriedProb = rng.nextDouble() * 0.3;
    p.fanoutProb = rng.nextDouble() * 0.6;
    p.maxDistance = static_cast<int>(rng.nextRange(1, 4));
    p.tripCount = drawTrip(rng);
    return randomLoop(name, lat, rng, p);
}

Ddg
genDeepRecurrence(const std::string &name, const LatencyTable &lat,
                  Rng &rng)
{
    RandomLoopParams p;
    p.numOps = static_cast<int>(rng.nextRange(12, 48));
    p.memFraction = 0.15 + rng.nextDouble() * 0.3;
    p.fpFraction = 0.3 + rng.nextDouble() * 0.5;
    p.carriedProb = 0.3 + rng.nextDouble() * 0.3;
    p.fanoutProb = rng.nextDouble() * 0.5;
    p.maxDistance = static_cast<int>(rng.nextRange(4, 8));
    p.tripCount = drawTrip(rng);
    return randomLoop(name, lat, rng, p);
}

/**
 * A distance-1 FP recurrence cycle plus just enough independent
 * parallel work that ResMII lands next to RecMII: the II search has
 * almost no slack, and both the recurrence and the resource model
 * bind at once.
 */
Ddg
genNearZeroSlack(const std::string &name, const LatencyTable &lat,
                 Rng &rng)
{
    DdgBuilder b(name, lat);
    int chainLen = static_cast<int>(rng.nextRange(2, 6));
    std::vector<NodeId> chain;
    int recLatency = 0;
    for (int i = 0; i < chainLen; ++i) {
        Opcode op = (i % 2 == 0) ? Opcode::FMul : Opcode::FAdd;
        chain.push_back(b.op(op, "rec" + std::to_string(i)));
        recLatency += lat.latency(op);
        if (i > 0)
            b.flow(chain[i - 1], chain[i]);
    }
    b.carried(chain.back(), chain.front(), 1);

    // Filler streams sized so the widest corpus machines still see a
    // resource bound in the same neighbourhood as the recurrence.
    int streams = static_cast<int>(
        rng.nextRange(std::max(1, recLatency / 2), recLatency + 2));
    for (int s = 0; s < streams; ++s) {
        NodeId ld = b.op(Opcode::Load, "ld" + std::to_string(s));
        NodeId fm = b.op(Opcode::FMul, "fm" + std::to_string(s));
        b.flow(ld, fm);
        // Half the streams touch the recurrence so deviation from
        // the partition has consequences.
        if (rng.nextBool(0.5))
            b.flow(fm, chain[rng.nextBelow(chain.size())]);
        NodeId st = b.op(Opcode::Store, "st" + std::to_string(s));
        b.flow(fm, st);
    }
    return b.tripCount(drawTrip(rng)).build();
}

/**
 * A handful of producers feeding a long store tail, optionally
 * serialized by memory-ordering edges: memory ports saturate, IAlu
 * slots idle, and the order chain can push II past the fallback
 * threshold (the 0-FU list-schedule regression family).
 */
Ddg
genStoreHeavyTail(const std::string &name, const LatencyTable &lat,
                  Rng &rng)
{
    DdgBuilder b(name, lat);
    int defs = static_cast<int>(rng.nextRange(2, 5));
    std::vector<NodeId> producers;
    for (int d = 0; d < defs; ++d) {
        Opcode op = rng.nextBool(0.5) ? Opcode::Load : Opcode::IAlu;
        producers.push_back(b.op(op, "def" + std::to_string(d)));
        if (d > 0 && rng.nextBool(0.5))
            b.flow(producers[d - 1], producers[d]);
    }
    int tails = static_cast<int>(rng.nextRange(8, 24));
    bool serialize = rng.nextBool(0.5);
    NodeId prev = invalidNode;
    for (int t = 0; t < tails; ++t) {
        NodeId st = b.op(Opcode::Store, "st" + std::to_string(t));
        b.flow(producers[rng.nextBelow(producers.size())], st);
        if (serialize && prev != invalidNode)
            b.order(prev, st, 1, 0);
        else if (prev != invalidNode && rng.nextBool(0.3))
            b.order(st, prev, 1, 1); // carried anti-dependence
        prev = st;
    }
    return b.tripCount(drawTrip(rng)).build();
}

/** Few producers, dozens of consumers each: the partitioner must
 *  split a fan-out whose every cut edge costs a transfer, and the
 *  register file holds the hot value live across the body. */
Ddg
genWideFanout(const std::string &name, const LatencyTable &lat,
              Rng &rng)
{
    DdgBuilder b(name, lat);
    int producers = static_cast<int>(rng.nextRange(1, 3));
    std::vector<NodeId> roots;
    for (int p = 0; p < producers; ++p)
        roots.push_back(b.op(Opcode::Load, "src" + std::to_string(p)));
    int consumers = static_cast<int>(rng.nextRange(16, 40));
    std::vector<NodeId> sinks;
    for (int c = 0; c < consumers; ++c) {
        Opcode op = rng.nextBool(0.6) ? Opcode::FAdd : Opcode::IAlu;
        NodeId v = b.op(op, "c" + std::to_string(c));
        b.flow(roots[rng.nextBelow(roots.size())], v);
        if (producers > 1 && rng.nextBool(0.4))
            b.flow(roots[rng.nextBelow(roots.size())], v);
        sinks.push_back(v);
    }
    int stores = static_cast<int>(rng.nextRange(1, 4));
    for (int s = 0; s < stores; ++s) {
        NodeId st = b.op(Opcode::Store, "out" + std::to_string(s));
        b.flow(sinks[rng.nextBelow(sinks.size())], st);
    }
    return b.tripCount(drawTrip(rng)).build();
}

/**
 * Random connectivity with *inflated* edge latencies (table latency
 * plus a drawn pad — legal; only under-table latencies are
 * rejected) and awkward trip counts: stresses slack computation,
 * lifetime lengths and the register files.
 */
Ddg
genLatencyStress(const std::string &name, const LatencyTable &lat,
                 Rng &rng)
{
    Ddg g(name);
    int numOps = static_cast<int>(rng.nextRange(6, 32));
    std::vector<NodeId> defs;
    defs.push_back(g.addNode(Opcode::Load, "seed"));
    auto pad = [&]() { return static_cast<int>(rng.nextBelow(12)); };
    for (int i = 1; i < numOps; ++i) {
        double r = rng.nextDouble();
        Opcode op = r < 0.3   ? Opcode::Load
                    : r < 0.4 ? Opcode::Store
                    : r < 0.7 ? Opcode::FMul
                    : r < 0.9 ? Opcode::IAlu
                              : Opcode::FDiv;
        NodeId v = g.addNode(op, "n" + std::to_string(i));
        NodeId p = defs[rng.nextBelow(defs.size())];
        g.addEdge(p, v, lat.latency(g.node(p).opcode) + pad(), 0,
                  DepKind::Flow);
        if (definesValue(op)) {
            if (rng.nextBool(0.2)) {
                // Carried edge with a large latency over a small
                // distance: a steep recurrence bound.
                NodeId dst = static_cast<NodeId>(rng.nextBelow(
                    static_cast<std::uint64_t>(v) + 1));
                g.addEdge(v, dst,
                          lat.latency(op) + pad(),
                          static_cast<int>(rng.nextRange(1, 3)),
                          DepKind::Flow);
            }
            defs.push_back(v);
        }
    }
    g.setTripCount(drawTrip(rng));
    return g;
}

Ddg
generate(const std::string &name, const LatencyTable &lat,
         std::uint64_t seed, ShapeClass &shape)
{
    Rng rng(seed);
    shape = static_cast<ShapeClass>(
        rng.nextBelow(static_cast<std::uint64_t>(ShapeClass::NumShapes)));
    switch (shape) {
      case ShapeClass::Random:
        return genRandom(name, lat, rng);
      case ShapeClass::DeepRecurrence:
        return genDeepRecurrence(name, lat, rng);
      case ShapeClass::NearZeroSlack:
        return genNearZeroSlack(name, lat, rng);
      case ShapeClass::StoreHeavyTail:
        return genStoreHeavyTail(name, lat, rng);
      case ShapeClass::WideFanout:
        return genWideFanout(name, lat, rng);
      case ShapeClass::LatencyStress:
        return genLatencyStress(name, lat, rng);
      default:
        GPSCHED_PANIC("bad ShapeClass");
    }
}

} // namespace

std::vector<std::uint64_t>
corpusSeeds(std::uint64_t corpusSeed, int count)
{
    Rng master(corpusSeed);
    std::vector<std::uint64_t> seeds;
    seeds.reserve(static_cast<std::size_t>(std::max(count, 0)));
    for (int i = 0; i < count; ++i)
        seeds.push_back(master.next());
    return seeds;
}

FuzzCase
corpusCase(std::uint64_t corpusSeed, int index, const LatencyTable &lat)
{
    GPSCHED_ASSERT(index >= 0, "bad corpus index ", index);
    FuzzCase c;
    c.index = index;
    c.seed = corpusSeeds(corpusSeed, index + 1).back();
    c.ddg = generate("fuzz_" + std::to_string(index), lat, c.seed,
                     c.shape);
    return c;
}

void
writeCorpus(std::ostream &os, std::uint64_t corpusSeed, int count,
            const LatencyTable &lat)
{
    os << "# gpsched fuzz corpus: seed " << corpusSeed << ", " << count
       << " loops\n";
    for (int i = 0; i < count; ++i) {
        FuzzCase c = corpusCase(corpusSeed, i, lat);
        os << "# case " << i << " seed " << c.seed << " shape "
           << toString(c.shape) << "\n";
        writeDdgText(os, c.ddg);
    }
}

std::vector<FuzzMachine>
fuzzMachines(const std::string &machinesDir)
{
    const MachineRegistry &registry = MachineRegistry::builtin();
    std::vector<FuzzMachine> machines;
    for (const MachineConfig &preset :
         {twoClusterConfig(32, 1), fourClusterConfig(32, 1),
          fourClusterConfig(64, 2)})
        machines.push_back({preset.name(), preset});
    if (machinesDir.empty())
        return machines;
    for (const std::string &file : machineFilesIn(machinesDir))
        machines.push_back({file, registry.resolve(file)});
    return machines;
}

std::vector<MachineConfig>
fuzzConfigs(const std::vector<FuzzMachine> &machines)
{
    std::vector<MachineConfig> configs;
    configs.reserve(machines.size());
    for (const FuzzMachine &m : machines)
        configs.push_back(m.config);
    return configs;
}

std::string
FuzzFailure::toString() const
{
    std::ostringstream oss;
    oss << loopName << " @ " << machine << "/"
        << gpsched::toString(scheme) << ": "
        << fuzz::toString(kind);
    if (!detail.empty())
        oss << ": " << detail;
    return oss.str();
}

void
corruptLoop(CompiledLoop &loop, ScheduleCorruption corruption)
{
    switch (corruption) {
      case ScheduleCorruption::None:
        return;
      case ScheduleCorruption::ClusterOutOfRange:
        // The bad cluster index is one past any real machine's
        // clusters only if we know the machine; INT_MAX-ish is
        // out of range everywhere and keeps this machine-free.
        if (!loop.placements.empty())
            loop.placements.front().cluster = 1 << 20;
        return;
      case ScheduleCorruption::CyclesOffByOne:
        loop.cycles += 1;
        return;
    }
}

namespace
{

/** The schemes every pair sweeps, in digest order. */
constexpr SchedulerKind kSchemes[] = {SchedulerKind::Uracam,
                                      SchedulerKind::FixedPartition,
                                      SchedulerKind::Gp};

FuzzVerdict
fuzzVerdict(sim::VerdictKind kind)
{
    switch (kind) {
      case sim::VerdictKind::Pass:
        return FuzzVerdict::Pass;
      case sim::VerdictKind::OracleDisagree:
        return FuzzVerdict::OracleDisagree;
      case sim::VerdictKind::ScheduleRejected:
        return FuzzVerdict::ScheduleRejected;
      case sim::VerdictKind::MetricMismatch:
        return FuzzVerdict::MetricMismatch;
    }
    GPSCHED_PANIC("bad sim::VerdictKind");
}

} // namespace

FuzzCaseResult
runFuzzCase(const Ddg &ddg, const std::vector<MachineConfig> &machines,
            ScheduleCorruption corruption)
{
    FuzzCaseResult result;
    for (const MachineConfig &machine : machines) {
        for (SchedulerKind scheme : kSchemes) {
            auto fail = [&](FuzzVerdict kind, std::string detail) {
                result.failures.push_back({ddg.name(), machine.name(),
                                           scheme, kind,
                                           std::move(detail)});
            };
            CompiledLoop loop;
            try {
                loop = LoopCompiler(machine, scheme).compile(ddg);
            } catch (const CompileError &err) {
                result.digests.push_back(0);
                fail(FuzzVerdict::CompileRejected, err.diagnostic());
                continue;
            }
            result.digests.push_back(scheduleDigest(loop));
            ++result.pairsCompiled;
            if (loop.moduloScheduled)
                ++result.moduloScheduled;
            corruptLoop(loop, corruption);
            sim::Verdict verdict =
                sim::verifyCompiled(ddg, machine, loop);
            if (!verdict.ok())
                fail(fuzzVerdict(verdict.kind),
                     std::move(verdict.detail));
        }
    }
    return result;
}

namespace
{

/** Rebuilds @p src keeping the masked nodes/edges, remapping ids. */
Ddg
rebuild(const Ddg &src, const std::vector<char> &keepNode,
        const std::vector<char> &keepEdge)
{
    Ddg out(src.name());
    out.setTripCount(src.tripCount());
    std::vector<NodeId> remap(
        static_cast<std::size_t>(src.numNodes()), invalidNode);
    for (NodeId n = 0; n < src.numNodes(); ++n) {
        if (!keepNode[static_cast<std::size_t>(n)])
            continue;
        const DdgNode &node = src.node(n);
        remap[static_cast<std::size_t>(n)] =
            out.addNode(node.opcode, node.label);
    }
    for (EdgeId e = 0; e < src.numEdges(); ++e) {
        if (!keepEdge[static_cast<std::size_t>(e)])
            continue;
        const DdgEdge &edge = src.edge(e);
        NodeId s = remap[static_cast<std::size_t>(edge.src)];
        NodeId d = remap[static_cast<std::size_t>(edge.dst)];
        if (s == invalidNode || d == invalidNode)
            continue;
        out.addEdge(s, d, edge.latency, edge.distance, edge.kind);
    }
    return out;
}

Ddg
dropNodes(const Ddg &src, int start, int count)
{
    std::vector<char> keepNode(
        static_cast<std::size_t>(src.numNodes()), 1);
    for (int n = start; n < start + count; ++n)
        keepNode[static_cast<std::size_t>(n)] = 0;
    std::vector<char> keepEdge(
        static_cast<std::size_t>(src.numEdges()), 1);
    return rebuild(src, keepNode, keepEdge);
}

Ddg
dropEdge(const Ddg &src, EdgeId e)
{
    std::vector<char> keepNode(
        static_cast<std::size_t>(src.numNodes()), 1);
    std::vector<char> keepEdge(
        static_cast<std::size_t>(src.numEdges()), 1);
    keepEdge[static_cast<std::size_t>(e)] = 0;
    return rebuild(src, keepNode, keepEdge);
}

} // namespace

Ddg
minimizeDdg(const Ddg &ddg,
            const std::function<bool(const Ddg &)> &stillFails,
            MinimizeStats *stats, int maxProbes)
{
    MinimizeStats local;
    MinimizeStats &st = stats ? *stats : local;
    st.nodesBefore = ddg.numNodes();
    st.edgesBefore = ddg.numEdges();
    st.probes = 0;

    auto probe = [&](const Ddg &g) {
        ++st.probes;
        return stillFails(g);
    };

    Ddg cur = ddg;
    if (!probe(cur)) {
        // Caller contract violated; return the input untouched
        // rather than "minimize" a graph that does not fail.
        st.nodesAfter = cur.numNodes();
        st.edgesAfter = cur.numEdges();
        return cur;
    }

    bool improved = true;
    while (improved && st.probes < maxProbes) {
        improved = false;
        // Chunked node deletion, halving chunks down to single
        // nodes. A successful cut keeps the scan position so runs
        // of deletable nodes fall in few probes.
        for (int chunk = std::max(cur.numNodes() / 2, 1); chunk >= 1;
             chunk /= 2) {
            int start = 0;
            while (start < cur.numNodes() && st.probes < maxProbes) {
                int count =
                    std::min(chunk, cur.numNodes() - start);
                if (count >= cur.numNodes()) {
                    start += chunk;
                    continue; // never propose an empty graph
                }
                Ddg cand = dropNodes(cur, start, count);
                if (probe(cand)) {
                    cur = std::move(cand);
                    improved = true;
                } else {
                    start += chunk;
                }
            }
            if (chunk == 1)
                break;
        }
        // Per-edge deletion.
        EdgeId e = 0;
        while (e < cur.numEdges() && st.probes < maxProbes) {
            Ddg cand = dropEdge(cur, e);
            if (probe(cand)) {
                cur = std::move(cand);
                improved = true;
            } else {
                ++e;
            }
        }
    }
    st.nodesAfter = cur.numNodes();
    st.edgesAfter = cur.numEdges();
    return cur;
}

namespace
{

/** Case-insensitive-filesystem-safe artifact stem. */
std::string
artifactStem(const SweepFailure &f)
{
    std::string stem = f.fuzzCase.ddg.name() + "__" + f.first().machine +
                       "__" + schemeFlag(f.first().scheme);
    for (char &c : stem) {
        if (!(std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
              c == '-'))
            c = '_';
    }
    return stem;
}

/** Shrinks @p f on its failing machine and writes its artifacts. */
void
minimizeAndRecord(SweepFailure &f, const FuzzMachine &fm,
                  const SweepOptions &options)
{
    auto stillFails = [&](const Ddg &g) {
        FuzzCaseResult r = runFuzzCase(g, {fm.config}, options.corruption);
        for (const FuzzFailure &rf : r.failures) {
            if (rf.scheme == f.first().scheme && rf.kind == f.first().kind)
                return true;
        }
        return false;
    };
    Ddg reduced = minimizeDdg(f.fuzzCase.ddg, stillFails, &f.stats, 4000);

    namespace fs = std::filesystem;
    const std::string stem = artifactStem(f);
    const fs::path dir(options.failuresDir);
    f.minPath = (dir / (stem + ".min.ddg")).string();
    f.origPath = (dir / (stem + ".orig.ddg")).string();
    f.reproPath = (dir / (stem + ".repro")).string();
    const char *corruption = toString(options.corruption);
    auto header = [&](std::ostream &os) {
        os << "# " << f.first().toString() << "\n"
           << "# case " << f.fuzzCase.index << " seed " << f.fuzzCase.seed
           << " shape " << toString(f.fuzzCase.shape) << " corruption "
           << corruption << "\n";
    };
    writeOutput(f.origPath, [&](std::ostream &os) {
        header(os);
        writeDdgText(os, f.fuzzCase.ddg);
    });
    writeOutput(f.minPath, [&](std::ostream &os) {
        header(os);
        os << "# minimized " << f.stats.nodesBefore << " -> "
           << f.stats.nodesAfter << " nodes, " << f.stats.edgesBefore
           << " -> " << f.stats.edgesAfter << " edges in "
           << f.stats.probes << " probes\n";
        writeDdgText(os, reduced);
    });
    writeOutput(f.reproPath, [&](std::ostream &os) {
        os << fs::absolute(options.tool).string() << " fuzz repro --ddg "
           << fs::absolute(f.minPath).string() << " --machine " << fm.spec
           << " --scheme " << schemeFlag(f.first().scheme) << " --corrupt "
           << corruption << " --expect " << toString(f.first().kind)
           << "\n";
    });
}

} // namespace

SweepSummary
runSweep(const std::vector<FuzzMachine> &machines,
         const SweepOptions &options)
{
    const LatencyTable lat;
    const std::vector<MachineConfig> configs = fuzzConfigs(machines);
    SweepSummary summary;
    std::vector<std::vector<std::uint64_t>> caseDigests(
        static_cast<std::size_t>(options.count));
    std::mutex mu;
    {
        ThreadPool pool(options.jobs);
        for (int i = 0; i < options.count; ++i) {
            pool.submit([&, i] {
                FuzzCase c = corpusCase(options.seed, i, lat);
                FuzzCaseResult r =
                    runFuzzCase(c.ddg, configs, options.corruption);
                std::lock_guard<std::mutex> lock(mu);
                caseDigests[static_cast<std::size_t>(i)] =
                    std::move(r.digests);
                summary.pairsCompiled += r.pairsCompiled;
                summary.moduloScheduled += r.moduloScheduled;
                if (!r.ok()) {
                    SweepFailure f;
                    f.fuzzCase = std::move(c);
                    f.failures = std::move(r.failures);
                    summary.failures.push_back(std::move(f));
                }
            });
        }
        pool.wait();
    }
    std::sort(summary.failures.begin(), summary.failures.end(),
              [](const SweepFailure &a, const SweepFailure &b) {
                  return a.fuzzCase.index < b.fuzzCase.index;
              });
    std::size_t pair = 0;
    for (const MachineConfig &machine : configs) {
        for (SchedulerKind scheme : kSchemes) {
            ByteWriter fold;
            for (const std::vector<std::uint64_t> &digests : caseDigests)
                fold.u64(digests[pair]);
            summary.digests.push_back(
                {machine.name(), scheme, fnv1a64(fold.buffer())});
            ++pair;
        }
    }
    if (summary.failures.empty())
        return summary;

    std::error_code ec;
    std::filesystem::create_directories(options.failuresDir, ec);
    if (ec)
        GPSCHED_FATAL("cannot create failures directory '",
                      options.failuresDir, "': ", ec.message());
    for (std::size_t i = 0;
         i < std::min(summary.failures.size(), kMaxMinimized); ++i) {
        SweepFailure &f = summary.failures[i];
        auto fm = std::find_if(machines.begin(), machines.end(),
                               [&](const FuzzMachine &m) {
                                   return m.config.name() ==
                                          f.first().machine;
                               });
        GPSCHED_ASSERT(fm != machines.end(),
                       "failure names unknown machine ", f.first().machine);
        minimizeAndRecord(f, *fm, options);
    }
    return summary;
}

} // namespace gpsched::fuzz
