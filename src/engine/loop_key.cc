#include "engine/loop_key.hh"

#include <type_traits>

namespace gpsched
{

namespace
{

/**
 * Compact canonical encoder. Integers are rendered in decimal with a
 * one-character tag and a separator, so no two distinct field
 * sequences can collide.
 */
class Encoder
{
  public:
    template <typename Int>
    Encoder &
    field(char tag, Int value,
          std::enable_if_t<std::is_integral_v<Int>> * = nullptr)
    {
        out_ += tag;
        out_ += std::to_string(value);
        out_ += ';';
        return *this;
    }

    std::string
    take()
    {
        return std::move(out_);
    }

  private:
    std::string out_;
};

void
encodeDdg(Encoder &enc, const Ddg &ddg)
{
    enc.field('n', ddg.numNodes());
    enc.field('t', ddg.tripCount());
    for (NodeId v = 0; v < ddg.numNodes(); ++v)
        enc.field('o', static_cast<int>(ddg.node(v).opcode));
    enc.field('e', ddg.numEdges());
    for (EdgeId e = 0; e < ddg.numEdges(); ++e) {
        const DdgEdge &edge = ddg.edge(e);
        enc.field('s', edge.src);
        enc.field('d', edge.dst);
        enc.field('l', edge.latency);
        enc.field('i', edge.distance);
        enc.field('k', static_cast<int>(edge.kind));
    }
}

void
encodeMachine(Encoder &enc, const MachineConfig &machine)
{
    // Full per-cluster encoding: machines differing in a single
    // cluster's FU mix or register file, or in any bus class, must
    // never alias. Cluster display names are excluded (they do not
    // affect scheduling), matching the loop-name exclusion policy.
    enc.field('C', machine.numClusters());
    for (int c = 0; c < machine.numClusters(); ++c) {
        for (int k = 0; k < numFuClasses; ++k) {
            enc.field('F',
                      machine.fuInCluster(c, static_cast<FuClass>(k)));
        }
        enc.field('R', machine.regsInCluster(c));
    }
    enc.field('B', machine.numBusClasses());
    for (int i = 0; i < machine.numBusClasses(); ++i) {
        enc.field('N', machine.busClass(i).count);
        enc.field('L', machine.busClass(i).latency);
    }
    const LatencyTable &lat = machine.latencies();
    for (int op = 0; op < numOpcodes; ++op) {
        const OpTiming &t = lat.timing(static_cast<Opcode>(op));
        enc.field('a', t.latency);
        enc.field('u', t.occupancy);
    }
}

void
encodeOptions(Encoder &enc, SchedulerKind kind,
              const LoopCompilerOptions &options)
{
    enc.field('K', static_cast<int>(kind));
    enc.field('r', static_cast<int>(options.repartition));
    enc.field('T', static_cast<int>(options.transferCost));

    const GpPartitionerOptions &part = options.partitioner;
    enc.field('M', static_cast<int>(part.matching));
    enc.field('w', part.edgeWeights.useDelayTerm ? 1 : 0);
    enc.field('W', part.edgeWeights.useSlackTerm ? 1 : 0);
    enc.field('G', part.registerAware ? 1 : 0);
}

} // namespace

std::uint64_t
fnv1a64(const char *data, std::size_t size)
{
    std::uint64_t hash = 0xcbf29ce484222325ULL;
    for (std::size_t i = 0; i < size; ++i) {
        hash ^= static_cast<unsigned char>(data[i]);
        hash *= 0x100000001b3ULL;
    }
    return hash;
}

std::uint64_t
fnv1a64(const std::string &bytes)
{
    return fnv1a64(bytes.data(), bytes.size());
}

std::string
hexDigest(std::uint64_t digest, int digits)
{
    static const char table[] = "0123456789abcdef";
    std::string out(digits, '0');
    for (int i = digits - 1; i >= 0; --i) {
        out[i] = table[digest & 0xf];
        digest >>= 4;
    }
    return out;
}

LoopKey
makeLoopKey(const Ddg &ddg, const MachineConfig &machine,
            SchedulerKind kind, const LoopCompilerOptions &options)
{
    Encoder enc;
    encodeDdg(enc, ddg);
    encodeMachine(enc, machine);
    encodeOptions(enc, kind, options);

    LoopKey key;
    key.canonical = enc.take();
    key.digest = fnv1a64(key.canonical);
    return key;
}

} // namespace gpsched
