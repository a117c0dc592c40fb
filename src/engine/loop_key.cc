#include "engine/loop_key.hh"

namespace gpsched
{

namespace
{

/** Zigzag: small magnitudes of either sign become small codes. */
std::uint64_t
zigzag(std::int64_t value)
{
    return (static_cast<std::uint64_t>(value) << 1) ^
           static_cast<std::uint64_t>(value >> 63);
}

/**
 * Canonical encoders. Every field is one zigzag LEB128 varint: seven
 * bits per byte, low group first, the high bit set on every byte but
 * the last, so a value in [-64, 63] takes one byte. No tag or
 * separator is needed for the encoding to be injective. LEB128 is
 * prefix-free, so a byte string splits into at most one sequence of
 * values. And the fields a value stands for are fixed by the values
 * before it: each array follows its count (n nodes, e edges, C
 * clusters, B bus classes), and the FU-class and opcode tables have
 * fixed lengths. So two jobs share a canonical string only if they
 * agree on every field.
 *
 * makeLoopKey (and shapeBytes) run the field sequence twice:
 * SizeEncoder measures it, then WriteEncoder fills a string of
 * exactly that size.
 */
class SizeEncoder
{
  public:
    void
    field(std::int64_t value)
    {
        std::uint64_t code = zigzag(value);
        ++size_;
        while (code >= 0x80) {
            code >>= 7;
            ++size_;
        }
    }

    std::size_t size() const { return size_; }

  private:
    std::size_t size_ = 0;
};

class WriteEncoder
{
  public:
    explicit WriteEncoder(char *out) : out_(out) {}

    void
    field(std::int64_t value)
    {
        std::uint64_t code = zigzag(value);
        while (code >= 0x80) {
            *out_++ = static_cast<char>(code | 0x80);
            code >>= 7;
        }
        *out_++ = static_cast<char>(code);
    }

  private:
    char *out_;
};

template <typename Encoder>
void
encodeDdg(Encoder &enc, const Ddg &ddg)
{
    enc.field(ddg.numNodes());
    enc.field(ddg.tripCount());
    for (NodeId v = 0; v < ddg.numNodes(); ++v)
        enc.field(static_cast<int>(ddg.node(v).opcode));
    enc.field(ddg.numEdges());
    for (EdgeId e = 0; e < ddg.numEdges(); ++e) {
        const DdgEdge &edge = ddg.edge(e);
        enc.field(edge.src);
        enc.field(edge.dst);
        enc.field(edge.latency);
        enc.field(edge.distance);
        enc.field(static_cast<int>(edge.kind));
    }
}

template <typename Encoder>
void
encodeMachine(Encoder &enc, const MachineConfig &machine)
{
    // Full per-cluster encoding: machines differing in a single
    // cluster's FU mix or register file, or in any bus class, must
    // never alias. Cluster display names are excluded (they do not
    // affect scheduling), matching the loop-name exclusion policy.
    enc.field(machine.numClusters());
    for (int c = 0; c < machine.numClusters(); ++c) {
        for (int k = 0; k < numFuClasses; ++k)
            enc.field(machine.fuInCluster(c, static_cast<FuClass>(k)));
        enc.field(machine.regsInCluster(c));
    }
    enc.field(machine.numBusClasses());
    for (int i = 0; i < machine.numBusClasses(); ++i) {
        enc.field(machine.busClass(i).count);
        enc.field(machine.busClass(i).latency);
    }
    const LatencyTable &lat = machine.latencies();
    for (int op = 0; op < numOpcodes; ++op) {
        const OpTiming &t = lat.timing(static_cast<Opcode>(op));
        enc.field(t.latency);
        enc.field(t.occupancy);
    }
}

template <typename Encoder>
void
encodeOptions(Encoder &enc, SchedulerKind kind,
              const LoopCompilerOptions &options)
{
    enc.field(static_cast<int>(kind));
    enc.field(static_cast<int>(options.repartition));
    enc.field(static_cast<int>(options.transferCost));

    const GpPartitionerOptions &part = options.partitioner;
    enc.field(static_cast<int>(part.matching));
    enc.field(part.edgeWeights.useDelayTerm ? 1 : 0);
    enc.field(part.edgeWeights.useSlackTerm ? 1 : 0);
    enc.field(part.registerAware ? 1 : 0);
}

template <typename Encoder>
void
encodeJob(Encoder &enc, const Ddg &ddg, const MachineConfig &machine,
          SchedulerKind kind, const LoopCompilerOptions &options)
{
    encodeDdg(enc, ddg);
    encodeMachine(enc, machine);
    encodeOptions(enc, kind, options);
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

// Flattened: the encoders have a second caller (shapeBytes), which
// would otherwise leave them out of line here, on the largest cost
// of a warm cache hit.
[[gnu::flatten]] LoopKey
makeLoopKey(const Ddg &ddg, const MachineConfig &machine,
            SchedulerKind kind, const LoopCompilerOptions &options)
{
    SizeEncoder size;
    encodeJob(size, ddg, machine, kind, options);

    LoopKey key;
    key.canonical.resize(size.size());
    WriteEncoder write(key.canonical.data());
    encodeJob(write, ddg, machine, kind, options);
    key.digest = fnv1a64(key.canonical);
    return key;
}

namespace
{

/** The canonical bytes @p encode writes: measured, then written. */
template <typename Encode>
std::string
canonicalString(const Encode &encode)
{
    SizeEncoder size;
    encode(size);
    std::string out(size.size(), '\0');
    WriteEncoder write(out.data());
    encode(write);
    return out;
}

} // namespace

std::string
shapeBytes(const Ddg &ddg)
{
    return canonicalString([&](auto &enc) { encodeDdg(enc, ddg); });
}

std::string
shapeBytes(const MachineConfig &machine)
{
    return canonicalString(
        [&](auto &enc) { encodeMachine(enc, machine); });
}

} // namespace gpsched
