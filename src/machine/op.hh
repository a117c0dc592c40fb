/**
 * @file
 * Operation model: opcodes, functional-unit classes, latencies and
 * occupancies for the clustered VLIW target.
 *
 * Opcodes split into two groups. Program opcodes appear in the input
 * DDG; overhead opcodes (spill stores/loads, communication stores/
 * loads and bus copies) are introduced by the schedulers and never by
 * workloads. IPC accounting counts program ops only (see
 * docs/ARCHITECTURE.md, "Paper substitutions", 4).
 */

#ifndef GPSCHED_MACHINE_OP_HH
#define GPSCHED_MACHINE_OP_HH

#include <cstdint>
#include <string>

#include "support/logging.hh"

namespace gpsched
{

/** Functional-unit classes of the clustered VLIW (Table 1). */
enum class FuClass : std::uint8_t
{
    Int,    ///< integer ALU / multiply / divide
    Fp,     ///< floating-point add / multiply / divide
    Mem,    ///< memory port (loads, stores, spill, mem-comms)
    NumClasses
};

/** Number of distinct functional-unit classes. */
constexpr int numFuClasses =
    static_cast<int>(FuClass::NumClasses);

/** Returns a short printable name ("INT", "FP", "MEM"). */
std::string toString(FuClass cls);

/** Opcodes recognized by the machine model. */
enum class Opcode : std::uint8_t
{
    // --- program opcodes (may appear in workload DDGs) ---
    IAlu,      ///< integer add/sub/logic/compare
    IMul,      ///< integer multiply
    IDiv,      ///< integer divide (non-pipelined)
    FAdd,      ///< FP add/subtract
    FMul,      ///< FP multiply
    FDiv,      ///< FP divide (non-pipelined)
    Load,      ///< memory load
    Store,     ///< memory store
    // --- overhead opcodes (inserted by schedulers only) ---
    BusCopy,   ///< inter-cluster register copy over a bus
    SpillSt,   ///< spill store (register -> memory)
    SpillLd,   ///< spill load  (memory -> register)
    CommSt,    ///< communication-through-memory store
    CommLd,    ///< communication-through-memory load
    NumOpcodes
};

/** Number of distinct opcodes. */
constexpr int numOpcodes = static_cast<int>(Opcode::NumOpcodes);

/** Returns a short printable mnemonic. */
std::string toString(Opcode op);

/** Parses a mnemonic produced by toString(): sets @p op and returns
 *  true iff @p text is a known mnemonic. */
bool opcodeFromString(const std::string &text, Opcode &op);

/** True for opcodes that may appear in an input (workload) DDG. */
bool isProgramOpcode(Opcode op);

/** True for opcodes executed on a memory port. */
bool isMemoryOpcode(Opcode op);

/** True for opcodes that write a register (define a value). */
bool definesValue(Opcode op);

/**
 * Functional-unit class executing @p op. BusCopy is special: it
 * consumes a bus slot, not a functional unit, and must not be passed
 * here. Inline: called per node inside every occupancy and
 * scheduling loop; the switch compiles to a table lookup.
 */
inline FuClass
fuClassOf(Opcode op)
{
    switch (op) {
      case Opcode::IAlu:
      case Opcode::IMul:
      case Opcode::IDiv:
        return FuClass::Int;
      case Opcode::FAdd:
      case Opcode::FMul:
      case Opcode::FDiv:
        return FuClass::Fp;
      case Opcode::Load:
      case Opcode::Store:
      case Opcode::SpillSt:
      case Opcode::SpillLd:
      case Opcode::CommSt:
      case Opcode::CommLd:
        return FuClass::Mem;
      case Opcode::BusCopy:
        GPSCHED_PANIC("BusCopy executes on a bus, not a FU");
      default:
        GPSCHED_PANIC("bad Opcode ", static_cast<int>(op));
    }
}

/**
 * Per-opcode timing: @c latency is cycles from issue to result
 * availability; @c occupancy is cycles the functional unit stays busy
 * (>1 models non-pipelined units).
 */
struct OpTiming
{
    int latency = 1;
    int occupancy = 1;

    bool operator==(const OpTiming &other) const
    {
        return latency == other.latency &&
               occupancy == other.occupancy;
    }
    bool operator!=(const OpTiming &other) const
    {
        return !(*this == other);
    }
};

/**
 * Latency/occupancy table for every opcode. Defaults follow the
 * authors' companion papers (docs/ARCHITECTURE.md, "Paper
 * substitutions", 3); bus-copy latency lives in MachineConfig
 * because it is a bus property.
 */
class LatencyTable
{
  public:
    /** Builds the default table. */
    LatencyTable();

    /** Returns timing of @p op. Inline: read per node per analysis
     *  pass on the compile hot path. */
    const OpTiming &
    timing(Opcode op) const
    {
        int idx = static_cast<int>(op);
        GPSCHED_ASSERT(idx >= 0 && idx < numOpcodes, "bad opcode ",
                       idx);
        return timings_[idx];
    }

    /** Overrides timing of @p op. */
    void setTiming(Opcode op, OpTiming timing);

    /** Shorthand for timing(op).latency. */
    int latency(Opcode op) const { return timing(op).latency; }

    /** Shorthand for timing(op).occupancy. */
    int occupancy(Opcode op) const { return timing(op).occupancy; }

    bool operator==(const LatencyTable &other) const
    {
        for (int i = 0; i < numOpcodes; ++i) {
            if (timings_[i] != other.timings_[i])
                return false;
        }
        return true;
    }
    bool operator!=(const LatencyTable &other) const
    {
        return !(*this == other);
    }

  private:
    OpTiming timings_[numOpcodes];
};

} // namespace gpsched

#endif // GPSCHED_MACHINE_OP_HH
