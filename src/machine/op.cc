#include "machine/op.hh"

#include "support/logging.hh"

namespace gpsched
{

std::string
toString(FuClass cls)
{
    switch (cls) {
      case FuClass::Int: return "INT";
      case FuClass::Fp:  return "FP";
      case FuClass::Mem: return "MEM";
      default: GPSCHED_PANIC("bad FuClass ", static_cast<int>(cls));
    }
}

std::string
toString(Opcode op)
{
    switch (op) {
      case Opcode::IAlu:    return "ialu";
      case Opcode::IMul:    return "imul";
      case Opcode::IDiv:    return "idiv";
      case Opcode::FAdd:    return "fadd";
      case Opcode::FMul:    return "fmul";
      case Opcode::FDiv:    return "fdiv";
      case Opcode::Load:    return "load";
      case Opcode::Store:   return "store";
      case Opcode::BusCopy: return "buscopy";
      case Opcode::SpillSt: return "spillst";
      case Opcode::SpillLd: return "spillld";
      case Opcode::CommSt:  return "commst";
      case Opcode::CommLd:  return "commld";
      default: GPSCHED_PANIC("bad Opcode ", static_cast<int>(op));
    }
}

bool
opcodeFromString(const std::string &text, Opcode &op)
{
    for (int i = 0; i < numOpcodes; ++i) {
        Opcode candidate = static_cast<Opcode>(i);
        if (toString(candidate) == text) {
            op = candidate;
            return true;
        }
    }
    return false;
}

bool
isProgramOpcode(Opcode op)
{
    switch (op) {
      case Opcode::IAlu:
      case Opcode::IMul:
      case Opcode::IDiv:
      case Opcode::FAdd:
      case Opcode::FMul:
      case Opcode::FDiv:
      case Opcode::Load:
      case Opcode::Store:
        return true;
      default:
        return false;
    }
}

bool
isMemoryOpcode(Opcode op)
{
    switch (op) {
      case Opcode::Load:
      case Opcode::Store:
      case Opcode::SpillSt:
      case Opcode::SpillLd:
      case Opcode::CommSt:
      case Opcode::CommLd:
        return true;
      default:
        return false;
    }
}

bool
definesValue(Opcode op)
{
    switch (op) {
      case Opcode::Store:
      case Opcode::SpillSt:
      case Opcode::CommSt:
        return false;
      default:
        return true;
    }
}

LatencyTable::LatencyTable()
{
    auto set = [this](Opcode op, int lat, int occ) {
        timings_[static_cast<int>(op)] = OpTiming{lat, occ};
    };
    set(Opcode::IAlu, 1, 1);
    set(Opcode::IMul, 2, 1);
    set(Opcode::IDiv, 6, 6);   // non-pipelined
    set(Opcode::FAdd, 3, 1);
    set(Opcode::FMul, 4, 1);
    set(Opcode::FDiv, 12, 12); // non-pipelined
    set(Opcode::Load, 2, 1);
    set(Opcode::Store, 1, 1);
    // BusCopy latency is the bus latency; occupancy handled by the
    // bus reservation table. The entry here is a placeholder.
    set(Opcode::BusCopy, 1, 1);
    set(Opcode::SpillSt, 1, 1);
    set(Opcode::SpillLd, 2, 1);
    set(Opcode::CommSt, 1, 1);
    set(Opcode::CommLd, 2, 1);
}

void
LatencyTable::setTiming(Opcode op, OpTiming timing)
{
    GPSCHED_ASSERT(timing.latency >= 0 && timing.occupancy >= 1,
                   "invalid timing for ", toString(op));
    timings_[static_cast<int>(op)] = timing;
}

} // namespace gpsched
