#include "arch/instruction.hh"

namespace last::arch
{

unsigned
Instruction::latency(const GpuConfig &cfg) const
{
    switch (fuType()) {
      case FuType::VAlu:
        return is(IsF64) || is(IsTrans) ? cfg.valuLatencyF64
                                        : cfg.valuLatency;
      case FuType::SAlu:
        return cfg.saluLatency;
      case FuType::Branch:
        return cfg.branchLatency;
      case FuType::Lds:
        return cfg.ldsLatency;
      case FuType::VMem:
      case FuType::SMem:
        return 0; // timing comes from the memory system
      case FuType::Special:
        return 1;
    }
    return 1;
}

std::string
Instruction::mnemonic() const
{
    std::string d = disassemble();
    auto sp = d.find_first_of(" \t");
    return sp == std::string::npos ? d : d.substr(0, sp);
}

} // namespace last::arch
