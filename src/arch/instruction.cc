#include "arch/instruction.hh"

namespace last::arch
{

std::string
Instruction::mnemonic() const
{
    std::string d = disassemble();
    auto sp = d.find_first_of(" \t");
    return sp == std::string::npos ? d : d.substr(0, sp);
}

} // namespace last::arch
