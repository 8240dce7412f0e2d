/**
 * @file
 * The HSAIL-like intermediate language: opcodes, data types, segments.
 *
 * Deliberate abstraction properties (matching the paper's HSAIL):
 *  - SIMT: every instruction defines the behaviour of ONE work-item.
 *  - No scalar instructions, no exec mask, no waitcnt.
 *  - Register-allocated flat vector register space (up to 2,048/WF).
 *  - Segment-qualified memory ops with implicit base addresses.
 *  - One-instruction `div`, `workitemabsid`, etc.
 */

#ifndef LAST_HSAIL_OPCODES_HH
#define LAST_HSAIL_OPCODES_HH

#include <cstdint>

namespace last::hsail
{

enum class Opcode : uint8_t
{
    // Arithmetic (vector ALU).
    Add, Sub, Mul, MulHi, Mad, Div, Rem, Min, Max, Abs, Neg, Fma, Sqrt,
    // Bitwise / shifts.
    And, Or, Xor, Not, Shl, Shr, AShr, Bfe,
    // Compare / select.
    Cmp,   ///< dst = (src0 OP src1) ? 1 : 0
    CMov,  ///< dst = src0 ? src1 : src2
    // Moves and conversion.
    Mov, MovImm, Cvt,
    // Memory.
    Ld, St, AtomicAdd,
    // Control flow.
    Br, CBr, Barrier, Ret,
    // Dispatch intrinsics (single-instruction ABI of the IL).
    WorkItemAbsId, WorkItemId, WorkGroupId, WorkGroupSize, GridSize,
    // Misc.
    Nop,
};

enum class DataType : uint8_t
{
    B32, ///< untyped 32-bit
    U32,
    S32,
    F32,
    U64, ///< pair of 32-bit registers
    F64, ///< pair of 32-bit registers
};

enum class Segment : uint8_t
{
    Global,
    Readonly,
    Kernarg,
    Group,   ///< LDS
    Private,
    Spill,
    Arg,
};

enum class CmpOp : uint8_t
{
    Eq, Ne, Lt, Le, Gt, Ge,
};

const char *opcodeName(Opcode op);
const char *typeName(DataType t);
const char *segmentName(Segment s);
const char *cmpOpName(CmpOp c);

/** Source operands an ALU op reads (cmp reads 2, movimm none). */
constexpr unsigned
aluArity(Opcode op)
{
    switch (op) {
      case Opcode::MovImm:
        return 0;
      case Opcode::Abs:
      case Opcode::Neg:
      case Opcode::Sqrt:
      case Opcode::Not:
      case Opcode::Mov:
      case Opcode::Cvt:
        return 1;
      case Opcode::Mad:
      case Opcode::Fma:
      case Opcode::Bfe:
      case Opcode::CMov:
        return 3;
      default:
        return 2;
    }
}

/** Registers a value of this type occupies (1 or 2). */
constexpr unsigned
typeRegs(DataType t)
{
    return (t == DataType::U64 || t == DataType::F64) ? 2 : 1;
}

/** Registers the result of ALU op `op` at type `t` occupies: a compare
 *  writes one, whatever its operands' type. */
constexpr unsigned
resultRegs(Opcode op, DataType t)
{
    return op == Opcode::Cmp ? 1 : typeRegs(t);
}

/** Registers source `i` of ALU op `op` at type `t` occupies: cvt's
 *  source has its own type `src_t`, and cmov's condition is one. */
constexpr unsigned
sourceRegs(Opcode op, DataType t, DataType src_t, unsigned i)
{
    if (op == Opcode::Cvt)
        return typeRegs(src_t);
    return op == Opcode::CMov && i == 0 ? 1 : typeRegs(t);
}

/** Bytes a memory access of this type moves per work-item. */
constexpr unsigned
typeBytes(DataType t)
{
    return typeRegs(t) * 4;
}

} // namespace last::hsail

#endif // LAST_HSAIL_OPCODES_HH
