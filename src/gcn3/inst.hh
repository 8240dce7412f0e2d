/**
 * @file
 * Concrete GCN3 instruction. One class covers all formats; named
 * factories build well-formed instances and the finalizer/assembler is
 * the only producer (plus tests).
 */

#ifndef LAST_GCN3_INST_HH
#define LAST_GCN3_INST_HH

#include <cstdint>

#include "arch/instruction.hh"
#include "arch/wf_state.hh"
#include "gcn3/opcodes.hh"
#include "hsail/opcodes.hh"

namespace last::gcn3
{

/** A source operand: VGPR, SGPR (incl. VCC/EXEC), inline constant, or
 *  a 32-bit literal (which widens the encoding by 4 bytes). */
struct Src
{
    enum class Kind : uint8_t
    {
        None, Vgpr, Sgpr, InlineConst, Literal,
        InlineConstF64, ///< value holds the high 32 bits of the double
    };

    Kind kind = Kind::None;
    uint16_t reg = 0;
    uint32_t value = 0;

    static Src vgpr(unsigned r) { return {Kind::Vgpr, uint16_t(r), 0}; }
    static Src sgpr(unsigned r) { return {Kind::Sgpr, uint16_t(r), 0}; }
    static Src vcc() { return sgpr(arch::RegVccLo); }
    static Src execMask() { return sgpr(arch::RegExecLo); }

    /** Integer immediate: inline if in [-16, 64], else literal. */
    static Src
    imm(int64_t v)
    {
        if (v >= -16 && v <= 64)
            return {Kind::InlineConst, 0, uint32_t(int32_t(v))};
        return {Kind::Literal, 0, uint32_t(int32_t(v))};
    }

    /** Raw 32-bit literal (e.g., float bits). Inline-encodes the
     *  hardware's special float constants. */
    static Src
    bits32(uint32_t b)
    {
        switch (b) {
          case 0x00000000u: // 0.0 / 0
          case 0x3f000000u: // 0.5f
          case 0xbf000000u:
          case 0x3f800000u: // 1.0f
          case 0xbf800000u:
          case 0x40000000u: // 2.0f
          case 0xc0000000u:
          case 0x40800000u: // 4.0f
          case 0xc0800000u:
            return {Kind::InlineConst, 0, b};
          default:
            return {Kind::Literal, 0, b};
        }
    }

    /** Double-precision inline constant; only the hardware's special
     *  values (±0.5, ±1.0, ±2.0, ±4.0) are representable. */
    static Src
    f64const(double v)
    {
        uint64_t b = __builtin_bit_cast(uint64_t, v);
        if ((b & 0xffffffffull) != 0)
            return {Kind::Literal, 0, 0}; // unreachable for legal values
        return {Kind::InlineConstF64, 0, uint32_t(b >> 32)};
    }

    bool isLiteral() const { return kind == Kind::Literal; }
    bool valid() const { return kind != Kind::None; }
};

/**
 * A VALU or VOPC opcode's twin in the IL lane library
 * (hsail/lane_ops.hh): the IL op, its data type, and which GCN3
 * operand feeds each IL source, so the lane semantics exist once for
 * all three levels. GCN3's own operand resolution (VGPR, SGPR and
 * constant rows, the VOP3 negate bit) happens before the IL op sees a
 * value. Ops only GCN3 has (the carry family's VCC bits, V_CNDMASK_B32
 * on VCC, V_MAD_U32_U24, V_DIV_SCALE_*, V_RCP_*) have no twin.
 */
struct IlTwin
{
    /** A src[] entry naming the destination row: V_MAC_F32 adds into
     *  its destination. */
    static constexpr uint8_t DstRow = 3;

    hsail::Opcode op = hsail::Opcode::Nop; ///< Nop: no twin
    hsail::DataType type = hsail::DataType::B32;
    hsail::DataType srcType = hsail::DataType::B32; ///< cvt's source
    hsail::CmpOp cmp = hsail::CmpOp::Eq;
    uint8_t src[3] = {0, 1, 2}; ///< GCN3 operand of IL source i

    constexpr bool valid() const { return op != hsail::Opcode::Nop; }
};

/** The mapping table: `op`'s IL twin, or none. */
constexpr IlTwin
ilTwin(Gcn3Op op)
{
    using hsail::CmpOp;
    using hsail::DataType;
    using hsail::Opcode;
    constexpr DataType B32 = DataType::B32, U32 = DataType::U32,
                       S32 = DataType::S32, F32 = DataType::F32,
                       F64 = DataType::F64;
    auto alu = [](Opcode o, DataType t, uint8_t s0 = 0, uint8_t s1 = 1,
                  uint8_t s2 = 2) {
        return IlTwin{o, t, t, CmpOp::Eq, {s0, s1, s2}};
    };
    auto cvt = [](DataType to, DataType from) {
        return IlTwin{Opcode::Cvt, to, from, CmpOp::Eq, {0, 1, 2}};
    };
    auto cmp = [](CmpOp c, DataType t) {
        return IlTwin{Opcode::Cmp, t, t, c, {0, 1, 2}};
    };
    switch (op) {
      case Gcn3Op::V_MOV_B32: return alu(Opcode::Mov, B32);
      case Gcn3Op::V_NOT_B32: return alu(Opcode::Not, B32);
      case Gcn3Op::V_SQRT_F32: return alu(Opcode::Sqrt, F32);
      case Gcn3Op::V_SQRT_F64: return alu(Opcode::Sqrt, F64);
      case Gcn3Op::V_CVT_F32_U32: return cvt(F32, U32);
      case Gcn3Op::V_CVT_F32_I32: return cvt(F32, S32);
      case Gcn3Op::V_CVT_U32_F32: return cvt(U32, F32);
      case Gcn3Op::V_CVT_I32_F32: return cvt(S32, F32);
      case Gcn3Op::V_CVT_F64_F32: return cvt(F64, F32);
      case Gcn3Op::V_CVT_F32_F64: return cvt(F32, F64);
      case Gcn3Op::V_CVT_F64_U32: return cvt(F64, U32);
      case Gcn3Op::V_CVT_U32_F64: return cvt(U32, F64);
      case Gcn3Op::V_MUL_LO_U32: return alu(Opcode::Mul, U32);
      case Gcn3Op::V_MUL_HI_U32: return alu(Opcode::MulHi, U32);
      case Gcn3Op::V_ADD_F32: return alu(Opcode::Add, F32);
      case Gcn3Op::V_SUB_F32: return alu(Opcode::Sub, F32);
      case Gcn3Op::V_MUL_F32: return alu(Opcode::Mul, F32);
      case Gcn3Op::V_MAC_F32:
        return alu(Opcode::Mad, F32, 0, 1, IlTwin::DstRow);
      case Gcn3Op::V_MIN_F32: return alu(Opcode::Min, F32);
      case Gcn3Op::V_MAX_F32: return alu(Opcode::Max, F32);
      case Gcn3Op::V_MIN_U32: return alu(Opcode::Min, U32);
      case Gcn3Op::V_MAX_U32: return alu(Opcode::Max, U32);
      case Gcn3Op::V_MIN_I32: return alu(Opcode::Min, S32);
      case Gcn3Op::V_MAX_I32: return alu(Opcode::Max, S32);
      case Gcn3Op::V_AND_B32: return alu(Opcode::And, B32);
      case Gcn3Op::V_OR_B32: return alu(Opcode::Or, B32);
      case Gcn3Op::V_XOR_B32: return alu(Opcode::Xor, B32);
      // The *REV shifts take the shift count first.
      case Gcn3Op::V_LSHLREV_B32: return alu(Opcode::Shl, B32, 1, 0);
      case Gcn3Op::V_LSHRREV_B32: return alu(Opcode::Shr, B32, 1, 0);
      case Gcn3Op::V_ASHRREV_I32: return alu(Opcode::AShr, S32, 1, 0);
      case Gcn3Op::V_MAD_F32: return alu(Opcode::Mad, F32);
      case Gcn3Op::V_FMA_F32: return alu(Opcode::Fma, F32);
      case Gcn3Op::V_BFE_U32: return alu(Opcode::Bfe, U32);
      case Gcn3Op::V_ADD_F64: return alu(Opcode::Add, F64);
      case Gcn3Op::V_MUL_F64: return alu(Opcode::Mul, F64);
      case Gcn3Op::V_FMA_F64: return alu(Opcode::Fma, F64);
      case Gcn3Op::V_MIN_F64: return alu(Opcode::Min, F64);
      case Gcn3Op::V_MAX_F64: return alu(Opcode::Max, F64);
      case Gcn3Op::V_DIV_FMAS_F32: return alu(Opcode::Fma, F32);
      case Gcn3Op::V_DIV_FMAS_F64: return alu(Opcode::Fma, F64);
      // dst = numerator (src2) / denominator (src1), correctly rounded:
      // the hardware sequence guarantees it, so the model computes it.
      case Gcn3Op::V_DIV_FIXUP_F32: return alu(Opcode::Div, F32, 2, 1);
      case Gcn3Op::V_DIV_FIXUP_F64: return alu(Opcode::Div, F64, 2, 1);
      case Gcn3Op::V_CMP_EQ_U32: return cmp(CmpOp::Eq, U32);
      case Gcn3Op::V_CMP_NE_U32: return cmp(CmpOp::Ne, U32);
      case Gcn3Op::V_CMP_LT_U32: return cmp(CmpOp::Lt, U32);
      case Gcn3Op::V_CMP_LE_U32: return cmp(CmpOp::Le, U32);
      case Gcn3Op::V_CMP_GT_U32: return cmp(CmpOp::Gt, U32);
      case Gcn3Op::V_CMP_GE_U32: return cmp(CmpOp::Ge, U32);
      case Gcn3Op::V_CMP_EQ_I32: return cmp(CmpOp::Eq, S32);
      case Gcn3Op::V_CMP_NE_I32: return cmp(CmpOp::Ne, S32);
      case Gcn3Op::V_CMP_LT_I32: return cmp(CmpOp::Lt, S32);
      case Gcn3Op::V_CMP_LE_I32: return cmp(CmpOp::Le, S32);
      case Gcn3Op::V_CMP_GT_I32: return cmp(CmpOp::Gt, S32);
      case Gcn3Op::V_CMP_GE_I32: return cmp(CmpOp::Ge, S32);
      case Gcn3Op::V_CMP_EQ_F32: return cmp(CmpOp::Eq, F32);
      case Gcn3Op::V_CMP_NE_F32: return cmp(CmpOp::Ne, F32);
      case Gcn3Op::V_CMP_LT_F32: return cmp(CmpOp::Lt, F32);
      case Gcn3Op::V_CMP_LE_F32: return cmp(CmpOp::Le, F32);
      case Gcn3Op::V_CMP_GT_F32: return cmp(CmpOp::Gt, F32);
      case Gcn3Op::V_CMP_GE_F32: return cmp(CmpOp::Ge, F32);
      case Gcn3Op::V_CMP_EQ_F64: return cmp(CmpOp::Eq, F64);
      case Gcn3Op::V_CMP_NE_F64: return cmp(CmpOp::Ne, F64);
      case Gcn3Op::V_CMP_LT_F64: return cmp(CmpOp::Lt, F64);
      case Gcn3Op::V_CMP_LE_F64: return cmp(CmpOp::Le, F64);
      case Gcn3Op::V_CMP_GT_F64: return cmp(CmpOp::Gt, F64);
      case Gcn3Op::V_CMP_GE_F64: return cmp(CmpOp::Ge, F64);
      default:
        return {};
    }
}

/** Destination operand. */
struct Dst
{
    enum class Kind : uint8_t { None, Vgpr, Sgpr };

    Kind kind = Kind::None;
    uint16_t reg = 0;

    static Dst none() { return {}; }
    static Dst vgpr(unsigned r) { return {Kind::Vgpr, uint16_t(r)}; }
    static Dst sgpr(unsigned r) { return {Kind::Sgpr, uint16_t(r)}; }
    static Dst vcc() { return sgpr(arch::RegVccLo); }
    static Dst execMask() { return sgpr(arch::RegExecLo); }

    bool valid() const { return kind != Kind::None; }
};

class Gcn3Inst : public arch::Instruction
{
  public:
    /** @{ Named factories (the assembler API). */
    static Gcn3Inst *sop1(Gcn3Op op, Dst dst, Src src);
    static Gcn3Inst *sop2(Gcn3Op op, Dst dst, Src s0, Src s1);
    static Gcn3Inst *sopc(Gcn3Op op, Src s0, Src s1);
    static Gcn3Inst *sopk(Gcn3Op op, Dst dst, int16_t k);
    static Gcn3Inst *sopp(Gcn3Op op, uint32_t imm = 0);
    static Gcn3Inst *branch(Gcn3Op op, size_t target_index);
    static Gcn3Inst *waitcnt(int vm, int lgkm);
    static Gcn3Inst *smem(Gcn3Op op, Dst dst, unsigned sbase,
                          uint32_t offset);
    static Gcn3Inst *vop1(Gcn3Op op, Dst dst, Src src);
    static Gcn3Inst *vop2(Gcn3Op op, Dst dst, Src s0, Src s1);
    static Gcn3Inst *vop3(Gcn3Op op, Dst dst, Src s0, Src s1, Src s2,
                          uint8_t neg_mask = 0);
    static Gcn3Inst *vcmp(Gcn3Op op, Src s0, Src s1);
    static Gcn3Inst *flat(Gcn3Op op, Dst dst, unsigned addr_vgpr,
                          unsigned data_vgpr = 0);
    static Gcn3Inst *ds(Gcn3Op op, Dst dst, unsigned addr_vgpr,
                        unsigned data_vgpr, uint32_t offset);
    /** @} */

    void execute(arch::WfState &wf) const override;
    std::string disassemble() const override;
    arch::FuType fuType() const override;
    unsigned sizeBytes() const override;

    /** Install the direct-threaded handler (src/gcn3/exec.cc). */
    void predecode(arch::ExecMeta &m) const override;

    Gcn3Op op() const { return opc; }
    Format format() const { return opFormat(opc); }

    /** @{ Branch-target plumbing: built as instruction indices,
     * resolved to byte offsets by resolveBranchTargets(). */
    size_t targetIndex() const { return targetIdx; }
    void setTargetIndex(size_t idx) { targetIdx = idx; }
    void setTargetOffset(Addr off) { targetOff = off; }
    Addr targetOffset() const { return targetOff; }
    /** @} */

    /** s_waitcnt thresholds (64 = don't care). */
    unsigned vmThreshold() const { return simm & 0xff; }
    unsigned lgkmThreshold() const { return (simm >> 8) & 0xff; }

    /** SOPP immediate (s_nop wait states, etc.). */
    uint32_t soppImm() const { return simm; }

  private:
    /** The direct-threaded handlers (exec.cc) read operand fields and
     *  call the private executors non-virtually. */
    friend struct Gcn3Exec;

    explicit Gcn3Inst(Gcn3Op op);

    void finalizeOperands();
    bool isWide(unsigned srcIdx) const;    ///< 64-bit source?
    unsigned dstWidth() const;             ///< 32-bit regs written

    /** Read a source: lane used only for Vgpr kinds. */
    uint32_t readSrc32(const arch::WfState &wf, unsigned i,
                       unsigned lane) const;
    uint64_t readSrc64(const arch::WfState &wf, unsigned i,
                       unsigned lane) const;

    void executeSalu(arch::WfState &wf) const;
    /** VALU and VOPC: an op with an IL twin through the IL's reference
     *  lane semantics, the rest through executeOwnValu(). */
    void executeValu(arch::WfState &wf) const;
    /** The VALU ops only GCN3 has; both engines run this one
     *  implementation (src/gcn3/exec.cc). */
    void executeOwnValu(arch::WfState &wf) const;
    void executeSmem(arch::WfState &wf) const;
    void executeFlat(arch::WfState &wf) const;
    void executeDs(arch::WfState &wf) const;
    void executeSopp(arch::WfState &wf) const;

    Gcn3Op opc;
    Dst dst;
    Src srcs[3];
    uint8_t negMask = 0; ///< VOP3 floating-point negate modifiers
    uint32_t simm = 0;   ///< SOPK/SOPP constant, SMEM/DS offset
    size_t targetIdx = 0;
    Addr targetOff = InvalidAddr;
};

/** Patch all branch targets after the kernel is sealed. */
void resolveBranchTargets(arch::KernelCode &code);

} // namespace last::gcn3

#endif // LAST_GCN3_INST_HH
