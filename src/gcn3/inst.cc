#include "gcn3/inst.hh"

#include <algorithm>
#include <bit>
#include <cctype>
#include <sstream>

#include "arch/kernel_code.hh"
#include "arch/lane_mem.hh"
#include "common/logging.hh"
#include "hsail/lane_ops.hh"

namespace last::gcn3
{

namespace
{

struct OpInfo
{
    const char *name;
    Format fmt;
};

constexpr OpInfo opTable[] = {
#define LAST_X(name, fmt) {#name, Format::fmt},
    LAST_GCN3_OPCODES(LAST_X)
#undef LAST_X
};

} // namespace

const char *
opName(Gcn3Op op)
{
    return opTable[size_t(op)].name;
}

Format
opFormat(Gcn3Op op)
{
    return opTable[size_t(op)].fmt;
}

Gcn3Inst::Gcn3Inst(Gcn3Op op)
    : opc(op)
{
}

unsigned
Gcn3Inst::dstWidth() const
{
    switch (opc) {
      case Gcn3Op::S_MOV_B64:
      case Gcn3Op::S_AND_B64:
      case Gcn3Op::S_OR_B64:
      case Gcn3Op::S_XOR_B64:
      case Gcn3Op::S_ANDN2_B64:
      case Gcn3Op::S_AND_SAVEEXEC_B64:
      case Gcn3Op::S_OR_SAVEEXEC_B64:
      case Gcn3Op::S_LOAD_DWORDX2:
      case Gcn3Op::FLAT_LOAD_DWORDX2:
      case Gcn3Op::DS_READ_B64:
      case Gcn3Op::V_RCP_F64:
      case Gcn3Op::V_SQRT_F64:
      case Gcn3Op::V_CVT_F64_F32:
      case Gcn3Op::V_CVT_F64_U32:
      case Gcn3Op::V_ADD_F64:
      case Gcn3Op::V_MUL_F64:
      case Gcn3Op::V_FMA_F64:
      case Gcn3Op::V_MIN_F64:
      case Gcn3Op::V_MAX_F64:
      case Gcn3Op::V_DIV_SCALE_F64:
      case Gcn3Op::V_DIV_FMAS_F64:
      case Gcn3Op::V_DIV_FIXUP_F64:
        return 2;
      case Gcn3Op::S_LOAD_DWORDX4:
        return 4;
      default:
        return 1;
    }
}

bool
Gcn3Inst::isWide(unsigned src_idx) const
{
    switch (opc) {
      case Gcn3Op::S_MOV_B64:
      case Gcn3Op::S_AND_B64:
      case Gcn3Op::S_OR_B64:
      case Gcn3Op::S_XOR_B64:
      case Gcn3Op::S_ANDN2_B64:
      case Gcn3Op::S_AND_SAVEEXEC_B64:
      case Gcn3Op::S_OR_SAVEEXEC_B64:
      case Gcn3Op::V_CVT_F32_F64:
      case Gcn3Op::V_CVT_U32_F64:
      case Gcn3Op::V_ADD_F64:
      case Gcn3Op::V_MUL_F64:
      case Gcn3Op::V_FMA_F64:
      case Gcn3Op::V_MIN_F64:
      case Gcn3Op::V_MAX_F64:
      case Gcn3Op::V_DIV_SCALE_F64:
      case Gcn3Op::V_DIV_FMAS_F64:
      case Gcn3Op::V_DIV_FIXUP_F64:
      case Gcn3Op::V_RCP_F64:
      case Gcn3Op::V_SQRT_F64:
      case Gcn3Op::V_CMP_EQ_F64:
      case Gcn3Op::V_CMP_NE_F64:
      case Gcn3Op::V_CMP_LT_F64:
      case Gcn3Op::V_CMP_LE_F64:
      case Gcn3Op::V_CMP_GT_F64:
      case Gcn3Op::V_CMP_GE_F64:
        return true;
      case Gcn3Op::S_LOAD_DWORD:
      case Gcn3Op::S_LOAD_DWORDX2:
      case Gcn3Op::S_LOAD_DWORDX4:
        return src_idx == 0; // sbase pair
      case Gcn3Op::FLAT_LOAD_DWORD:
      case Gcn3Op::FLAT_LOAD_DWORDX2:
      case Gcn3Op::FLAT_STORE_DWORD:
      case Gcn3Op::FLAT_ATOMIC_ADD:
        return src_idx == 0; // 64-bit address pair
      case Gcn3Op::FLAT_STORE_DWORDX2:
        return true;         // address pair and 64-bit data
      case Gcn3Op::DS_WRITE_B64:
        return src_idx == 1; // data operand
      default:
        return false;
    }
}

void
Gcn3Inst::finalizeOperands()
{
    using arch::RegClass;

    if (dst.valid()) {
        RegClass cls = dst.kind == Dst::Kind::Vgpr ? RegClass::Vector
                                                   : RegClass::Scalar;
        addOp(cls, dst.reg, uint8_t(dstWidth()), true);
    }
    for (unsigned i = 0; i < 3; ++i) {
        const Src &s = srcs[i];
        if (s.kind == Src::Kind::Vgpr) {
            addOp(RegClass::Vector, s.reg, isWide(i) ? 2 : 1, false);
        } else if (s.kind == Src::Kind::Sgpr) {
            addOp(RegClass::Scalar, s.reg, isWide(i) ? 2 : 1, false);
        }
    }

    // Implicit VCC / EXEC operands.
    switch (opc) {
      case Gcn3Op::V_CMP_EQ_U32: case Gcn3Op::V_CMP_NE_U32:
      case Gcn3Op::V_CMP_LT_U32: case Gcn3Op::V_CMP_LE_U32:
      case Gcn3Op::V_CMP_GT_U32: case Gcn3Op::V_CMP_GE_U32:
      case Gcn3Op::V_CMP_EQ_I32: case Gcn3Op::V_CMP_NE_I32:
      case Gcn3Op::V_CMP_LT_I32: case Gcn3Op::V_CMP_LE_I32:
      case Gcn3Op::V_CMP_GT_I32: case Gcn3Op::V_CMP_GE_I32:
      case Gcn3Op::V_CMP_EQ_F32: case Gcn3Op::V_CMP_NE_F32:
      case Gcn3Op::V_CMP_LT_F32: case Gcn3Op::V_CMP_LE_F32:
      case Gcn3Op::V_CMP_GT_F32: case Gcn3Op::V_CMP_GE_F32:
      case Gcn3Op::V_CMP_EQ_F64: case Gcn3Op::V_CMP_NE_F64:
      case Gcn3Op::V_CMP_LT_F64: case Gcn3Op::V_CMP_LE_F64:
      case Gcn3Op::V_CMP_GT_F64: case Gcn3Op::V_CMP_GE_F64:
      case Gcn3Op::V_ADD_U32: case Gcn3Op::V_SUB_U32:
      case Gcn3Op::V_DIV_SCALE_F32: case Gcn3Op::V_DIV_SCALE_F64:
        addOp(RegClass::Scalar, arch::RegVccLo, 2, true);
        break;
      case Gcn3Op::V_CNDMASK_B32:
      case Gcn3Op::V_DIV_FMAS_F32:
      case Gcn3Op::V_DIV_FMAS_F64:
        addOp(RegClass::Scalar, arch::RegVccLo, 2, false);
        break;
      case Gcn3Op::V_ADDC_U32:
      case Gcn3Op::V_SUBB_U32:
        addOp(RegClass::Scalar, arch::RegVccLo, 2, false);
        addOp(RegClass::Scalar, arch::RegVccLo, 2, true);
        break;
      case Gcn3Op::S_AND_SAVEEXEC_B64:
      case Gcn3Op::S_OR_SAVEEXEC_B64:
        addOp(RegClass::Scalar, arch::RegExecLo, 2, false);
        addOp(RegClass::Scalar, arch::RegExecLo, 2, true);
        break;
      case Gcn3Op::S_CBRANCH_VCCZ:
      case Gcn3Op::S_CBRANCH_VCCNZ:
        addOp(RegClass::Scalar, arch::RegVccLo, 2, false);
        break;
      case Gcn3Op::S_CBRANCH_EXECZ:
      case Gcn3Op::S_CBRANCH_EXECNZ:
        addOp(RegClass::Scalar, arch::RegExecLo, 2, false);
        break;
      case Gcn3Op::V_MAC_F32:
        // Multiply-accumulate reads its destination.
        addOp(RegClass::Vector, dst.reg, 1, false);
        break;
      default:
        break;
    }
}

unsigned
Gcn3Inst::sizeBytes() const
{
    unsigned size = formatBytes(format());
    // VOP2 only admits a scalar/constant operand in src0; mixed forms
    // (an SGPR in src1, or SGPR + constant combinations) need the
    // 64-bit VOP3 encoding.
    if (format() == Format::VOP2) {
        bool nonvec1 = srcs[1].valid() &&
                       srcs[1].kind != Src::Kind::Vgpr;
        bool sgpr_any = srcs[0].kind == Src::Kind::Sgpr ||
                        srcs[1].kind == Src::Kind::Sgpr;
        if (nonvec1 && sgpr_any)
            size = 8;
    }
    for (const auto &s : srcs)
        if (s.isLiteral())
            size += 4;
    return size;
}

arch::FuType
Gcn3Inst::fuType() const
{
    switch (format()) {
      case Format::SOP1:
      case Format::SOP2:
      case Format::SOPC:
      case Format::SOPK:
        return arch::FuType::SAlu;
      case Format::SOPP:
        switch (opc) {
          case Gcn3Op::S_BRANCH:
          case Gcn3Op::S_CBRANCH_SCC0:
          case Gcn3Op::S_CBRANCH_SCC1:
          case Gcn3Op::S_CBRANCH_VCCZ:
          case Gcn3Op::S_CBRANCH_VCCNZ:
          case Gcn3Op::S_CBRANCH_EXECZ:
          case Gcn3Op::S_CBRANCH_EXECNZ:
            return arch::FuType::Branch;
          default:
            return arch::FuType::Special;
        }
      case Format::SMEM:
        return arch::FuType::SMem;
      case Format::VOP1:
      case Format::VOP2:
      case Format::VOPC:
      case Format::VOP3:
        return arch::FuType::VAlu;
      case Format::FLAT:
        return arch::FuType::VMem;
      case Format::DS:
        return arch::FuType::Lds;
    }
    return arch::FuType::Special;
}

// ---------------------------------------------------------------------
// Factories
// ---------------------------------------------------------------------

Gcn3Inst *
Gcn3Inst::sop1(Gcn3Op op, Dst dst, Src src)
{
    auto *i = new Gcn3Inst(op);
    i->dst = dst;
    i->srcs[0] = src;
    i->setFlags(arch::IsScalarOp);
    i->finalizeOperands();
    return i;
}

Gcn3Inst *
Gcn3Inst::sop2(Gcn3Op op, Dst dst, Src s0, Src s1)
{
    auto *i = new Gcn3Inst(op);
    i->dst = dst;
    i->srcs[0] = s0;
    i->srcs[1] = s1;
    i->setFlags(arch::IsScalarOp);
    i->finalizeOperands();
    return i;
}

Gcn3Inst *
Gcn3Inst::sopc(Gcn3Op op, Src s0, Src s1)
{
    auto *i = new Gcn3Inst(op);
    i->srcs[0] = s0;
    i->srcs[1] = s1;
    i->setFlags(arch::IsScalarOp);
    i->finalizeOperands();
    return i;
}

Gcn3Inst *
Gcn3Inst::sopk(Gcn3Op op, Dst dst, int16_t k)
{
    auto *i = new Gcn3Inst(op);
    i->dst = dst;
    i->simm = uint32_t(int32_t(k));
    i->setFlags(arch::IsScalarOp);
    i->finalizeOperands();
    return i;
}

Gcn3Inst *
Gcn3Inst::sopp(Gcn3Op op, uint32_t imm)
{
    auto *i = new Gcn3Inst(op);
    i->simm = imm;
    i->setFlags(arch::IsScalarOp);
    switch (op) {
      case Gcn3Op::S_ENDPGM: i->setFlags(arch::IsEndPgm); break;
      case Gcn3Op::S_BARRIER: i->setFlags(arch::IsBarrier); break;
      case Gcn3Op::S_NOP: i->setFlags(arch::IsNop); break;
      case Gcn3Op::S_WAITCNT: i->setFlags(arch::IsWaitcnt); break;
      default: break;
    }
    i->finalizeOperands();
    return i;
}

Gcn3Inst *
Gcn3Inst::branch(Gcn3Op op, size_t target_index)
{
    auto *i = new Gcn3Inst(op);
    i->targetIdx = target_index;
    i->setFlags(arch::IsBranch | arch::IsScalarOp);
    i->finalizeOperands();
    return i;
}

Gcn3Inst *
Gcn3Inst::waitcnt(int vm, int lgkm)
{
    unsigned v = vm < 0 ? 64 : unsigned(vm);
    unsigned l = lgkm < 0 ? 64 : unsigned(lgkm);
    return sopp(Gcn3Op::S_WAITCNT, (l << 8) | v);
}

Gcn3Inst *
Gcn3Inst::smem(Gcn3Op op, Dst dst, unsigned sbase, uint32_t offset)
{
    auto *i = new Gcn3Inst(op);
    i->dst = dst;
    i->srcs[0] = Src::sgpr(sbase);
    i->simm = offset;
    i->setFlags(arch::IsScalarOp | arch::IsMemory | arch::IsLoad);
    i->finalizeOperands();
    return i;
}

Gcn3Inst *
Gcn3Inst::vop1(Gcn3Op op, Dst dst, Src src)
{
    auto *i = new Gcn3Inst(op);
    i->dst = dst;
    i->srcs[0] = src;
    switch (op) {
      case Gcn3Op::V_RCP_F32: case Gcn3Op::V_RCP_F64:
      case Gcn3Op::V_SQRT_F32: case Gcn3Op::V_SQRT_F64:
        i->setFlags(arch::IsTrans);
        break;
      default:
        break;
    }
    if (op == Gcn3Op::V_RCP_F64 || op == Gcn3Op::V_SQRT_F64 ||
        op == Gcn3Op::V_CVT_F64_F32 || op == Gcn3Op::V_CVT_F64_U32 ||
        op == Gcn3Op::V_CVT_F32_F64 || op == Gcn3Op::V_CVT_U32_F64)
        i->setFlags(arch::IsF64);
    i->finalizeOperands();
    return i;
}

Gcn3Inst *
Gcn3Inst::vop2(Gcn3Op op, Dst dst, Src s0, Src s1)
{
    auto *i = new Gcn3Inst(op);
    i->dst = dst;
    i->srcs[0] = s0;
    i->srcs[1] = s1;
    if (op == Gcn3Op::V_CNDMASK_B32)
        i->setFlags(arch::IsCondMove);
    i->finalizeOperands();
    return i;
}

Gcn3Inst *
Gcn3Inst::vop3(Gcn3Op op, Dst dst, Src s0, Src s1, Src s2,
               uint8_t neg_mask)
{
    auto *i = new Gcn3Inst(op);
    i->dst = dst;
    i->srcs[0] = s0;
    i->srcs[1] = s1;
    i->srcs[2] = s2;
    i->negMask = neg_mask;
    switch (op) {
      case Gcn3Op::V_ADD_F64: case Gcn3Op::V_MUL_F64:
      case Gcn3Op::V_FMA_F64: case Gcn3Op::V_MIN_F64:
      case Gcn3Op::V_MAX_F64: case Gcn3Op::V_DIV_SCALE_F64:
      case Gcn3Op::V_DIV_FMAS_F64: case Gcn3Op::V_DIV_FIXUP_F64:
        i->setFlags(arch::IsF64);
        break;
      default:
        break;
    }
    i->finalizeOperands();
    return i;
}

Gcn3Inst *
Gcn3Inst::vcmp(Gcn3Op op, Src s0, Src s1)
{
    auto *i = new Gcn3Inst(op);
    i->srcs[0] = s0;
    i->srcs[1] = s1;
    switch (op) {
      case Gcn3Op::V_CMP_EQ_F64: case Gcn3Op::V_CMP_NE_F64:
      case Gcn3Op::V_CMP_LT_F64: case Gcn3Op::V_CMP_LE_F64:
      case Gcn3Op::V_CMP_GT_F64: case Gcn3Op::V_CMP_GE_F64:
        i->setFlags(arch::IsF64);
        break;
      default:
        break;
    }
    i->finalizeOperands();
    return i;
}

Gcn3Inst *
Gcn3Inst::flat(Gcn3Op op, Dst dst, unsigned addr_vgpr, unsigned data_vgpr)
{
    auto *i = new Gcn3Inst(op);
    i->setFlags(arch::IsMemory);
    bool is_store = op == Gcn3Op::FLAT_STORE_DWORD ||
                    op == Gcn3Op::FLAT_STORE_DWORDX2;
    bool is_atomic = op == Gcn3Op::FLAT_ATOMIC_ADD;
    i->dst = dst;
    i->srcs[0] = Src::vgpr(addr_vgpr); // 64-bit address pair
    if (is_store || is_atomic)
        i->srcs[1] = Src::vgpr(data_vgpr);
    if (is_store)
        i->setFlags(arch::IsStore);
    else if (is_atomic)
        i->setFlags(arch::IsLoad | arch::IsStore | arch::IsAtomic);
    else
        i->setFlags(arch::IsLoad);
    i->finalizeOperands();
    return i;
}

Gcn3Inst *
Gcn3Inst::ds(Gcn3Op op, Dst dst, unsigned addr_vgpr, unsigned data_vgpr,
             uint32_t offset)
{
    auto *i = new Gcn3Inst(op);
    i->setFlags(arch::IsMemory);
    bool is_store = op == Gcn3Op::DS_WRITE_B32 ||
                    op == Gcn3Op::DS_WRITE_B64;
    i->dst = dst;
    i->srcs[0] = Src::vgpr(addr_vgpr);
    if (is_store)
        i->srcs[1] = Src::vgpr(data_vgpr);
    i->simm = offset;
    i->setFlags(is_store ? arch::IsStore : arch::IsLoad);
    i->finalizeOperands();
    return i;
}

// ---------------------------------------------------------------------
// Source reads
// ---------------------------------------------------------------------

uint32_t
Gcn3Inst::readSrc32(const arch::WfState &wf, unsigned i,
                    unsigned lane) const
{
    const Src &s = srcs[i];
    uint32_t v = 0;
    switch (s.kind) {
      case Src::Kind::Vgpr: v = wf.readVreg(s.reg, lane); break;
      case Src::Kind::Sgpr: v = wf.readSgpr(s.reg); break;
      case Src::Kind::InlineConst:
      case Src::Kind::Literal: v = s.value; break;
      case Src::Kind::InlineConstF64: v = 0; break; // low dword is zero
      case Src::Kind::None: break;
    }
    if (negMask & (1u << i))
        v ^= 0x80000000u; // float negate modifier
    return v;
}

uint64_t
Gcn3Inst::readSrc64(const arch::WfState &wf, unsigned i,
                    unsigned lane) const
{
    const Src &s = srcs[i];
    uint64_t v = 0;
    switch (s.kind) {
      case Src::Kind::Vgpr: v = wf.readVreg64(s.reg, lane); break;
      case Src::Kind::Sgpr: v = wf.readSgpr64(s.reg); break;
      case Src::Kind::InlineConst:
      case Src::Kind::Literal:
        v = uint64_t(int64_t(int32_t(s.value)));
        break;
      case Src::Kind::InlineConstF64:
        v = uint64_t(s.value) << 32;
        break;
      case Src::Kind::None: break;
    }
    if (negMask & (1u << i))
        v ^= 0x8000000000000000ull; // float negate modifier
    return v;
}

// ---------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------

void
Gcn3Inst::executeSalu(arch::WfState &wf) const
{
    auto wr32 = [&](uint32_t v) { wf.writeSgpr(dst.reg, v); };
    auto wr64 = [&](uint64_t v) { wf.writeSgpr64(dst.reg, v); };
    uint32_t a = readSrc32(wf, 0, 0);
    uint32_t b = readSrc32(wf, 1, 0);
    // 64-bit views must be lazy: reading reg+1 for a 32-bit operand at
    // the top of the register file would run off the end.
    auto a64 = [&] { return readSrc64(wf, 0, 0); };
    auto b64 = [&] { return readSrc64(wf, 1, 0); };

    switch (opc) {
      case Gcn3Op::S_MOV_B32: wr32(a); break;
      case Gcn3Op::S_MOV_B64: wr64(a64()); break;
      case Gcn3Op::S_NOT_B32: wr32(~a); wf.scc = ~a != 0; break;
      case Gcn3Op::S_AND_SAVEEXEC_B64: {
        uint64_t old = wf.exec;
        wf.exec = a64() & old;
        wr64(old);
        wf.scc = wf.exec != 0;
        break;
      }
      case Gcn3Op::S_OR_SAVEEXEC_B64: {
        uint64_t old = wf.exec;
        wf.exec = a64() | old;
        wr64(old);
        wf.scc = wf.exec != 0;
        break;
      }
      case Gcn3Op::S_ADD_U32: {
        uint64_t r = uint64_t(a) + b;
        wr32(uint32_t(r));
        wf.scc = r >> 32;
        break;
      }
      case Gcn3Op::S_ADDC_U32: {
        uint64_t r = uint64_t(a) + b + (wf.scc ? 1 : 0);
        wr32(uint32_t(r));
        wf.scc = r >> 32;
        break;
      }
      case Gcn3Op::S_SUB_U32:
        wf.scc = b > a;
        wr32(a - b);
        break;
      case Gcn3Op::S_MUL_I32:
        wr32(uint32_t(int32_t(a) * int32_t(b)));
        break;
      case Gcn3Op::S_LSHL_B32: {
        uint32_t r = a << (b & 31);
        wr32(r);
        wf.scc = r != 0;
        break;
      }
      case Gcn3Op::S_LSHR_B32: {
        uint32_t r = a >> (b & 31);
        wr32(r);
        wf.scc = r != 0;
        break;
      }
      case Gcn3Op::S_ASHR_I32: {
        uint32_t r = uint32_t(int32_t(a) >> (b & 31));
        wr32(r);
        wf.scc = r != 0;
        break;
      }
      case Gcn3Op::S_MIN_U32:
        wf.scc = a < b;
        wr32(std::min(a, b));
        break;
      case Gcn3Op::S_MAX_U32:
        wf.scc = a > b;
        wr32(std::max(a, b));
        break;
      case Gcn3Op::S_AND_B32: { uint32_t r = a & b; wr32(r);
        wf.scc = r != 0; break; }
      case Gcn3Op::S_OR_B32: { uint32_t r = a | b; wr32(r);
        wf.scc = r != 0; break; }
      case Gcn3Op::S_XOR_B32: { uint32_t r = a ^ b; wr32(r);
        wf.scc = r != 0; break; }
      case Gcn3Op::S_AND_B64: { uint64_t r = a64() & b64(); wr64(r);
        wf.scc = r != 0; break; }
      case Gcn3Op::S_OR_B64: { uint64_t r = a64() | b64(); wr64(r);
        wf.scc = r != 0; break; }
      case Gcn3Op::S_XOR_B64: { uint64_t r = a64() ^ b64(); wr64(r);
        wf.scc = r != 0; break; }
      case Gcn3Op::S_ANDN2_B64: { uint64_t r = a64() & ~b64(); wr64(r);
        wf.scc = r != 0; break; }
      case Gcn3Op::S_BFE_U32: {
        // src1 packs offset in [4:0] and width in [22:16].
        unsigned off = b & 31;
        unsigned width = (b >> 16) & 0x7f;
        uint32_t mask = width >= 32 ? 0xffffffffu
                                    : ((width == 0) ? 0 : (1u << width) - 1);
        uint32_t r = (a >> off) & mask;
        wr32(r);
        wf.scc = r != 0;
        break;
      }
      case Gcn3Op::S_CSELECT_B32:
        wr32(wf.scc ? a : b);
        break;
      case Gcn3Op::S_CMP_EQ_U32: wf.scc = a == b; break;
      case Gcn3Op::S_CMP_LG_U32: wf.scc = a != b; break;
      case Gcn3Op::S_CMP_LT_U32: wf.scc = a < b; break;
      case Gcn3Op::S_CMP_LE_U32: wf.scc = a <= b; break;
      case Gcn3Op::S_CMP_GT_U32: wf.scc = a > b; break;
      case Gcn3Op::S_CMP_GE_U32: wf.scc = a >= b; break;
      case Gcn3Op::S_CMP_EQ_I32: wf.scc = int32_t(a) == int32_t(b); break;
      case Gcn3Op::S_CMP_LG_I32: wf.scc = int32_t(a) != int32_t(b); break;
      case Gcn3Op::S_CMP_LT_I32: wf.scc = int32_t(a) < int32_t(b); break;
      case Gcn3Op::S_CMP_LE_I32: wf.scc = int32_t(a) <= int32_t(b); break;
      case Gcn3Op::S_CMP_GT_I32: wf.scc = int32_t(a) > int32_t(b); break;
      case Gcn3Op::S_CMP_GE_I32: wf.scc = int32_t(a) >= int32_t(b); break;
      case Gcn3Op::S_MOVK_I32:
        wr32(uint32_t(int32_t(int16_t(simm))));
        break;
      case Gcn3Op::S_ADDK_I32:
        wr32(uint32_t(int32_t(wf.readSgpr(dst.reg)) +
                      int32_t(int16_t(simm))));
        break;
      case Gcn3Op::S_MULK_I32:
        wr32(uint32_t(int32_t(wf.readSgpr(dst.reg)) *
                      int32_t(int16_t(simm))));
        break;
      case Gcn3Op::S_CMPK_EQ_U32:
        wf.scc = wf.readSgpr(dst.reg) == uint32_t(uint16_t(simm));
        break;
      case Gcn3Op::S_CMPK_LT_U32:
        wf.scc = wf.readSgpr(dst.reg) < uint32_t(uint16_t(simm));
        break;
      default:
        panic("unhandled SALU op %s", opName(opc));
    }
}

void
Gcn3Inst::executeValu(arch::WfState &wf) const
{
    using hsail::Opcode;
    const IlTwin t = ilTwin(opc);
    if (!t.valid()) {
        executeOwnValu(wf);
        return;
    }
    // The IL's reference lane semantics on GCN3's resolved operands,
    // read at the IL source type and zero-extended.
    const bool wide = hsail::typeRegs(t.op == Opcode::Cvt ? t.srcType
                                                          : t.type) == 2;
    const bool wide_dst = hsail::typeRegs(t.type) == 2;
    uint64_t vcc = 0;
    for (uint64_t rest = wf.exec; rest; rest &= rest - 1) {
        const unsigned lane = unsigned(std::countr_zero(rest));
        uint64_t s[3] = {};
        for (unsigned i = 0; i < hsail::aluArity(t.op); ++i) {
            if (t.src[i] == IlTwin::DstRow)
                s[i] = wide_dst ? wf.readVreg64(dst.reg, lane)
                                : wf.readVreg(dst.reg, lane);
            else
                s[i] = wide ? readSrc64(wf, t.src[i], lane)
                            : readSrc32(wf, t.src[i], lane);
        }
        if (t.op == Opcode::Cmp) {
            if (hsail::laneCompare(t.cmp, t.type, s[0], s[1]))
                vcc |= 1ull << lane;
            continue;
        }
        const uint64_t r =
            t.op == Opcode::Cvt
                ? hsail::laneCvt(t.type, t.srcType, s[0])
                : hsail::laneValue(t.op, t.type, t.cmp, s[0], s[1], s[2]);
        if (wide_dst)
            wf.writeVreg64(dst.reg, lane, r);
        else
            wf.writeVreg(dst.reg, lane, uint32_t(r));
    }
    if (t.op == Opcode::Cmp)
        wf.vcc = vcc; // inactive lanes read 0
}

void
Gcn3Inst::executeSmem(arch::WfState &wf) const
{
    // One read of every dword; they land in consecutive SGPRs.
    const unsigned dwords = dstWidth();
    uint32_t v[4] = {};
    arch::uniformLoad(wf, arch::MemAccess::Kind::ScalarLoad,
                      wf.readSgpr64(srcs[0].reg) + simm, 4 * dwords, v);
    for (unsigned d = 0; d < dwords; ++d)
        wf.writeSgpr(dst.reg + d, v[d]);
}

void
Gcn3Inst::executeFlat(arch::WfState &wf) const
{
    const unsigned dwords =
        (opc == Gcn3Op::FLAT_LOAD_DWORDX2 ||
         opc == Gcn3Op::FLAT_STORE_DWORDX2) ? 2 : 1;
    arch::laneMemory(
        wf,
        {arch::LaneMem::opOf(*this), false, 4 * dwords, srcs[1].reg,
         dst.valid() ? dst.reg : arch::LaneMem::NoReg},
        [&](unsigned lane) { return wf.readVreg64(srcs[0].reg, lane); });
}

void
Gcn3Inst::executeDs(arch::WfState &wf) const
{
    const unsigned dwords =
        (opc == Gcn3Op::DS_READ_B64 || opc == Gcn3Op::DS_WRITE_B64) ? 2
                                                                    : 1;
    arch::laneMemory(
        wf,
        {arch::LaneMem::opOf(*this), true, 4 * dwords, srcs[1].reg,
         dst.reg},
        [&](unsigned lane) {
            return Addr(wf.readVreg(srcs[0].reg, lane)) + simm;
        });
}

void
Gcn3Inst::executeSopp(arch::WfState &wf) const
{
    Addr fallthrough = wf.pc + sizeBytes();
    switch (opc) {
      case Gcn3Op::S_NOP:
      case Gcn3Op::S_WAITCNT:
        break;
      case Gcn3Op::S_ENDPGM:
        wf.done = true;
        break;
      case Gcn3Op::S_BARRIER:
        wf.atBarrier = true;
        break;
      case Gcn3Op::S_BRANCH:
        wf.nextPc = targetOff;
        return;
      case Gcn3Op::S_CBRANCH_SCC0:
        wf.nextPc = !wf.scc ? targetOff : fallthrough;
        return;
      case Gcn3Op::S_CBRANCH_SCC1:
        wf.nextPc = wf.scc ? targetOff : fallthrough;
        return;
      case Gcn3Op::S_CBRANCH_VCCZ:
        wf.nextPc = wf.vcc == 0 ? targetOff : fallthrough;
        return;
      case Gcn3Op::S_CBRANCH_VCCNZ:
        wf.nextPc = wf.vcc != 0 ? targetOff : fallthrough;
        return;
      case Gcn3Op::S_CBRANCH_EXECZ:
        wf.nextPc = wf.exec == 0 ? targetOff : fallthrough;
        return;
      case Gcn3Op::S_CBRANCH_EXECNZ:
        wf.nextPc = wf.exec != 0 ? targetOff : fallthrough;
        return;
      default:
        panic("unhandled SOPP op %s", opName(opc));
    }
    wf.nextPc = fallthrough;
}

void
Gcn3Inst::execute(arch::WfState &wf) const
{
    wf.nextPc = wf.pc + sizeBytes();
    switch (format()) {
      case Format::SOP1:
      case Format::SOP2:
      case Format::SOPC:
      case Format::SOPK:
        executeSalu(wf);
        return;
      case Format::SOPP:
        executeSopp(wf);
        return;
      case Format::SMEM:
        executeSmem(wf);
        return;
      case Format::VOPC:
      case Format::VOP1:
      case Format::VOP2:
      case Format::VOP3:
        executeValu(wf);
        return;
      case Format::FLAT:
        executeFlat(wf);
        return;
      case Format::DS:
        executeDs(wf);
        return;
    }
}

std::string
Gcn3Inst::disassemble() const
{
    std::ostringstream os;
    std::string name = opName(opc);
    std::transform(name.begin(), name.end(), name.begin(),
                   [](unsigned char ch) { return std::tolower(ch); });
    os << name;

    auto sregName = [](unsigned r, unsigned w) {
        std::ostringstream s;
        if (r == arch::RegVccLo)
            s << "vcc";
        else if (r == arch::RegExecLo)
            s << "exec";
        else if (w == 2)
            s << "s[" << r << ":" << r + 1 << "]";
        else if (w == 4)
            s << "s[" << r << ":" << r + 3 << "]";
        else
            s << "s" << r;
        return s.str();
    };
    auto vregName = [](unsigned r, unsigned w) {
        std::ostringstream s;
        if (w >= 2)
            s << "v[" << r << ":" << r + w - 1 << "]";
        else
            s << "v" << r;
        return s.str();
    };
    auto srcName = [&](unsigned i) {
        const Src &s = srcs[i];
        std::ostringstream t;
        switch (s.kind) {
          case Src::Kind::Vgpr:
            t << vregName(s.reg, isWide(i) ? 2 : 1);
            break;
          case Src::Kind::Sgpr:
            t << sregName(s.reg, isWide(i) ? 2 : 1);
            break;
          case Src::Kind::InlineConst:
          case Src::Kind::Literal:
            t << "0x" << std::hex << s.value;
            break;
          case Src::Kind::InlineConstF64:
            t << __builtin_bit_cast(double, uint64_t(s.value) << 32);
            break;
          case Src::Kind::None:
            break;
        }
        return t.str();
    };

    bool first = true;
    auto sep = [&]() -> std::ostream & {
        os << (first ? " " : ", ");
        first = false;
        return os;
    };

    if (opc == Gcn3Op::S_WAITCNT) {
        os << " vmcnt(" << vmThreshold() << ") lgkmcnt("
           << lgkmThreshold() << ")";
        return os.str();
    }
    if (is(arch::IsBranch)) {
        os << " @" << targetIdx;
        return os.str();
    }
    if (format() == Format::SMEM) {
        sep() << sregName(dst.reg, dstWidth());
        sep() << sregName(srcs[0].reg, 2);
        sep() << "0x" << std::hex << simm;
        return os.str();
    }

    if (dst.valid()) {
        if (dst.kind == Dst::Kind::Vgpr)
            sep() << vregName(dst.reg, dstWidth());
        else
            sep() << sregName(dst.reg, dstWidth());
    } else if (format() == Format::VOPC) {
        sep() << "vcc";
    }
    for (unsigned i = 0; i < 3; ++i)
        if (srcs[i].valid())
            sep() << srcName(i);
    if (format() == Format::DS)
        sep() << "offset:" << simm;
    return os.str();
}

void
resolveBranchTargets(arch::KernelCode &code)
{
    panic_if(code.isa() != IsaKind::GCN3, "expected a GCN3 kernel");
    for (size_t i = 0; i < code.numInsts(); ++i) {
        auto &inst = const_cast<Gcn3Inst &>(
            static_cast<const Gcn3Inst &>(code.inst(i)));
        if (inst.is(arch::IsBranch))
            inst.setTargetOffset(code.offsetOf(inst.targetIndex()));
    }
}

} // namespace last::gcn3
