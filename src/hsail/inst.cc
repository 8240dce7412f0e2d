#include "hsail/inst.hh"

#include <bit>
#include <sstream>

#include "arch/kernel_code.hh"
#include "common/logging.hh"
#include "hsail/lane_ops.hh"

namespace last::hsail
{

const char *
opcodeName(Opcode op)
{
    switch (op) {
      case Opcode::Add: return "add";
      case Opcode::Sub: return "sub";
      case Opcode::Mul: return "mul";
      case Opcode::MulHi: return "mulhi";
      case Opcode::Mad: return "mad";
      case Opcode::Div: return "div";
      case Opcode::Rem: return "rem";
      case Opcode::Min: return "min";
      case Opcode::Max: return "max";
      case Opcode::Abs: return "abs";
      case Opcode::Neg: return "neg";
      case Opcode::Fma: return "fma";
      case Opcode::Sqrt: return "sqrt";
      case Opcode::And: return "and";
      case Opcode::Or: return "or";
      case Opcode::Xor: return "xor";
      case Opcode::Not: return "not";
      case Opcode::Shl: return "shl";
      case Opcode::Shr: return "shr";
      case Opcode::AShr: return "ashr";
      case Opcode::Bfe: return "bitextract";
      case Opcode::Cmp: return "cmp";
      case Opcode::CMov: return "cmov";
      case Opcode::Mov: return "mov";
      case Opcode::MovImm: return "movimm";
      case Opcode::Cvt: return "cvt";
      case Opcode::Ld: return "ld";
      case Opcode::St: return "st";
      case Opcode::AtomicAdd: return "atomic_add";
      case Opcode::Br: return "br";
      case Opcode::CBr: return "cbr";
      case Opcode::Barrier: return "barrier";
      case Opcode::Ret: return "ret";
      case Opcode::WorkItemAbsId: return "workitemabsid";
      case Opcode::WorkItemId: return "workitemid";
      case Opcode::WorkGroupId: return "workgroupid";
      case Opcode::WorkGroupSize: return "workgroupsize";
      case Opcode::GridSize: return "gridsize";
      case Opcode::Nop: return "nop";
    }
    return "?";
}

const char *
typeName(DataType t)
{
    switch (t) {
      case DataType::B32: return "b32";
      case DataType::U32: return "u32";
      case DataType::S32: return "s32";
      case DataType::F32: return "f32";
      case DataType::U64: return "u64";
      case DataType::F64: return "f64";
    }
    return "?";
}

const char *
segmentName(Segment s)
{
    switch (s) {
      case Segment::Global: return "global";
      case Segment::Readonly: return "readonly";
      case Segment::Kernarg: return "kernarg";
      case Segment::Group: return "group";
      case Segment::Private: return "private";
      case Segment::Spill: return "spill";
      case Segment::Arg: return "arg";
    }
    return "?";
}

const char *
cmpOpName(CmpOp c)
{
    switch (c) {
      case CmpOp::Eq: return "eq";
      case CmpOp::Ne: return "ne";
      case CmpOp::Lt: return "lt";
      case CmpOp::Le: return "le";
      case CmpOp::Gt: return "gt";
      case CmpOp::Ge: return "ge";
    }
    return "?";
}

HsailInst::HsailInst(Opcode op, DataType type)
    : opc(op), dtype(type)
{
}

HsailInst *
HsailInst::alu(Opcode op, DataType t, Reg dst, Reg src0, Reg src1, Reg src2)
{
    auto *i = new HsailInst(op, t);
    i->dstReg = dst;
    i->srcRegs[0] = src0;
    i->srcRegs[1] = src1;
    i->srcRegs[2] = src2;
    if (t == DataType::F64 || t == DataType::U64)
        i->setFlags(arch::IsF64);
    if (op == Opcode::Div || op == Opcode::Sqrt || op == Opcode::Rem)
        i->setFlags(arch::IsTrans);
    i->finalizeOperands();
    return i;
}

HsailInst *
HsailInst::cmp(CmpOp c, DataType t, Reg dst, Reg src0, Reg src1)
{
    auto *i = new HsailInst(Opcode::Cmp, t);
    i->cmpop = c;
    i->dstReg = dst;
    i->srcRegs[0] = src0;
    i->srcRegs[1] = src1;
    i->finalizeOperands();
    return i;
}

HsailInst *
HsailInst::cmov(DataType t, Reg dst, Reg cond, Reg tval, Reg fval)
{
    auto *i = new HsailInst(Opcode::CMov, t);
    i->dstReg = dst;
    i->srcRegs[0] = cond;
    i->srcRegs[1] = tval;
    i->srcRegs[2] = fval;
    i->setFlags(arch::IsCondMove);
    i->finalizeOperands();
    return i;
}

HsailInst *
HsailInst::mov(DataType t, Reg dst, Reg src)
{
    auto *i = new HsailInst(Opcode::Mov, t);
    i->dstReg = dst;
    i->srcRegs[0] = src;
    i->finalizeOperands();
    return i;
}

HsailInst *
HsailInst::movImm(DataType t, Reg dst, uint64_t bits)
{
    auto *i = new HsailInst(Opcode::MovImm, t);
    i->dstReg = dst;
    i->imm = bits;
    i->finalizeOperands();
    return i;
}

HsailInst *
HsailInst::cvt(DataType dst_t, DataType src_t, Reg dst, Reg src)
{
    auto *i = new HsailInst(Opcode::Cvt, dst_t);
    i->srcDtype = src_t;
    i->dstReg = dst;
    i->srcRegs[0] = src;
    i->finalizeOperands();
    return i;
}

HsailInst *
HsailInst::ld(Segment seg, DataType t, Reg dst, Reg addr, int64_t offset)
{
    auto *i = new HsailInst(Opcode::Ld, t);
    i->seg = seg;
    i->dstReg = dst;
    i->srcRegs[0] = addr;
    i->imm = uint64_t(offset);
    i->setFlags(arch::IsMemory | arch::IsLoad);
    i->finalizeOperands();
    return i;
}

HsailInst *
HsailInst::st(Segment seg, DataType t, Reg val, Reg addr, int64_t offset)
{
    auto *i = new HsailInst(Opcode::St, t);
    i->seg = seg;
    i->srcRegs[0] = addr;
    i->srcRegs[1] = val;
    i->imm = uint64_t(offset);
    i->setFlags(arch::IsMemory | arch::IsStore);
    i->finalizeOperands();
    return i;
}

HsailInst *
HsailInst::atomicAdd(DataType t, Reg dst, Reg addr, int64_t offset, Reg val)
{
    auto *i = new HsailInst(Opcode::AtomicAdd, t);
    i->seg = Segment::Global;
    i->dstReg = dst;
    i->srcRegs[0] = addr;
    i->srcRegs[1] = val;
    i->imm = uint64_t(offset);
    i->setFlags(arch::IsMemory | arch::IsLoad | arch::IsStore |
                arch::IsAtomic);
    i->finalizeOperands();
    return i;
}

HsailInst *
HsailInst::br(size_t target_index)
{
    auto *i = new HsailInst(Opcode::Br, DataType::B32);
    i->targetIdx = target_index;
    i->setFlags(arch::IsBranch);
    i->finalizeOperands();
    return i;
}

HsailInst *
HsailInst::cbr(Reg cond, size_t target_index)
{
    auto *i = new HsailInst(Opcode::CBr, DataType::B32);
    i->srcRegs[0] = cond;
    i->targetIdx = target_index;
    i->setFlags(arch::IsBranch);
    i->finalizeOperands();
    return i;
}

HsailInst *
HsailInst::cbrz(Reg cond, size_t target_index)
{
    auto *i = cbr(cond, target_index);
    i->imm = 1;
    return i;
}

HsailInst *
HsailInst::barrier()
{
    auto *i = new HsailInst(Opcode::Barrier, DataType::B32);
    i->setFlags(arch::IsBarrier);
    return i;
}

HsailInst *
HsailInst::ret()
{
    auto *i = new HsailInst(Opcode::Ret, DataType::B32);
    i->setFlags(arch::IsEndPgm);
    return i;
}

HsailInst *
HsailInst::special(Opcode op, Reg dst)
{
    auto *i = new HsailInst(op, DataType::U32);
    i->dstReg = dst;
    i->finalizeOperands();
    return i;
}

HsailInst *
HsailInst::nop()
{
    auto *i = new HsailInst(Opcode::Nop, DataType::B32);
    i->setFlags(arch::IsNop);
    return i;
}

void
HsailInst::clearOperands()
{
    clearOps();
}

void
HsailInst::remapRegs(const std::vector<uint16_t> &remap)
{
    auto fix = [&](Reg &r) {
        if (r.valid())
            r.idx = remap[r.idx];
    };
    fix(dstReg);
    for (auto &s : srcRegs)
        fix(s);
    clearOperands();
    finalizeOperands();
}

void
HsailInst::finalizeOperands()
{
    using arch::RegClass;
    if (dstReg.valid()) {
        addOp(RegClass::Vector, dstReg.idx, uint8_t(resultRegs(opc, dtype)),
              true);
    }
    for (unsigned s = 0; s < 3; ++s) {
        if (!srcRegs[s].valid())
            continue;
        // A value source, st's stored value and atomic_add's addend
        // included, is sourceRegs() wide.
        unsigned w = sourceRegs(opc, dtype, srcDtype, s);
        if (opc == Opcode::CBr)
            w = 1;
        if ((opc == Opcode::Ld || opc == Opcode::St ||
             opc == Opcode::AtomicAdd) && s == 0) {
            // Address operand: 64-bit for flat/global addressing,
            // 32-bit segment-relative offset otherwise.
            w = (seg == Segment::Global || seg == Segment::Readonly) ? 2
                                                                     : 1;
        }
        addOp(RegClass::Vector, srcRegs[s].idx, uint8_t(w), false);
    }
}

arch::FuType
HsailInst::fuType() const
{
    switch (opc) {
      case Opcode::Ld:
      case Opcode::St:
      case Opcode::AtomicAdd:
        return seg == Segment::Group ? arch::FuType::Lds
                                     : arch::FuType::VMem;
      case Opcode::Br:
      case Opcode::CBr:
        return arch::FuType::Branch;
      case Opcode::Barrier:
      case Opcode::Ret:
      case Opcode::Nop:
        return arch::FuType::Special;
      default:
        return arch::FuType::VAlu;
    }
}

uint64_t
HsailInst::laneAlu(const arch::WfState &wf, unsigned lane) const
{
    return laneReference(wf, lane, opc, dtype, srcDtype, cmpop, srcRegs, imm);
}

void
HsailInst::executeAlu(arch::WfState &wf) const
{
    uint64_t mask = wf.activeMask();
    unsigned dst_regs = resultRegs(opc, dtype);
    for (unsigned lane = 0; lane < WavefrontSize; ++lane) {
        if (!(mask & (1ull << lane)))
            continue;
        uint64_t r = laneAlu(wf, lane);
        if (!dstReg.valid())
            continue;
        if (dst_regs == 2)
            wf.writeVreg64(dstReg.idx, lane, r);
        else
            wf.writeVreg(dstReg.idx, lane, uint32_t(r));
    }
}

void
HsailInst::executeMem(arch::WfState &wf) const
{
    // The IL has no ABI: the simulator supplies the kernarg base itself
    // and services the access from functional state.
    ilMemory(wf, *this, arch::MemAccess::Kind::KernargDirect);
}

void
HsailInst::executeBranch(arch::WfState &wf) const
{
    Addr fallthrough = wf.pc + EncodedBytes;
    Addr target = targetOffset();

    if (opc == Opcode::Br) {
        wf.nextPc = target;
        return;
    }

    uint64_t active = wf.activeMask();
    bool if_zero = branchIfZero();
    const uint32_t *cond = wf.vregs[srcRegs[0].idx].data();
    uint64_t taken = 0;
    for (uint64_t rest = active; rest; rest &= rest - 1) {
        unsigned lane = unsigned(std::countr_zero(rest));
        if ((cond[lane] != 0) != if_zero)
            taken |= 1ull << lane;
    }
    uint64_t not_taken = active & ~taken;

    if (taken == 0) {
        wf.nextPc = fallthrough;
    } else if (not_taken == 0) {
        wf.nextPc = target;
    } else {
        // Divergence: the simulator manages it with the reconvergence
        // stack. The current top becomes the reconvergence entry and
        // waits at the immediate post-dominator; both paths are pushed
        // and execute serially.
        panic_if(rpcOff == InvalidAddr,
                 "divergent branch without ipdom analysis");
        wf.rs.back().pc = rpcOff;
        wf.rs.push_back({fallthrough, rpcOff, not_taken});
        wf.rs.push_back({target, rpcOff, taken});
        wf.nextPc = target;
    }
}

void
HsailInst::execute(arch::WfState &wf) const
{
    wf.nextPc = wf.pc + EncodedBytes;
    switch (opc) {
      case Opcode::Ld:
      case Opcode::St:
      case Opcode::AtomicAdd:
        executeMem(wf);
        return;
      case Opcode::Br:
      case Opcode::CBr:
        executeBranch(wf);
        return;
      case Opcode::Barrier:
        wf.atBarrier = true;
        return;
      case Opcode::Ret:
        wf.done = true;
        return;
      case Opcode::Nop:
        return;
      default:
        executeAlu(wf);
        return;
    }
}

std::string
HsailInst::disassemble() const
{
    std::ostringstream os;
    auto reg = [](Reg r, unsigned w) {
        std::ostringstream s;
        if (w == 2)
            s << "$v[" << r.idx << ":" << r.idx + 1 << "]";
        else
            s << "$v" << r.idx;
        return s.str();
    };
    unsigned w = typeRegs(dtype);

    switch (opc) {
      case Opcode::Ld:
      case Opcode::St:
      case Opcode::AtomicAdd: {
        os << opcodeName(opc) << "_" << segmentName(seg) << "_"
           << typeName(dtype) << " ";
        std::string val = opc == Opcode::St ? reg(srcRegs[1], w)
                                            : reg(dstReg, w);
        os << val << ", [";
        if (srcRegs[0].valid()) {
            unsigned aw = (seg == Segment::Global ||
                           seg == Segment::Readonly) ? 2 : 1;
            os << reg(srcRegs[0], aw);
            if (imm)
                os << "+" << int64_t(imm);
        } else {
            os << "%off+" << int64_t(imm);
        }
        os << "]";
        if (opc == Opcode::AtomicAdd)
            os << ", " << reg(srcRegs[1], w);
        return os.str();
      }
      case Opcode::Br:
        os << "br @" << targetIdx;
        return os.str();
      case Opcode::CBr:
        os << (branchIfZero() ? "cbrz " : "cbr ") << reg(srcRegs[0], 1)
           << ", @" << targetIdx;
        return os.str();
      case Opcode::Barrier:
        return "barrier";
      case Opcode::Ret:
        return "ret";
      case Opcode::Nop:
        return "nop";
      case Opcode::Cmp:
        os << "cmp_" << cmpOpName(cmpop) << "_" << typeName(dtype) << " "
           << reg(dstReg, 1) << ", " << reg(srcRegs[0], w) << ", "
           << reg(srcRegs[1], w);
        return os.str();
      case Opcode::MovImm:
        os << "mov_" << typeName(dtype) << " " << reg(dstReg, w) << ", #"
           << imm;
        return os.str();
      case Opcode::Cvt:
        os << "cvt_" << typeName(dtype) << "_" << typeName(srcDtype) << " "
           << reg(dstReg, w) << ", " << reg(srcRegs[0], typeRegs(srcDtype));
        return os.str();
      default: {
        os << opcodeName(opc) << "_" << typeName(dtype);
        if (dstReg.valid())
            os << " " << reg(dstReg, resultRegs(opc, dtype));
        for (unsigned s = 0; s < 3; ++s) {
            if (srcRegs[s].valid())
                os << ", "
                   << reg(srcRegs[s], sourceRegs(opc, dtype, srcDtype, s));
        }
        return os.str();
      }
    }
}

} // namespace last::hsail
