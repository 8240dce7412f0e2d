#include "ptxl/inst.hh"

#include <sstream>

#include "common/logging.hh"
#include "hsail/lane_ops.hh"

namespace last::ptxl
{

const char *
ptxlOpName(PtxlOp op)
{
    switch (op) {
      case PtxlOp::Alu: return "alu";
      case PtxlOp::Isetp: return "ISETP";
      case PtxlOp::Sel: return "SEL";
      case PtxlOp::P2r: return "P2R";
      case PtxlOp::S2r: return "S2R";
      case PtxlOp::Ldg: return "LDG";
      case PtxlOp::Stg: return "STG";
      case PtxlOp::Atom: return "ATOM.ADD";
      case PtxlOp::Lds: return "LDS";
      case PtxlOp::Sts: return "STS";
      case PtxlOp::Ldl: return "LDL";
      case PtxlOp::Stl: return "STL";
      case PtxlOp::Ldc: return "LDC";
      case PtxlOp::Bra: return "BRA";
      case PtxlOp::Bssy: return "BSSY";
      case PtxlOp::Bsync: return "BSYNC";
      case PtxlOp::Bar: return "BAR.SYNC";
      case PtxlOp::Exit: return "EXIT";
      case PtxlOp::Nop: return "NOP";
    }
    return "?";
}

PtxlInst::PtxlInst(PtxlOp op, DataType type)
    : opc(op), dtype(type)
{
}

PtxlInst *
PtxlInst::alu(hsail::Opcode sem, DataType t, Reg dst, Reg src0, Reg src1,
              Reg src2)
{
    auto *i = new PtxlInst(PtxlOp::Alu, t);
    i->sem = sem;
    i->dstReg = dst;
    i->srcRegs[0] = src0;
    i->srcRegs[1] = src1;
    i->srcRegs[2] = src2;
    if (t == DataType::F64 || t == DataType::U64)
        i->setFlags(arch::IsF64);
    if (sem == hsail::Opcode::Div || sem == hsail::Opcode::Sqrt ||
        sem == hsail::Opcode::Rem) {
        i->setFlags(arch::IsTrans);
    }
    i->finalizeOperands();
    return i;
}

PtxlInst *
PtxlInst::movImm(DataType t, Reg dst, uint64_t bits)
{
    auto *i = new PtxlInst(PtxlOp::Alu, t);
    i->sem = hsail::Opcode::MovImm;
    i->dstReg = dst;
    i->imm = bits;
    i->finalizeOperands();
    return i;
}

PtxlInst *
PtxlInst::cvt(DataType dst_t, DataType src_t, Reg dst, Reg src)
{
    auto *i = new PtxlInst(PtxlOp::Alu, dst_t);
    i->sem = hsail::Opcode::Cvt;
    i->srcDtype = src_t;
    i->dstReg = dst;
    i->srcRegs[0] = src;
    i->finalizeOperands();
    return i;
}

PtxlInst *
PtxlInst::isetp(CmpOp c, DataType t, uint8_t pdst, Reg src0, Reg src1)
{
    auto *i = new PtxlInst(PtxlOp::Isetp, t);
    i->cmpop = c;
    i->pdst = pdst;
    i->srcRegs[0] = src0;
    i->srcRegs[1] = src1;
    i->finalizeOperands();
    return i;
}

PtxlInst *
PtxlInst::sel(DataType t, Reg dst, uint8_t psrc, Reg tval, Reg fval)
{
    auto *i = new PtxlInst(PtxlOp::Sel, t);
    i->dstReg = dst;
    i->psrc = psrc;
    i->srcRegs[0] = tval;
    i->srcRegs[1] = fval;
    i->setFlags(arch::IsCondMove);
    i->finalizeOperands();
    return i;
}

PtxlInst *
PtxlInst::p2r(Reg dst, uint8_t psrc)
{
    auto *i = new PtxlInst(PtxlOp::P2r, DataType::U32);
    i->dstReg = dst;
    i->psrc = psrc;
    i->finalizeOperands();
    return i;
}

PtxlInst *
PtxlInst::s2r(hsail::Opcode sem, Reg dst)
{
    auto *i = new PtxlInst(PtxlOp::S2r, DataType::U32);
    i->sem = sem;
    i->dstReg = dst;
    i->finalizeOperands();
    return i;
}

PtxlInst *
PtxlInst::ld(Segment seg, DataType t, Reg dst, Reg addr, int64_t offset)
{
    PtxlOp op;
    switch (seg) {
      case Segment::Global:
      case Segment::Readonly: op = PtxlOp::Ldg; break;
      case Segment::Group: op = PtxlOp::Lds; break;
      case Segment::Private:
      case Segment::Spill: op = PtxlOp::Ldl; break;
      case Segment::Kernarg:
      case Segment::Arg: op = PtxlOp::Ldc; break;
      default: panic("ptxl ld: unhandled segment"); op = PtxlOp::Ldg;
    }
    auto *i = new PtxlInst(op, t);
    i->seg = seg;
    i->dstReg = dst;
    i->srcRegs[0] = addr;
    i->imm = uint64_t(offset);
    i->setFlags(arch::IsMemory | arch::IsLoad);
    i->finalizeOperands();
    return i;
}

PtxlInst *
PtxlInst::st(Segment seg, DataType t, Reg val, Reg addr, int64_t offset)
{
    PtxlOp op;
    switch (seg) {
      case Segment::Global: op = PtxlOp::Stg; break;
      case Segment::Group: op = PtxlOp::Sts; break;
      case Segment::Private:
      case Segment::Spill: op = PtxlOp::Stl; break;
      default: panic("ptxl st: unhandled segment"); op = PtxlOp::Stg;
    }
    auto *i = new PtxlInst(op, t);
    i->seg = seg;
    i->srcRegs[0] = addr;
    i->srcRegs[1] = val;
    i->imm = uint64_t(offset);
    i->setFlags(arch::IsMemory | arch::IsStore);
    i->finalizeOperands();
    return i;
}

PtxlInst *
PtxlInst::atomicAdd(DataType t, Reg dst, Reg addr, int64_t offset, Reg val)
{
    auto *i = new PtxlInst(PtxlOp::Atom, t);
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

PtxlInst *
PtxlInst::bra(size_t target_index)
{
    auto *i = new PtxlInst(PtxlOp::Bra, DataType::B32);
    i->targetIdx = target_index;
    i->setFlags(arch::IsBranch);
    i->finalizeOperands();
    return i;
}

PtxlInst *
PtxlInst::braIf(uint8_t psrc, bool negate, size_t target_index)
{
    auto *i = bra(target_index);
    i->psrc = psrc;
    i->pneg = negate;
    i->clearOps();
    i->finalizeOperands();
    return i;
}

PtxlInst *
PtxlInst::bssy(uint8_t bar_idx)
{
    auto *i = new PtxlInst(PtxlOp::Bssy, DataType::B32);
    i->bar = bar_idx;
    return i;
}

PtxlInst *
PtxlInst::bsync(uint8_t bar_idx)
{
    auto *i = new PtxlInst(PtxlOp::Bsync, DataType::B32);
    i->bar = bar_idx;
    // May redirect control flow (switching to a parked warp split).
    i->setFlags(arch::IsBranch);
    return i;
}

PtxlInst *
PtxlInst::barrier()
{
    auto *i = new PtxlInst(PtxlOp::Bar, DataType::B32);
    i->setFlags(arch::IsBarrier);
    return i;
}

PtxlInst *
PtxlInst::exitProgram()
{
    auto *i = new PtxlInst(PtxlOp::Exit, DataType::B32);
    i->setFlags(arch::IsEndPgm);
    return i;
}

PtxlInst *
PtxlInst::nop()
{
    auto *i = new PtxlInst(PtxlOp::Nop, DataType::B32);
    i->setFlags(arch::IsNop);
    return i;
}

void
PtxlInst::finalizeOperands()
{
    using arch::RegClass;
    unsigned dw = unsigned(typeRegs(dtype));

    switch (opc) {
      case PtxlOp::Alu:
      case PtxlOp::S2r:
      case PtxlOp::P2r:
        if (dstReg.valid())
            addOp(RegClass::Vector, dstReg.idx,
                  uint8_t(hsail::resultRegs(sem, dtype)), true);
        if (psrc != NoPreg)
            addOp(RegClass::Scalar, psrc, 1, false);
        for (unsigned s = 0; s < 3; ++s) {
            if (srcRegs[s].valid())
                addOp(RegClass::Vector, srcRegs[s].idx,
                      uint8_t(hsail::sourceRegs(sem, dtype, srcDtype, s)),
                      false);
        }
        return;
      case PtxlOp::Sel:
        addOp(RegClass::Vector, dstReg.idx, uint8_t(dw), true);
        addOp(RegClass::Scalar, psrc, 1, false);
        for (unsigned s = 0; s < 2; ++s) {
            if (srcRegs[s].valid())
                addOp(RegClass::Vector, srcRegs[s].idx, uint8_t(dw),
                      false);
        }
        return;
      case PtxlOp::Isetp:
        addOp(RegClass::Scalar, pdst, 1, true);
        for (unsigned s = 0; s < 2; ++s) {
            if (srcRegs[s].valid())
                addOp(RegClass::Vector, srcRegs[s].idx, uint8_t(dw),
                      false);
        }
        return;
      case PtxlOp::Ldg:
      case PtxlOp::Stg:
      case PtxlOp::Atom:
      case PtxlOp::Lds:
      case PtxlOp::Sts:
      case PtxlOp::Ldl:
      case PtxlOp::Stl:
      case PtxlOp::Ldc: {
        if (dstReg.valid())
            addOp(RegClass::Vector, dstReg.idx, uint8_t(dw), true);
        if (srcRegs[0].valid()) {
            // Address operand: 64-bit pair for global addressing,
            // 32-bit offset for shared/local.
            unsigned aw =
                (opc == PtxlOp::Ldg || opc == PtxlOp::Stg ||
                 opc == PtxlOp::Atom) ? 2 : 1;
            addOp(RegClass::Vector, srcRegs[0].idx, uint8_t(aw), false);
        }
        if (srcRegs[1].valid())
            addOp(RegClass::Vector, srcRegs[1].idx, uint8_t(dw), false);
        return;
      }
      case PtxlOp::Bra:
        if (psrc != NoPreg)
            addOp(RegClass::Scalar, psrc, 1, false);
        return;
      default:
        return; // Bssy/Bsync/Bar/Exit/Nop: no register operands
    }
}

arch::FuType
PtxlInst::fuType() const
{
    switch (opc) {
      case PtxlOp::Ldg:
      case PtxlOp::Stg:
      case PtxlOp::Atom:
      case PtxlOp::Ldl:
      case PtxlOp::Stl:
        return arch::FuType::VMem;
      case PtxlOp::Lds:
      case PtxlOp::Sts:
        return arch::FuType::Lds;
      case PtxlOp::Ldc:
        return arch::FuType::SMem; // constant cache (scalar D$ analog)
      case PtxlOp::Bra:
      case PtxlOp::Bssy:
      case PtxlOp::Bsync:
        return arch::FuType::Branch;
      case PtxlOp::Bar:
      case PtxlOp::Exit:
      case PtxlOp::Nop:
        return arch::FuType::Special;
      default:
        return arch::FuType::VAlu;
    }
}

uint64_t
PtxlInst::laneAlu(const arch::WfState &wf, unsigned lane) const
{
    // The IL's value semantics (a missing source reads as RZ): machine
    // lowering must not change an IEEE result, or the cross-ISA
    // functional-agreement contract breaks.
    return hsail::laneReference(wf, lane, sem, dtype, srcDtype, cmpop,
                                srcRegs, imm);
}

void
PtxlInst::executeAlu(arch::WfState &wf) const
{
    uint64_t mask = wf.exec;
    unsigned dst_regs = hsail::resultRegs(sem, dtype);

    if (opc == PtxlOp::Sel || opc == PtxlOp::P2r) {
        uint64_t p = wf.pregs[psrc];
        for (unsigned lane = 0; lane < WavefrontSize; ++lane) {
            if (!(mask & (1ull << lane)))
                continue;
            bool bit = (p >> lane) & 1;
            uint64_t r;
            if (opc == PtxlOp::P2r) {
                r = bit ? 1 : 0;
            } else {
                Reg src = bit ? srcRegs[0] : srcRegs[1];
                r = dst_regs == 2 ? wf.readVreg64(src.idx, lane)
                                  : uint64_t(wf.readVreg(src.idx, lane));
            }
            if (dst_regs == 2)
                wf.writeVreg64(dstReg.idx, lane, r);
            else
                wf.writeVreg(dstReg.idx, lane, uint32_t(r));
        }
        return;
    }

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
PtxlInst::executeIsetp(arch::WfState &wf) const
{
    uint64_t mask = wf.exec;
    auto rd = [&](Reg r, unsigned lane) -> uint64_t {
        if (!r.valid())
            return 0; // RZ
        return typeRegs(dtype) == 2 ? wf.readVreg64(r.idx, lane)
                                    : uint64_t(wf.readVreg(r.idx, lane));
    };
    uint64_t result = 0;
    for (unsigned lane = 0; lane < WavefrontSize; ++lane) {
        if (!(mask & (1ull << lane)))
            continue;
        if (hsail::laneCompare(cmpop, dtype, rd(srcRegs[0], lane),
                               rd(srcRegs[1], lane)))
            result |= 1ull << lane;
    }
    // Per-thread predicate: inactive lanes keep their old value.
    wf.pregs[pdst] = (wf.pregs[pdst] & ~mask) | result;
}

void
PtxlInst::executeMem(arch::WfState &wf) const
{
    // Each opcode names its segment's address form (LDG/STG/ATOM the
    // 64-bit pair, LDS/STS the LDS offset, LDL/STL the thread's local
    // window); LDC reads constant bank c[0][imm], the kernel-parameter
    // window the driver bound at launch, through the constant cache.
    hsail::ilMemory(wf, *this, arch::MemAccess::Kind::ScalarLoad);
}

void
PtxlInst::executeBranch(arch::WfState &wf) const
{
    Addr fallthrough = wf.pc + EncodedBytes;
    Addr target = targetOffset();
    uint64_t active = wf.exec;
    uint64_t p = (psrc == NoPreg) ? ~0ull
                                  : (pneg ? ~wf.pregs[psrc]
                                          : wf.pregs[psrc]);
    uint64_t taken = active & p;

    if (taken == 0) {
        wf.nextPc = fallthrough;
    } else if (taken == active) {
        wf.nextPc = target;
    } else {
        // Divergence: the taken lanes are parked on the warp-split
        // stack for the next BSYNC to resume; the fall-through lanes
        // keep executing.
        wf.splits.push_back({target, taken});
        wf.exec = active & ~taken;
        wf.nextPc = fallthrough;
    }
}

void
PtxlInst::executeBsync(arch::WfState &wf) const
{
    wf.cbarArrived[bar] |= wf.exec;
    if (wf.cbarArrived[bar] == wf.cbarExpected[bar]) {
        // Every lane the matching BSSY observed has arrived:
        // reconverge and fall through.
        wf.exec = wf.cbarExpected[bar];
        wf.nextPc = wf.pc + EncodedBytes;
    } else {
        // Lanes still outstanding: switch to the most recently parked
        // warp split (structured code guarantees it leads here).
        panic_if(wf.splits.empty(),
                 "BSYNC B%u with missing arrivals and no parked split "
                 "(unstructured control flow?)", unsigned(bar));
        arch::PtxlSplit s = wf.splits.back();
        wf.splits.pop_back();
        wf.exec = s.mask;
        wf.nextPc = s.pc;
    }
}

void
PtxlInst::execute(arch::WfState &wf) const
{
    wf.nextPc = wf.pc + EncodedBytes;
    switch (opc) {
      case PtxlOp::Alu:
      case PtxlOp::S2r:
      case PtxlOp::Sel:
      case PtxlOp::P2r:
        executeAlu(wf);
        return;
      case PtxlOp::Isetp:
        executeIsetp(wf);
        return;
      case PtxlOp::Ldg:
      case PtxlOp::Stg:
      case PtxlOp::Atom:
      case PtxlOp::Lds:
      case PtxlOp::Sts:
      case PtxlOp::Ldl:
      case PtxlOp::Stl:
      case PtxlOp::Ldc:
        executeMem(wf);
        return;
      case PtxlOp::Bra:
        executeBranch(wf);
        return;
      case PtxlOp::Bssy:
        wf.cbarExpected[bar] = wf.exec;
        wf.cbarArrived[bar] = 0;
        return;
      case PtxlOp::Bsync:
        executeBsync(wf);
        return;
      case PtxlOp::Bar:
        wf.atBarrier = true;
        return;
      case PtxlOp::Exit:
        wf.done = true;
        return;
      case PtxlOp::Nop:
        return;
    }
}

namespace
{

std::string
regName(Reg r, unsigned w)
{
    if (!r.valid())
        return "RZ";
    std::ostringstream s;
    if (w == 2)
        s << "R[" << r.idx << ":" << r.idx + 1 << "]";
    else
        s << "R" << r.idx;
    return s.str();
}

std::string
aluMnemonic(hsail::Opcode sem, DataType t)
{
    using hsail::Opcode;
    bool f32 = t == DataType::F32;
    bool f64 = t == DataType::F64;
    switch (sem) {
      case Opcode::Add: return f32 ? "FADD" : f64 ? "DADD" : "IADD";
      case Opcode::Sub: return f32 ? "FSUB" : f64 ? "DSUB" : "ISUB";
      case Opcode::Mul: return f32 ? "FMUL" : f64 ? "DMUL" : "IMUL";
      case Opcode::MulHi: return "IMUL.HI";
      case Opcode::Mad: return f32 ? "FMAD" : f64 ? "DMAD" : "IMAD";
      case Opcode::Fma: return f32 ? "FFMA" : f64 ? "DFMA" : "IMAD";
      case Opcode::Div: return f32 ? "FDIV" : f64 ? "DDIV" : "IDIV";
      case Opcode::Rem: return "IREM";
      case Opcode::Min: return (f32 || f64) ? "FMNMX.MIN" : "IMNMX.MIN";
      case Opcode::Max: return (f32 || f64) ? "FMNMX.MAX" : "IMNMX.MAX";
      case Opcode::Abs: return (f32 || f64) ? "FABS" : "IABS";
      case Opcode::Neg: return (f32 || f64) ? "FNEG" : "INEG";
      case Opcode::Sqrt: return f64 ? "MUFU.DSQRT" : "MUFU.SQRT";
      case Opcode::And: return "LOP.AND";
      case Opcode::Or: return "LOP.OR";
      case Opcode::Xor: return "LOP.XOR";
      case Opcode::Not: return "LOP.NOT";
      case Opcode::Shl: return "SHL";
      case Opcode::Shr: return "SHR.U32";
      case Opcode::AShr: return "SHR.S32";
      case Opcode::Bfe: return "BFE";
      case Opcode::Mov: return "MOV";
      case Opcode::MovImm: return "MOV32I";
      case Opcode::Cvt: return "CVT";
      case Opcode::WorkItemAbsId: return "SR_GLOBALID";
      case Opcode::WorkItemId: return "SR_TID";
      case Opcode::WorkGroupId: return "SR_CTAID";
      case Opcode::WorkGroupSize: return "SR_NTID";
      case Opcode::GridSize: return "SR_GRIDDIM";
      default: return "?";
    }
}

} // namespace

std::string
PtxlInst::disassemble() const
{
    std::ostringstream os;
    unsigned w = typeRegs(dtype);

    switch (opc) {
      case PtxlOp::Alu: {
        os << aluMnemonic(sem, dtype);
        if (dstReg.valid())
            os << " " << regName(dstReg, hsail::resultRegs(sem, dtype));
        if (sem == hsail::Opcode::MovImm) {
            os << ", #" << imm;
            return os.str();
        }
        for (unsigned s = 0; s < 3; ++s) {
            if (srcRegs[s].valid())
                os << ", "
                   << regName(srcRegs[s],
                              hsail::sourceRegs(sem, dtype, srcDtype, s));
        }
        return os.str();
      }
      case PtxlOp::Isetp:
        os << "ISETP." << hsail::cmpOpName(cmpop) << "."
           << hsail::typeName(dtype) << " P" << unsigned(pdst) << ", "
           << regName(srcRegs[0], w) << ", " << regName(srcRegs[1], w);
        return os.str();
      case PtxlOp::Sel:
        os << "SEL " << regName(dstReg, w) << ", P" << unsigned(psrc)
           << ", " << regName(srcRegs[0], w) << ", "
           << regName(srcRegs[1], w);
        return os.str();
      case PtxlOp::P2r:
        os << "P2R " << regName(dstReg, 1) << ", P" << unsigned(psrc);
        return os.str();
      case PtxlOp::S2r:
        os << "S2R " << regName(dstReg, 1) << ", "
           << aluMnemonic(sem, dtype);
        return os.str();
      case PtxlOp::Ldg:
      case PtxlOp::Stg:
      case PtxlOp::Atom:
      case PtxlOp::Lds:
      case PtxlOp::Sts:
      case PtxlOp::Ldl:
      case PtxlOp::Stl: {
        os << ptxlOpName(opc);
        if (typeBytes(dtype) == 8)
            os << ".64";
        os << " ";
        bool is_store = opc == PtxlOp::Stg || opc == PtxlOp::Sts ||
                        opc == PtxlOp::Stl;
        std::string val = is_store ? regName(srcRegs[1], w)
                                   : regName(dstReg, w);
        unsigned aw = (opc == PtxlOp::Ldg || opc == PtxlOp::Stg ||
                       opc == PtxlOp::Atom) ? 2 : 1;
        os << val << ", [" << regName(srcRegs[0], aw);
        if (imm)
            os << "+" << int64_t(imm);
        os << "]";
        if (opc == PtxlOp::Atom)
            os << ", " << regName(srcRegs[1], w);
        return os.str();
      }
      case PtxlOp::Ldc:
        os << "LDC";
        if (typeBytes(dtype) == 8)
            os << ".64";
        os << " " << regName(dstReg, w) << ", c[0x0][" << imm << "]";
        return os.str();
      case PtxlOp::Bra:
        if (psrc != NoPreg)
            os << "@" << (pneg ? "!" : "") << "P" << unsigned(psrc)
               << " ";
        os << "BRA @" << targetIdx;
        return os.str();
      case PtxlOp::Bssy:
        os << "BSSY B" << unsigned(bar);
        return os.str();
      case PtxlOp::Bsync:
        os << "BSYNC B" << unsigned(bar);
        return os.str();
      default:
        return ptxlOpName(opc);
    }
}

} // namespace last::ptxl
