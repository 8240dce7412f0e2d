/**
 * @file
 * The PTXL backend: lowering IL kernels to the NVIDIA-flavored
 * machine ISA.
 *
 * Where the GCN3 lowering spends instructions on software dependence
 * management (s_waitcnt, s_nop), exec-mask save/restore sequences, and
 * scalar/vector file shuffling, PTXL's contract is different:
 *
 *  - Reconvergence is compiler-inserted but hardware-managed: each
 *    divergent structured region is bracketed by BSSY (snapshot the
 *    member mask into a convergence barrier) and BSYNC (collect
 *    arrivals, resuming parked warp splits until all members arrive).
 *    No exec-mask ALU instructions, no save/restore SGPR pairs.
 *  - Dependences are tracked by a hardware scoreboard; the code stream
 *    carries no waits and no hazard nops.
 *  - There is no scalar pipeline: uniformity analysis still runs (it
 *    decides which regions need convergence barriers at all), but
 *    uniform values stay in the one general register file.
 *  - Addressing for local/constant memory is hardware-managed (LDL/STL
 *    compute the per-thread slot; LDC indexes the parameter bank), so
 *    the address-materialization code expansion GCN3 suffers does not
 *    exist here.
 *
 * The result is a near 1:1 instruction mapping from the IL — but with
 * a 16-byte encoding, explicit convergence-barrier instructions, and
 * timing behavior (fixed-latency scoreboard stalls, IB flushes on
 * split switches) all its own. Whether the paper's IL-vs-machine
 * pitfalls persist on this vendor's contract is exactly the N-ISA
 * question the divergence matrix answers.
 */

#include "finalizer/lowering.hh"
#include "ptxl/inst.hh"

namespace last::finalizer
{

namespace
{

using hsail::CfRegion;
using hsail::CmpOp;
using hsail::DataType;
using hsail::HsailInst;
using hsail::Opcode;
using hsail::Reg;
using ptxl::PtxlInst;

/** Predicate conventions: P0 carries branch conditions, P6 is the
 *  SEL scratch predicate. */
constexpr uint8_t BranchPreg = 0;
constexpr uint8_t SelPreg = 6;

/** PTXL instruction selection over the shared RegionWalk: the GCN3
 *  Translator's job minus everything the GCN3 contract made it do. The
 *  plain LabelAssembler emits: no wait tracking and no hazard tracking,
 *  because the hardware scoreboard owns both. */
class PtxlTranslator
{
  public:
    PtxlTranslator(const hsail::IlKernel &il, const GpuConfig &cfg,
                   FinalizeStats &stats)
        : ilc(*il.code), stats(stats), walk(il),
          out(std::make_unique<arch::KernelCode>(IsaKind::PTXL,
                                                 ilc.name())),
          a(*out, stats)
    {
        // IL registers map 1:1 onto the general file (the IL is
        // already register-allocated); the backend adds no temps, so
        // going over budget is a kernel bug, not a spill opportunity.
        if (ilc.vregsUsed > cfg.maxRegsPerWfPtxl)
            fatal("kernel %s needs %u general registers; the PTXL "
                  "file holds %u (maxRegsPerWfPtxl)",
                  ilc.name().c_str(), ilc.vregsUsed,
                  cfg.maxRegsPerWfPtxl);
    }

    std::unique_ptr<arch::KernelCode>
    run()
    {
        walk.run(*this);

        a.resolveLabels();
        out->seal();
        out->execMetas();

        out->vregsUsed = ilc.vregsUsed;
        out->sregsUsed = 0; // no scalar file
        out->kernargBytes = ilc.kernargBytes;
        // LDL/STL address the private and spill windows separately
        // (hardware-managed local memory), so the segments stay split
        // exactly as the IL declared them.
        out->privateBytesPerWi = ilc.privateBytesPerWi;
        out->spillBytesPerWi = ilc.spillBytesPerWi;
        out->ldsBytesPerWg = ilc.ldsBytesPerWg;

        stats.vgprsUsed = out->vregsUsed;
        stats.sgprsUsed = 0;
        return std::move(out);
    }

  private:
    friend class finalizer::RegionWalk;

    // --- control-flow regions (the RegionWalk hooks) ----------------

    struct Ctx
    {
        bool divergent;
        uint8_t barIdx = 0;
        unsigned elseLabel = 0;
        unsigned endLabel = 0;
        unsigned topLabel = 0;
    };

    uint8_t
    allocBar()
    {
        panic_if(barDepth >= arch::WfState::NumPtxlBarriers,
                 "convergence-barrier nesting deeper than %u in "
                 "kernel %s", arch::WfState::NumPtxlBarriers,
                 ilc.name().c_str());
        return uint8_t(barDepth++);
    }

    void
    ifHead(const CfRegion &r, bool divergent)
    {
        Ctx c;
        c.divergent = divergent;
        c.endLabel = a.newLabel();
        bool has_else = r.kind == CfRegion::Kind::IfElse;
        if (has_else)
            c.elseLabel = a.newLabel();

        // Divergent or not, the region is one predicated branch; the
        // only extra cost of divergence is the barrier bracket.
        if (c.divergent) {
            c.barIdx = allocBar();
            a.append(PtxlInst::bssy(c.barIdx));
        }
        ensureP0(r.condReg);
        a.appendBranch(PtxlInst::braIf(BranchPreg, true, 0),
                       has_else ? c.elseLabel : c.endLabel);
        ctx.push_back(c);
    }

    void
    elseArm()
    {
        panic_if(ctx.empty(), "else outside a region");
        Ctx &c = ctx.back();
        a.appendBranch(PtxlInst::bra(0), c.endLabel);
        a.bind(c.elseLabel);
    }

    void
    ifEnd()
    {
        panic_if(ctx.empty(), "region end without a head");
        Ctx c = ctx.back();
        ctx.pop_back();
        a.bind(c.endLabel);
        if (c.divergent) {
            // The convergence point: every split parked by the region
            // head (or by an interior BSYNC hand-off) leads here.
            a.append(PtxlInst::bsync(c.barIdx));
            --barDepth;
        }
    }

    void
    loopHead(bool divergent)
    {
        Ctx c;
        c.divergent = divergent;
        c.topLabel = a.newLabel();
        if (c.divergent) {
            c.barIdx = allocBar();
            a.append(PtxlInst::bssy(c.barIdx));
        }
        // No drain at the backedge target: in-flight loads are the
        // scoreboard's problem, not the code stream's.
        a.bind(c.topLabel);
        ctx.push_back(c);
    }

    void
    loopTail(const CfRegion &r)
    {
        panic_if(ctx.empty(), "loop tail without a head");
        Ctx c = ctx.back();
        ctx.pop_back();
        ensureP0(r.condReg);
        a.appendBranch(PtxlInst::braIf(BranchPreg, false, 0), c.topLabel);
        if (c.divergent) {
            // Lanes leaving the loop fall through here and wait for
            // the stragglers still iterating on the split stack.
            a.append(PtxlInst::bsync(c.barIdx));
            --barDepth;
        }
    }

    /** Make P0 hold (cond != 0), reusing the compare the ISETP
     *  peephole already emitted when possible. */
    void
    ensureP0(uint16_t cond)
    {
        if (p0From == cond) {
            p0From = NoIlReg;
            return;
        }
        p0From = NoIlReg;
        a.append(PtxlInst::isetp(CmpOp::Ne, DataType::U32, BranchPreg,
                                 Reg{cond}, Reg{}));
    }

    // --- main translation -------------------------------------------

    void
    inst(size_t i, const HsailInst &inst)
    {
        p0From = NoIlReg;

        switch (inst.op()) {
          case Opcode::Ld:
          case Opcode::St:
          case Opcode::AtomicAdd:
            translateMem(inst);
            return;
          case Opcode::Barrier:
            a.append(PtxlInst::barrier());
            return;
          case Opcode::Ret:
            a.append(PtxlInst::exitProgram());
            return;
          case Opcode::Nop:
            a.append(PtxlInst::nop());
            return;
          case Opcode::Br:
          case Opcode::CBr:
            panic("raw IL branch at %zu outside a structured region",
                  i);
          default:
            translateAlu(i, inst);
            return;
        }
    }

    void
    translateAlu(size_t i, const HsailInst &inst)
    {
        DataType t = inst.type();
        Reg D = inst.dst();
        Reg A = inst.src(0);
        Reg B = inst.src(1);
        Reg C = inst.src(2);

        switch (inst.op()) {
          case Opcode::Cmp:
            // The GCN3 peephole: a compare feeding only the region
            // branch right after it needs no materialized boolean.
            a.append(PtxlInst::isetp(inst.cmpOp(), t, BranchPreg, A, B));
            if (walk.feedsBranch(i, D.idx)) {
                p0From = D.idx;
                return;
            }
            a.append(PtxlInst::p2r(D, BranchPreg));
            return;
          case Opcode::CMov:
            a.append(PtxlInst::isetp(CmpOp::Ne, DataType::U32, SelPreg,
                                     A, Reg{}));
            a.append(PtxlInst::sel(t, D, SelPreg, B, C));
            return;
          case Opcode::MovImm:
            a.append(PtxlInst::movImm(t, D, inst.immBits()));
            return;
          case Opcode::Cvt:
            a.append(PtxlInst::cvt(t, inst.srcType(), D, A));
            return;
          case Opcode::WorkItemAbsId:
          case Opcode::WorkItemId:
          case Opcode::WorkGroupId:
          case Opcode::WorkGroupSize:
          case Opcode::GridSize:
            a.append(PtxlInst::s2r(inst.op(), D));
            return;
          default:
            // Everything else is one ALU instruction carrying the IL
            // value semantic — including 64-bit ops on register pairs
            // and the transcendentals GCN3 expands into multi-
            // instruction Newton-Raphson sequences (PTXL's MUFU-style
            // units own those).
            a.append(PtxlInst::alu(inst.op(), t, D, A, B, C));
            return;
        }
    }

    void
    translateMem(const HsailInst &inst)
    {
        DataType t = inst.type();
        Reg D = inst.dst();
        Reg A = inst.src(0);
        Reg V = inst.src(1);
        int64_t off = inst.memOffset();

        if (inst.op() == Opcode::AtomicAdd) {
            a.append(PtxlInst::atomicAdd(t, D, A, off, V));
            return;
        }
        if (inst.op() == Opcode::St)
            a.append(PtxlInst::st(inst.segment(), t, V, A, off));
        else
            a.append(PtxlInst::ld(inst.segment(), t, D, A, off));
    }

    const arch::KernelCode &ilc;
    FinalizeStats &stats;
    RegionWalk walk;
    std::unique_ptr<arch::KernelCode> out;
    LabelAssembler<PtxlInst> a;

    unsigned barDepth = 0;
    std::vector<Ctx> ctx;

    uint16_t p0From = NoIlReg;
};

} // namespace

std::unique_ptr<arch::KernelCode>
lowerPtxl(const hsail::IlKernel &il, const GpuConfig &cfg,
          FinalizeStats &stats)
{
    return PtxlTranslator(il, cfg, stats).run();
}

} // namespace last::finalizer
