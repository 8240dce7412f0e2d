/**
 * @file
 * Direct-threaded execution handlers for PTXL.
 *
 * PtxlInst::predecode resolves each static instruction to one of the
 * flat handlers below, following the src/hsail/exec.cc idiom. ALU
 * instructions carry IL value semantics, so every one of either width
 * (movimm and cvt included) gets the IL's active-lane handler
 * (IlAluHandlers in hsail/lane_ops.hh), which instantiates the one
 * implementation of the IL arithmetic, laneValue(), at its (opcode,
 * type); this file holds only what is PTXL's own: S2R's broadcast and
 * BSSY (the trivial control handlers are arch/exec_meta.hh's, shared
 * with HSAIL). Everything else has one
 * implementation, the reference executor, called non-virtually: memory
 * (the IL's segment addressing in hsail/lane_ops.hh over the lane body
 * all three levels share, arch/lane_mem.hh), ISETP, SEL/P2R, branches
 * and BSYNC.
 *
 * Correctness contract: every handler is bit-identical to the
 * corresponding piece of PtxlInst::execute(), save the float results
 * IEEE 754 leaves open (see arch/exec_meta.hh); the two differ only in
 * dispatch and operand plumbing. tests/test_ptxl.cc runs every
 * workload both ways and compares AppResults field for field, and the
 * lane-table test runs every ALU handler beside execute().
 */

#include <bit>

#include "arch/exec_meta.hh"
#include "common/logging.hh"
#include "hsail/lane_ops.hh"
#include "ptxl/inst.hh"

namespace last::ptxl
{

struct PtxlExec
{
    using Meta = arch::ExecMeta;
    using Wf = arch::WfState;

    static const PtxlInst &
    inst(const Meta &m)
    {
        return static_cast<const PtxlInst &>(*m.inst);
    }

    /** BSSY: snapshot the member mask into a convergence barrier
     *  (reference: execute() switch). */
    static void
    bssyH(const Meta &m, Wf &wf)
    {
        const PtxlInst &I = inst(m);
        wf.nextPc = wf.pc + PtxlInst::EncodedBytes;
        wf.cbarExpected[I.bar] = wf.exec;
        wf.cbarArrived[I.bar] = 0;
    }

    /** S2R: broadcast a special register into the active lanes. */
    static void
    s2rH(const Meta &m, Wf &wf)
    {
        const PtxlInst &I = inst(m);
        wf.nextPc = wf.pc + PtxlInst::EncodedBytes;
        uint64_t mask = wf.exec;
        uint32_t *d = wf.vregs[I.dstReg.idx].data();
        for (uint64_t rest = mask; rest; rest &= rest - 1) {
            unsigned lane = unsigned(std::countr_zero(rest));
            d[lane] = uint32_t(I.laneAlu(wf, lane));
        }
    }

    static arch::ExecHandler
    pick(const PtxlInst &I)
    {
        switch (I.opc) {
          case PtxlOp::Ldg:
          case PtxlOp::Stg:
          case PtxlOp::Atom:
          case PtxlOp::Lds:
          case PtxlOp::Sts:
          case PtxlOp::Ldl:
          case PtxlOp::Stl:
          case PtxlOp::Ldc:
            return &arch::refH<PtxlInst, &PtxlInst::executeMem>;
          case PtxlOp::Bra:
            return &arch::refH<PtxlInst, &PtxlInst::executeBranch>;
          case PtxlOp::Bssy: return &bssyH;
          case PtxlOp::Bsync:
            return &arch::refH<PtxlInst, &PtxlInst::executeBsync>;
          case PtxlOp::Bar: return &arch::barrierH;
          case PtxlOp::Exit: return &arch::endH;
          case PtxlOp::Nop: return &arch::nopH;
          case PtxlOp::Isetp:
            return &arch::refH<PtxlInst, &PtxlInst::executeIsetp>;
          case PtxlOp::S2r:
            if (I.dstReg.valid())
                return &s2rH;
            break;
          case PtxlOp::Alu:
            if (arch::ExecHandler h =
                    hsail::IlAluHandlers<PtxlInst>::pick(I, I.sem))
                return h;
            break;
          case PtxlOp::Sel:
          case PtxlOp::P2r:
            break;
        }
        return &arch::refH<PtxlInst, &PtxlInst::executeAlu>;
    }
};

void
PtxlInst::predecode(arch::ExecMeta &m) const
{
    m.handler = PtxlExec::pick(*this);
    // Fixed-latency hardware scoreboard over registers and predicates.
    m.interlocked = true;
}

} // namespace last::ptxl
