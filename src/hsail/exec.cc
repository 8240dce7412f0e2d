/**
 * @file
 * Direct-threaded execution handlers for HSAIL.
 *
 * HsailInst::predecode resolves each static instruction to one of the
 * flat handlers below. Every ALU op of either width (movimm, cmp and
 * cvt included) gets an IL active-lane handler (IlAluHandlers in
 * hsail/lane_ops.hh, shared with PTXL), which instantiates the one
 * implementation of the IL arithmetic, laneValue(), at its (opcode,
 * type). Nop, ret and barrier run the trivial control handlers PTXL
 * shares (arch/exec_meta.hh). The rest runs the reference executor,
 * called non-virtually: memory (whose lane body, arch/lane_mem.hh, all
 * three levels share), branches and the dispatch intrinsics.
 *
 * Correctness contract: every handler is bit-identical to the
 * corresponding piece of HsailInst::execute(), save the float results
 * IEEE 754 leaves open (see arch/exec_meta.hh). The two differ only in
 * dispatch and operand plumbing; the differential suite in
 * tests/test_exec_engine.cc runs every workload both ways and compares
 * field for field, and the lane-table test runs every ALU handler
 * beside execute() on edge operands.
 */

#include "arch/exec_meta.hh"
#include "hsail/inst.hh"
#include "hsail/lane_ops.hh"

namespace last::hsail
{

struct HsailExec
{
    using Meta = arch::ExecMeta;
    using Wf = arch::WfState;

    static const HsailInst &
    inst(const Meta &m)
    {
        return static_cast<const HsailInst &>(*m.inst);
    }

    static arch::ExecHandler
    pick(const HsailInst &I)
    {
        switch (I.opc) {
          case Opcode::Ld:
          case Opcode::St:
          case Opcode::AtomicAdd:
            return &arch::refH<HsailInst, &HsailInst::executeMem>;
          case Opcode::Br:
          case Opcode::CBr:
            return &arch::refH<HsailInst, &HsailInst::executeBranch>;
          case Opcode::Barrier: return &arch::barrierH;
          case Opcode::Ret: return &arch::endH;
          case Opcode::Nop: return &arch::nopH;
          default:
            if (arch::ExecHandler h =
                    IlAluHandlers<HsailInst>::pick(I, I.opc))
                return h;
            return &arch::refH<HsailInst, &HsailInst::executeAlu>;
        }
    }
};

void
HsailInst::predecode(arch::ExecMeta &m) const
{
    m.handler = HsailExec::pick(*this);
    // The IL has no dependence management: the simulator's scoreboard
    // holds every instruction until its operands are ready.
    m.interlocked = true;
}

} // namespace last::hsail
