/**
 * @file
 * Direct-threaded execution handlers for HSAIL.
 *
 * HsailInst::predecode resolves each static instruction to one of the
 * flat handlers below. The hot 32-bit ALU and compare classes get the
 * IL's shared active-lane kernels (hsail/lane_ops.hh, also PTXL's),
 * one instantiation per (opcode, data type). Cold or wide (64-bit) ops
 * fall back to the reference executors, called non-virtually.
 *
 * Correctness contract: every handler is bit-identical to the
 * corresponding piece of HsailInst::execute() — the same per-lane
 * values, the same ascending lane order for memory side effects, the
 * same MemAccess contents. The differential suite in
 * tests/test_exec_engine.cc runs every workload both ways and compares
 * field for field.
 */

#include <bit>

#include "arch/exec_meta.hh"
#include "common/logging.hh"
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

    /** @{ Trivial control handlers (reference: execute() switch). */
    static void
    nopH(const Meta &, Wf &wf)
    {
        wf.nextPc = wf.pc + HsailInst::EncodedBytes;
    }

    static void
    retH(const Meta &, Wf &wf)
    {
        wf.nextPc = wf.pc + HsailInst::EncodedBytes;
        wf.done = true;
    }

    static void
    barrierH(const Meta &, Wf &wf)
    {
        wf.nextPc = wf.pc + HsailInst::EncodedBytes;
        wf.atBarrier = true;
    }

    static void
    brH(const Meta &m, Wf &wf)
    {
        wf.nextPc = inst(m).targetOffset();
    }
    /** @} */

    /** Conditional branch; mirrors executeBranch lane for lane. */
    static void
    cbrH(const Meta &m, Wf &wf)
    {
        const HsailInst &I = inst(m);
        Addr fallthrough = wf.pc + HsailInst::EncodedBytes;
        Addr target = I.targetOffset();

        uint64_t active = wf.activeMask();
        bool if_zero = I.branchIfZero();
        const uint32_t *cond = wf.vregs[I.srcRegs[0].idx].data();
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
            panic_if(I.rpcOff == InvalidAddr,
                     "divergent branch without ipdom analysis");
            wf.rs.back().pc = I.rpcOff;
            wf.rs.push_back({fallthrough, I.rpcOff, not_taken});
            wf.rs.push_back({target, I.rpcOff, taken});
            wf.nextPc = target;
        }
    }

    /**
     * Memory; mirrors executeMem with two changes that cannot alter
     * results: the MemAccess is built in place inside wf.pendingAccess
     * (emplace() value-initializes it exactly like the reference's
     * local `MemAccess acc;`, and the CU consumes it by reference —
     * no 600-byte copies either way), and lane loops are ctz-driven
     * in the same ascending order the reference's 0..63 scan visits,
     * so overlapping stores and atomics land identically.
     */
    static void
    memH(const Meta &m, Wf &wf)
    {
        using arch::MemAccess;
        const HsailInst &I = inst(m);
        wf.nextPc = wf.pc + HsailInst::EncodedBytes;

        uint64_t mask = wf.activeMask();
        unsigned bytes = typeBytes(I.dtype);
        MemAccess &acc = wf.pendingAccess.emplace();
        acc.bytesPerLane = bytes;
        acc.mask = mask;

        if (I.seg == Segment::Kernarg || I.seg == Segment::Arg) {
            Addr addr = wf.kernargBase + I.imm;
            uint64_t val = 0;
            wf.memory->read(addr, &val, bytes);
            for (uint64_t rest = mask; rest; rest &= rest - 1) {
                unsigned lane = unsigned(std::countr_zero(rest));
                if (bytes == 8)
                    wf.writeVreg64(I.dstReg.idx, lane, val);
                else
                    wf.writeVreg(I.dstReg.idx, lane, uint32_t(val));
            }
            acc.kind = MemAccess::Kind::KernargDirect;
            acc.scalarAddr = addr;
            acc.scalarBytes = bytes;
            return;
        }

        if (I.seg == Segment::Group) {
            acc.kind = (I.opc == Opcode::St) ? MemAccess::Kind::LdsStore
                                             : MemAccess::Kind::LdsLoad;
            const bool has_off = I.srcRegs[0].valid();
            for (uint64_t rest = mask; rest; rest &= rest - 1) {
                unsigned lane = unsigned(std::countr_zero(rest));
                Addr off = I.imm;
                if (has_off)
                    off += wf.readVreg(I.srcRegs[0].idx, lane);
                acc.laneAddrs[lane] = off;
                if (I.opc == Opcode::St) {
                    wf.lds->write32(off,
                                    wf.readVreg(I.srcRegs[1].idx, lane));
                    if (bytes == 8)
                        wf.lds->write32(
                            off + 4,
                            wf.readVreg(I.srcRegs[1].idx + 1, lane));
                } else {
                    wf.writeVreg(I.dstReg.idx, lane, wf.lds->read32(off));
                    if (bytes == 8)
                        wf.writeVreg(I.dstReg.idx + 1, lane,
                                     wf.lds->read32(off + 4));
                }
            }
            return;
        }

        acc.kind = (I.opc == Opcode::St) ? MemAccess::Kind::VectorStore
                                         : MemAccess::Kind::VectorLoad;
        for (uint64_t rest = mask; rest; rest &= rest - 1) {
            unsigned lane = unsigned(std::countr_zero(rest));
            Addr addr;
            switch (I.seg) {
              case Segment::Global:
              case Segment::Readonly:
                addr = wf.readVreg64(I.srcRegs[0].idx, lane) + I.imm;
                break;
              case Segment::Private:
                addr = wf.privateBase +
                       uint64_t(wf.globalId(lane)) * wf.privateStridePerWi +
                       (I.srcRegs[0].valid()
                            ? wf.readVreg(I.srcRegs[0].idx, lane) : 0) +
                       I.imm;
                break;
              case Segment::Spill:
                addr = wf.spillBase +
                       uint64_t(wf.globalId(lane)) * wf.spillStridePerWi +
                       (I.srcRegs[0].valid()
                            ? wf.readVreg(I.srcRegs[0].idx, lane) : 0) +
                       I.imm;
                break;
              default:
                panic("unhandled segment");
            }
            acc.laneAddrs[lane] = addr;

            if (I.opc == Opcode::St) {
                if (bytes == 8) {
                    uint64_t v = wf.readVreg64(I.srcRegs[1].idx, lane);
                    wf.memory->write(addr, &v, 8);
                } else {
                    uint32_t v = wf.readVreg(I.srcRegs[1].idx, lane);
                    wf.memory->write(addr, &v, 4);
                }
            } else if (I.opc == Opcode::AtomicAdd) {
                uint32_t old = wf.memory->read<uint32_t>(addr);
                uint32_t add = wf.readVreg(I.srcRegs[1].idx, lane);
                wf.memory->write<uint32_t>(addr, old + add);
                if (I.dstReg.valid())
                    wf.writeVreg(I.dstReg.idx, lane, old);
            } else {
                if (bytes == 8) {
                    uint64_t v = 0;
                    wf.memory->read(addr, &v, 8);
                    wf.writeVreg64(I.dstReg.idx, lane, v);
                } else {
                    uint32_t v = 0;
                    wf.memory->read(addr, &v, 4);
                    wf.writeVreg(I.dstReg.idx, lane, v);
                }
            }
        }
    }

    /** Cold/wide ALU fallback: the unchanged reference executor,
     *  called without the virtual hop. */
    static void
    aluGenericH(const Meta &m, Wf &wf)
    {
        const HsailInst &I = inst(m);
        wf.nextPc = wf.pc + HsailInst::EncodedBytes;
        I.executeAlu(wf);
    }

    static arch::ExecHandler
    pick(const HsailInst &I)
    {
        switch (I.opc) {
          case Opcode::Ld:
          case Opcode::St:
          case Opcode::AtomicAdd:
            return &memH;
          case Opcode::Br: return &brH;
          case Opcode::CBr: return &cbrH;
          case Opcode::Barrier: return &barrierH;
          case Opcode::Ret: return &retH;
          case Opcode::Nop: return &nopH;
          default: {
            arch::ExecHandler h = IlAluHandlers<HsailInst>::pick(I, I.opc);
            return h ? h : &aluGenericH;
          }
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
