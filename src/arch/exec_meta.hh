/**
 * @file
 * Predecoded execution metadata: the direct-threaded engine's view of
 * one static instruction.
 *
 * The per-dynamic-instruction cost of the original engine was a
 * virtual execute() call into a nested format/opcode switch, plus
 * repeated virtual fuType()/sizeBytes()/latency() calls and
 * std::vector<RegOperand> walks in the issue stage. Predecode runs
 * once per static instruction (lazily, at first use of a sealed
 * kernel; see KernelCode::execMetas) and flattens everything the hot
 * path needs into this POD record:
 *
 *  - `handler`: a flat function pointer resolved from the opcode, so
 *    dispatch is one indirect call with no switch chain. Every ISA
 *    picks it in its predecode() (src/hsail/exec.cc, src/gcn3/exec.cc,
 *    src/ptxl/exec.cc). The ALU and compare ops of all three levels,
 *    at either width, run active-lane handlers that instantiate the
 *    one implementation of the IL arithmetic (laneValue() in
 *    hsail/lane_ops.hh) at their (opcode, type), ctz-style over the
 *    active lanes and autovectorizable over a full mask. Besides the
 *    trivial control handlers HSAIL and PTXL share (nopH, endH and
 *    barrierH), every other class runs refH (below),
 *    which calls the one implementation the reference execute() also
 *    runs (memory through arch/lane_mem.hh, branches, scalar ops,
 *    GCN3's own VALU ops, the IL dispatch intrinsics, PTXL's ISETP,
 *    SEL and P2R). So the two engines differ only in dispatch and
 *    operand plumbing. The legacy virtual path stays available behind
 *    GpuConfig::execReference and must produce bit-identical results
 *    (enforced by tests/test_exec_engine.cc and tests/test_ptxl.cc),
 *    save where IEEE 754 leaves an F32 or F64 result open: the NaN
 *    payload of an op on two NaNs and the zero min/max return for +0
 *    and -0 may differ between the handler's folded copy of
 *    laneValue() and the reference's switched one (the lane tables in
 *    tests/test_lane_ops.cc require a NaN, or a zero, from both there).
 *    No workload feeds such operands.
 *  - flags/fu/size: the virtual metadata, pre-flattened; latency()
 *    derives the result latency from fu and flags, and instClass is
 *    Figure 5's issue class, which the CU counts and traces.
 *  - `interlocked`: the level's dependence policy, so the CU's issue
 *    path never asks which ISA it runs.
 *  - `ops`: the RegOperand list copied into a fixed array (same
 *    order), for the hazard probe / scoreboard / bank-conflict walks.
 *    No scalar operand reaches past RegExecHi (predecode panics).
 *  - vecRd/vecWr: the vector operand registers width-expanded in
 *    operand order — exactly the sequence probeVectorOperands used to
 *    derive from regOps() per dynamic instruction. Order matters: the
 *    reuse-distance probe is order-dependent within an instruction.
 *  - c0/c1/imm: predigested ISA constants (s_waitcnt thresholds,
 *    s_nop wait states) so the CU never downcasts mid-issue.
 *
 * The record deliberately keeps a pointer to the Instruction: cold
 * fields (branch targets, reconvergence offsets, disassembly) stay
 * there, and the reference path needs the virtual execute().
 */

#ifndef LAST_ARCH_EXEC_META_HH
#define LAST_ARCH_EXEC_META_HH

#include <cstdint>

#include "arch/instruction.hh"
#include "arch/wf_state.hh"
#include "common/config.hh"

namespace last::arch
{

struct ExecMeta;

/** Direct-threaded handler: functionally execute `m.inst` for all
 *  active lanes of `wf` (bit-identical to `m.inst->execute(wf)`). */
using ExecHandler = void (*)(const ExecMeta &m, WfState &wf);

struct ExecMeta
{
    /** Bounds for the fixed operand arrays. The widest real cases:
     *  V_ADDC_U32 carries 5 RegOperands (dst + 2 srcs + implicit VCC
     *  use and def); an HSAIL f64 ALU op touches 8 expanded vector
     *  registers (2-wide dst + three 2-wide sources). predecode
     *  panics if a new instruction ever exceeds these. */
    static constexpr unsigned MaxOps = 8;
    static constexpr unsigned MaxVecRd = 8;
    static constexpr unsigned MaxVecWr = 4;

    ExecHandler handler = nullptr;
    const Instruction *inst = nullptr;

    uint32_t flags = 0;             ///< InstFlags, pre-flattened
    FuType fu = FuType::Special;
    InstClass instClass = InstClass::Misc; ///< Figure 5, from fu/flags
    uint8_t size = 0;               ///< encoded bytes (4..16)

    /** Dependence policy, set by the ISA's predecode(). An interlocked
     *  instruction issues only once every register it reads or writes
     *  is ready: vecRd, vecWr and its scalar-class slots (PTXL
     *  predicates). HSAIL's scoreboard is the simulator's, PTXL's the
     *  modelled hardware's. GCN3 code is not interlocked: its
     *  s_waitcnt and s_nop wait states manage dependences in software,
     *  and the CU's hazard probe checks that they do. */
    bool interlocked = false;

    /** regOps(), copied in order. */
    uint8_t numOps = 0;
    RegOperand ops[MaxOps];

    /** Vector operand registers, width-expanded, in operand order
     *  (reads: isDef == false; writes: isDef == true). Duplicates are
     *  preserved — V_MAC_F32 legitimately lists its dst both ways. */
    uint8_t numVecRd = 0;
    uint8_t numVecWr = 0;
    uint16_t vecRd[MaxVecRd];
    uint16_t vecWr[MaxVecWr];

    /** @{ Predigested ISA constants. GCN3: c0/c1 are the s_waitcnt
     *  vmcnt/lgkmcnt thresholds; imm is the SOPP immediate (s_nop
     *  wait states). Unused elsewhere. */
    uint32_t c0 = 0;
    uint32_t c1 = 0;
    uint32_t imm = 0;
    /** @} */

    bool is(InstFlags f) const { return (flags & f) != 0; }

    /**
     * Result latency in cycles (beyond issue), resolved against `cfg`
     * at issue time: the config's latency knobs are sweep parameters,
     * so cycles cannot be baked in at predecode. A double-precision or
     * transcendental VALU op takes valuLatencyF64; memory timing comes
     * from the memory system.
     */
    unsigned
    latency(const GpuConfig &cfg) const
    {
        switch (fu) {
          case FuType::VAlu:
            return is(IsF64) || is(IsTrans) ? cfg.valuLatencyF64
                                            : cfg.valuLatency;
          case FuType::SAlu: return cfg.saluLatency;
          case FuType::Branch: return cfg.branchLatency;
          case FuType::Lds: return cfg.ldsLatency;
          case FuType::VMem:
          case FuType::SMem: return 0;
          case FuType::Special: return 1;
        }
        return 1;
    }
};

/**
 * The handler of a class with one implementation: advance the PC and
 * call the reference executor `Exec` non-virtually. Each level's
 * predecode() names its (private) executors here, so the predecoded
 * and the reference engine run the same body.
 */
template <class Inst, void (Inst::*Exec)(WfState &) const>
void
refH(const ExecMeta &m, WfState &wf)
{
    wf.nextPc = wf.pc + m.size;
    (static_cast<const Inst &>(*m.inst).*Exec)(wf);
}

/** @{ The trivial control handlers HSAIL and PTXL share: nop, the end
 *  of the program (ret, EXIT) and the workgroup barrier. Each advances
 *  the PC by the encoded size, as refH does. */
inline void
nopH(const ExecMeta &m, WfState &wf)
{
    wf.nextPc = wf.pc + m.size;
}

inline void
endH(const ExecMeta &m, WfState &wf)
{
    wf.nextPc = wf.pc + m.size;
    wf.done = true;
}

inline void
barrierH(const ExecMeta &m, WfState &wf)
{
    wf.nextPc = wf.pc + m.size;
    wf.atBarrier = true;
}
/** @} */

} // namespace last::arch

#endif // LAST_ARCH_EXEC_META_HH
