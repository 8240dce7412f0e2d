/**
 * @file
 * The compute-unit timing model (Figure 2 of the paper): four 16-lane
 * SIMD engines, a scalar unit, a branch unit, vector/scalar/LDS memory
 * pipelines, per-WF instruction buffers fed by a shared L1I, a banked
 * VRF with port-conflict accounting, and 40 wavefront slots scheduled
 * oldest-first.
 *
 * The model is ISA-blind: the issue and fast-forward paths never ask
 * which of the three levels (HSAIL, GCN3, PTXL) they run. The per-ISA
 * differences enter as data, exactly where the paper says they must:
 *  - dependency model: each ISA's predecode resolves its policy into
 *    ExecMeta::interlocked. HSAIL (a simulator scoreboard) and PTXL (a
 *    hardware one) hold issue until every operand's ready time has
 *    passed; GCN3 issue is gated only by its own s_waitcnt
 *    instructions, with a hazard PROBE that flags any read of a
 *    not-yet-ready register (it must stay at zero if the finalizer's
 *    software dependency management is correct);
 *  - divergence: HSAIL resolves control flow through the reconvergence
 *    stack in WfState::rs (pops cause discontinuous PCs and hence IB
 *    flushes); GCN3's exec mask and PTXL's convergence barriers only
 *    redirect fetch on taken branches;
 *  - register files: HSAIL and PTXL use vector registers for
 *    everything; GCN3 splits traffic between the VRF and the SRF. The
 *    CU asks for the ISA only here, at workgroup placement, to reserve
 *    SRF space and set up GCN3's ABI registers.
 */

#ifndef LAST_CU_COMPUTE_UNIT_HH
#define LAST_CU_COMPUTE_UNIT_HH

#include <algorithm>
#include <array>
#include <memory>
#include <vector>

#include "common/config.hh"
#include "common/error.hh"
#include "common/event_queue.hh"
#include "common/stats.hh"
#include "cu/launch.hh"
#include "cu/probes.hh"
#include "cu/wavefront.hh"
#include "memory/cache.hh"
#include "memory/functional_memory.hh"
#include "memory/lds.hh"
#include "obs/trace.hh"

namespace last::cu
{

/** A workgroup resident on a CU. */
struct WgInstance
{
    KernelLaunch *launch = nullptr;
    unsigned wgId = 0;
    unsigned wfTotal = 0;
    unsigned wfAtBarrier = 0;
    unsigned wfDone = 0;
    std::unique_ptr<mem::LdsBlock> lds;
    unsigned vregsReserved = 0;
    unsigned sregsReserved = 0;
    uint64_t ldsReserved = 0;
};

class ComputeUnit : public stats::Group
{
  public:
    ComputeUnit(const std::string &name, const GpuConfig &cfg,
                EventQueue &eq, mem::MemLevel *l1d, mem::MemLevel *l1i,
                mem::MemLevel *scalar_d, mem::FunctionalMemory *memory,
                stats::Group *parent);

    /** Resource check + placement (the dispatcher calls this). */
    bool canAccept(const WorkgroupTask &task) const;
    void accept(const WorkgroupTask &task);

    /** Advance one cycle. */
    void tick();

    bool busy() const { return activeWfs > 0; }

    /** True iff the last tick() initiated a fetch or issued an
     *  instruction (used by the GPU's idle-cycle fast-forward). */
    bool madeProgress() const { return progressLastTick; }

    /**
     * Earliest future cycle (>= now) at which this CU could fetch or
     * issue, considering only time-gated conditions (s_nop wait
     * states, functional-unit occupancy, scoreboard register-ready
     * times). Returns InvalidCycle when the CU is idle or every
     * stalled wavefront is waiting on an event-queue callback (fetch
     * fill, waitcnt decrement) — the event queue bounds those.
     */
    Cycle nextProgressCycle(Cycle now) const;

    /**
     * Account for k skipped cycles starting at now during which this
     * CU provably made no progress: charges the busy cycles, and each
     * wavefront's wait through the one wait rule the per-cycle loop
     * applies (chargeWait), so fast-forwarded runs are
     * statistic-identical to fully ticked ones and trace the same
     * DepStall spans.
     */
    void chargeSkippedCycles(Cycle now, Cycle k);

    /**
     * Fault injection: wedge a wavefront so it never issues again
     * (slot `slot` if it holds a live wavefront, else the oldest live
     * one). @return the slot wedged, or -1 if no wavefront is live.
     */
    int wedgeWavefront(unsigned slot);

    /** Append a WavefrontDump for every live wavefront (the watchdog
     *  calls this to build a DeadlockError). */
    void dumpWavefronts(unsigned cuIndex,
                        std::vector<WavefrontDump> &out) const;

    /** Attach this CU's structured-trace stream (nullptr = off). The
     *  Gpu wires this when GpuConfig::trace is set; see obs/trace.hh. */
    void setTraceStream(obs::TraceStream *s) { trace = s; }

    /** @{ Dynamic instruction counters: all, then one per Figure 5
     *  class, indexed by arch::InstClass (valuInsts ... miscInsts). */
    stats::Scalar dynInsts;
    stats::Scalar classInsts[arch::NumInstClasses];
    /** @} */

    stats::Scalar busyCycles;

    /** @{ The paper's microarchitecture probes. */
    stats::Scalar vrfBankConflicts; ///< Figure 6
    stats::Histogram vregReuseDist; ///< Figure 7
    stats::Scalar ibFlushes;        ///< Figure 9
    /** Reconvergence-stack depth reached on each push (HSAIL only;
     *  GCN3 has no RS). Non-degenerate for nested-divergence shapes
     *  like bfsgraph; stays empty for straight-line kernels. */
    stats::Histogram rsDepth;
    stats::Average vrfReadUniq;     ///< Figure 10 (reads)
    stats::Average vrfWriteUniq;    ///< Figure 10 (writes)
    stats::Average valuUtilization; ///< Table 6 SIMD utilization
    /** @} */

    /** @{ Issue-stall accounting. */
    stats::Scalar scoreboardStalls; ///< interlock stalls (HSAIL, PTXL)
    stats::Scalar waitcntStalls;    ///< GCN3 s_waitcnt stalls
    stats::Scalar fuConflictStalls;
    stats::Scalar ibEmptyStalls;
    /** @} */

    /** Correctness probe for code without an interlock (GCN3): reads
     *  of registers whose producer has not completed (must stay 0 for
     *  well-finalized code). */
    stats::Scalar hazardViolations;

    stats::Scalar coalescedLines; ///< vector accesses after coalescing
    stats::Scalar vmemWfAccesses;

  private:
    struct FreeSlotOrder;

    void fetchStage(Cycle now);
    /** The one fetch-eligibility rule, which fetch and fast-forward
     *  share: `wf` is not done and has no fetch in flight,
     *  instructions are left to fetch, and the IB has room for a
     *  fetch's worth of them. */
    bool
    canFetch(const Wavefront &wf) const
    {
        return !wf.st.done && !wf.fetchInFlight &&
               wf.ibNextIdx < wf.st.code->numInsts() &&
               wf.ibCount + cfg.fetchWidth <= cfg.ibEntries;
    }
    /** Initiate a fetch for `wf` if it is eligible this cycle.
     *  @return true iff a fetch was started (ends the fetch scan). */
    bool tryFetch(Wavefront *wf, Cycle now);
    void issueStage(Cycle now);
    /**
     * The one wait rule, which issue (one cycle at a time) and
     * fast-forward (a skipped window at once) share. Charges each
     * cycle of [lo, end) in which the runnable `wf` waits, in order:
     *  - before blockedUntil (s_nop wait states): uncounted;
     *  - an empty IB: ibEmptyStalls;
     *  - a busy functional unit (fuFreeAt): fuConflictStalls;
     *  - unready operands (operandsReadyAt): waitcntStalls at an
     *    s_waitcnt, else scoreboardStalls; the DepStall trace span
     *    opens at the first such cycle.
     * In a skipped window nothing issues and no event fires, so the
     * IB, the units and the ready times are frozen, and the skip
     * target never passes a cycle at which `wf` could issue: the
     * closed form equals a per-cycle walk.
     * @return true iff `wf` can issue at `lo` (the issue stage's
     *         one-cycle window; never in a skipped one).
     */
    bool chargeWait(Wavefront &wf, Cycle lo, Cycle end);
    /** The first cycle the unit `m` issues to is free for `wf` (0 for
     *  the sequencer's Special instructions, which take no unit). */
    Cycle
    fuFreeAt(const Wavefront &wf, const arch::ExecMeta &m) const
    {
        if (m.fu == arch::FuType::Special)
            return 0;
        unsigned fu = fuIndex(wf, m);
        return std::max(fuBusyUntil[fu], fuTakenUntil[fu]);
    }
    /** The first cycle `m`'s operands let `wf` issue it, under the
     *  dependence policy predecode resolved (ExecMeta::interlocked):
     *  the latest ready time of an interlocked instruction's
     *  registers, InvalidCycle for an s_waitcnt whose counts are not
     *  yet met, else 0. */
    Cycle operandsReadyAt(const Wavefront &wf,
                          const arch::ExecMeta &m) const;
    void issueInst(Wavefront &wf, const arch::ExecMeta &m, Cycle now);
    void probeVectorOperands(Wavefront &wf, const arch::ExecMeta &m,
                             bool defs);
    Cycle memAccessLatency(const arch::MemAccess &acc, Cycle now);
    void finishWavefront(Wavefront &wf);
    void releaseBarrier(WgInstance &wg);

    /** @{ Intrusive age-ordered wavefront list maintenance. */
    void ageListLink(Wavefront &wf);
    void ageListUnlink(Wavefront &wf);
    /** @} */

    GpuConfig cfg;
    EventQueue &eq;
    obs::TraceStream *trace = nullptr;
    mem::MemLevel *l1d;
    mem::MemLevel *l1i;
    mem::MemLevel *scalarD;
    mem::FunctionalMemory *memory;

    std::vector<std::unique_ptr<Wavefront>> slots;
    std::vector<std::unique_ptr<WgInstance>> workgroups;

    /** Live wavefronts, oldest first (Wavefront::olderThan). Kept
     *  sorted incrementally: dispatch appends (dispatchSeq is
     *  monotonic, so the tail is always the youngest), retirement
     *  unlinks in O(1), so the issue stage neither allocates nor
     *  sorts per tick. The fast-forward scans walk it too, so none of
     *  them visits an empty slot. */
    Wavefront *ageHead = nullptr;
    Wavefront *ageTail = nullptr;

    /** Bit per slot holding a live wavefront (maintained alongside the
     *  age list): the fetch stage's round-robin scan walks set bits
     *  via count-trailing-zeros instead of testing all 40 slots every
     *  cycle. One word covers every slot: the Gpu rejects a
     *  wfSlotsPerCu outside [1, 64]. */
    uint64_t liveSlotMask = 0;

    /** Reused issue-order scratch: the runnable snapshot the issue
     *  stage arbitrates over (capacity reserved once; no per-tick
     *  allocation). */
    std::vector<Wavefront *> issueOrder;

    /** Scratch hash for the Figure 10 lane-value uniqueness probe. */
    LaneUniqCounter laneUniq;

    unsigned activeWfs = 0;
    bool progressLastTick = false;
    unsigned vrfUsed = 0;
    unsigned srfUsed = 0;
    uint64_t ldsUsed = 0;
    uint64_t nextDispatchSeq = 0;
    unsigned fetchRr = 0; ///< round-robin pointer for the fetch stage

    /** Per-FU busy-until cycles: [0..3] SIMDs, then scalar, branch,
     *  vmem, lds. */
    std::vector<Cycle> fuBusyUntil;

    static constexpr unsigned FuScalar = 4;
    static constexpr unsigned FuBranch = 5;
    static constexpr unsigned FuVMem = 6;
    static constexpr unsigned FuLds = 7;
    static constexpr unsigned NumFu = 8;

    /** Per-FU cycle after the unit's latest issue: a unit takes one
     *  issue per cycle, whatever occupancy fuBusyUntil records. */
    std::array<Cycle, NumFu> fuTakenUntil{};

    unsigned fuIndex(const Wavefront &wf, const arch::ExecMeta &m) const;

    /** Per-SIMD, per-cycle VRF bank usage: vector operands of every
     *  instruction issued this cycle (VALU on the SIMD itself, plus
     *  vector-memory/LDS pipes reading addresses and data) contend for
     *  the partition's banks. */
    std::vector<std::array<uint8_t, 64>> vrfBankUse;
    std::vector<Cycle> vrfBankUseCycle;

    unsigned chargeBankConflicts(const Wavefront &wf,
                                 const arch::ExecMeta &m, Cycle now);
};

} // namespace last::cu

#endif // LAST_CU_COMPUTE_UNIT_HH
