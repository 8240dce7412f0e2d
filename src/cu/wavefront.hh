/**
 * @file
 * Timing wrapper around the architectural wavefront state: instruction
 * buffer, per-register ready times (the interlock for HSAIL and PTXL,
 * a hazard probe for GCN3), and per-WF statistics probes.
 */

#ifndef LAST_CU_WAVEFRONT_HH
#define LAST_CU_WAVEFRONT_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "arch/kernel_code.hh"
#include "arch/wf_state.hh"
#include "common/types.hh"

namespace last::cu
{

struct WgInstance;

class Wavefront
{
  public:
    Wavefront(unsigned slot, unsigned simd) : slot(slot), simd(simd) {}

    /**
     * Oldest-first issue order with an explicit deterministic
     * tie-break: primary key dispatchSeq, secondary key slot index.
     * dispatchSeq is unique per CU today, but spelling the tie-break
     * out keeps the arbitration bit-stable across standard-library
     * sort implementations if that ever changes — libstdc++ and
     * libc++ order equal keys differently under std::sort.
     */
    static bool
    olderThan(const Wavefront &a, const Wavefront &b)
    {
        if (a.dispatchSeq != b.dispatchSeq)
            return a.dispatchSeq < b.dispatchSeq;
        return a.slot < b.slot;
    }

    /** Architectural state (registers, pc, RS, waitcnt counters). */
    arch::WfState st;

    /** Predecoded metadata for st.code's instructions, indexed like
     *  code->inst(): metas[pcIdx] is the issue stage's whole view of
     *  the next instruction (handler, flags, operands, latency class).
     *  Cached raw out of KernelCode::execMetas() on attach; the vector
     *  is immutable once built, so the pointer stays valid for the
     *  kernel's lifetime in the artifact cache. */
    const arch::ExecMeta *metas = nullptr;

    unsigned slot;          ///< WF slot within the CU
    unsigned simd;          ///< SIMD engine this WF issues to
    uint64_t dispatchSeq = 0; ///< for oldest-first arbitration
    WgInstance *wg = nullptr;

    /** @{ Intrusive age-ordered list linkage (owned by the CU): live
     * wavefronts, oldest first by olderThan(). Linked on dispatch,
     * unlinked on retirement — the issue stage walks this instead of
     * allocating and sorting a fresh vector every tick. */
    Wavefront *agePrev = nullptr;
    Wavefront *ageNext = nullptr;
    /** @} */

    /** @{ Instruction buffer model. The IB holds decoded instructions
     * fetched sequentially; a discontinuous PC costs a flush and a
     * refetch. The IB always contains instructions
     * [pcIdx, pcIdx + ibCount). */
    size_t pcIdx = 0;       ///< index of the next instruction to issue
    unsigned ibCount = 0;
    size_t ibNextIdx = 0;   ///< next instruction index to fetch
    Addr ibNextFetch = 0;   ///< its byte offset
    bool fetchInFlight = false;
    /** @} */

    /** Bumped on every (re)attach so stale completion events become
     *  no-ops. */
    uint64_t gen = 0;

    /** Issue blocked until this cycle (GCN3 s_nop wait states). */
    Cycle blockedUntil = 0;

    /** Tracing only (obs/trace.hh): first cycle of the current
     *  dependency stall, ticked or fast-forwarded, so the whole stall
     *  is emitted as one span when the WF finally issues.
     *  InvalidCycle = not stalled. Never read by timing or
     *  statistics. */
    Cycle stallSince = InvalidCycle;
    /** Tracing only: stall flavour (0 scoreboard, 1 waitcnt). */
    uint8_t stallKind = 0;

    /** Per-register ready cycle: an interlocked instruction (HSAIL,
     *  PTXL) does not issue until its operands are ready; GCN3 only
     *  *checks* (hazard probe) — hardware relies on the finalizer's
     *  waitcnt/nops. sregReady covers every scalar index up to
     *  RegExecHi, past which predecode admits no operand. */
    std::vector<Cycle> vregReady;
    std::vector<Cycle> sregReady;

    /** Statistic probe state of one architectural vector register. */
    struct VregProbe
    {
        /** Reuse distance: dynamic-instruction index of the last
         *  access (UINT64_MAX = none). */
        uint64_t lastTouch = UINT64_MAX;
        /** @{ Uniqueness memo: the exec mask and distinct-value count
         *  of the register's last uniqueness probe (mask 0 = none). A
         *  read probe under the same mask reuses the count; a def
         *  probe recounts, and every issued instruction clears the
         *  entries of its declared vector defs, so an entry always
         *  counts the register's current values (handlers write only
         *  their declared defs). */
        uint64_t uniqMask = 0;
        uint8_t uniqCount = 0;
        /** @} */
    };
    std::vector<VregProbe> vregProbe;
    uint64_t dynInstCount = 0;

    bool active = false; ///< slot occupied

    /** Fault injection: a wedged wavefront never issues again (models
     *  a barrier mismatch or a lost waitcnt release); the GPU's
     *  forward-progress watchdog must detect and report it. */
    bool wedged = false;

    bool
    runnable() const
    {
        return active && !st.done && !st.atBarrier && !wedged;
    }

    void
    attach(const arch::KernelCode *code, unsigned nvregs)
    {
        st.code = code;
        metas = code->execMetas().data();
        st.vregs.assign(nvregs, arch::LaneVec{});
        vregReady.assign(nvregs, 0);
        sregReady.assign(arch::RegExecHi + 1, 0);
        vregProbe.assign(nvregs, VregProbe{});
        dynInstCount = 0;
        pcIdx = 0;
        ibCount = 0;
        ibNextIdx = 0;
        ibNextFetch = 0;
        fetchInFlight = false;
        blockedUntil = 0;
        stallSince = InvalidCycle;
        stallKind = 0;
        wedged = false;
        ++gen;
        active = true;
    }
};

} // namespace last::cu

#endif // LAST_CU_WAVEFRONT_HH
