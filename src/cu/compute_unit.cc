#include "cu/compute_unit.hh"

#include <algorithm>
#include <cassert>

#include "arch/exec_meta.hh"
#include "common/bitfield.hh"
#include "common/logging.hh"
#include "finalizer/abi.hh"

namespace last::cu
{

ComputeUnit::ComputeUnit(const std::string &name, const GpuConfig &cfg,
                         EventQueue &eq, mem::MemLevel *l1d,
                         mem::MemLevel *l1i, mem::MemLevel *scalar_d,
                         mem::FunctionalMemory *memory,
                         stats::Group *parent)
    : stats::Group(name, parent),
      dynInsts(this, "dynInsts", "instructions issued"),
      classInsts{
          {this, "valuInsts", "vector ALU instructions"},
          {this, "saluInsts", "scalar ALU instructions"},
          {this, "vmemInsts", "vector memory instructions"},
          {this, "smemInsts", "scalar memory instructions"},
          {this, "ldsInsts", "LDS instructions"},
          {this, "branchInsts", "branch instructions"},
          {this, "waitcntInsts", "s_waitcnt instructions"},
          {this, "miscInsts", "nop/barrier/endpgm instructions"},
      },
      busyCycles(this, "busyCycles", "cycles with resident work"),
      vrfBankConflicts(this, "vrfBankConflicts",
                       "VRF port conflicts (Figure 6)"),
      vregReuseDist(this, "vregReuseDist",
                    "vector register reuse distance (Figure 7)"),
      ibFlushes(this, "ibFlushes",
                "instruction buffer flushes (Figure 9)"),
      rsDepth(this, "rsDepth",
              "reconvergence-stack depth at each push (HSAIL)"),
      vrfReadUniq(this, "vrfReadUniq",
                  "VRF read lane-value uniqueness (Figure 10)"),
      vrfWriteUniq(this, "vrfWriteUniq",
                   "VRF write lane-value uniqueness (Figure 10)"),
      valuUtilization(this, "valuUtilization",
                      "SIMD lane utilization (Table 6)"),
      scoreboardStalls(this, "scoreboardStalls",
                       "issue stalls from the HSAIL scoreboard"),
      waitcntStalls(this, "waitcntStalls",
                    "issue stalls at GCN3 s_waitcnt"),
      fuConflictStalls(this, "fuConflictStalls",
                       "issue stalls from busy functional units"),
      ibEmptyStalls(this, "ibEmptyStalls",
                    "issue stalls from an empty instruction buffer"),
      hazardViolations(this, "hazardViolations",
                       "GCN3 reads of unready registers (must be 0)"),
      coalescedLines(this, "coalescedLines",
                     "cache-line requests after coalescing"),
      vmemWfAccesses(this, "vmemWfAccesses",
                     "wavefront-level vector memory accesses"),
      cfg(cfg), eq(eq), l1d(l1d), l1i(l1i), scalarD(scalar_d),
      memory(memory), fuBusyUntil(NumFu, 0)
{
    for (unsigned s = 0; s < cfg.wfSlotsPerCu; ++s)
        slots.push_back(
            std::make_unique<Wavefront>(s, s % cfg.simdPerCu));
    issueOrder.reserve(slots.size());
    vrfBankUse.assign(cfg.simdPerCu, {});
    vrfBankUseCycle.assign(cfg.simdPerCu, InvalidCycle);
}

void
ComputeUnit::ageListLink(Wavefront &wf)
{
    // dispatchSeq is assigned monotonically, so the new wavefront is
    // always the youngest: append at the tail and the list stays
    // sorted by Wavefront::olderThan without any search.
    assert(!ageTail || Wavefront::olderThan(*ageTail, wf));
    liveSlotMask |= 1ull << wf.slot;
    wf.agePrev = ageTail;
    wf.ageNext = nullptr;
    if (ageTail)
        ageTail->ageNext = &wf;
    else
        ageHead = &wf;
    ageTail = &wf;
}

void
ComputeUnit::ageListUnlink(Wavefront &wf)
{
    liveSlotMask &= ~(1ull << wf.slot);
    if (wf.agePrev)
        wf.agePrev->ageNext = wf.ageNext;
    else
        ageHead = wf.ageNext;
    if (wf.ageNext)
        wf.ageNext->agePrev = wf.agePrev;
    else
        ageTail = wf.agePrev;
    wf.agePrev = wf.ageNext = nullptr;
}

unsigned
ComputeUnit::chargeBankConflicts(const Wavefront &wf,
                                 const arch::ExecMeta &m, Cycle now)
{
    if (vrfBankUseCycle[wf.simd] != now) {
        vrfBankUse[wf.simd].fill(0);
        vrfBankUseCycle[wf.simd] = now;
    }
    auto &use = vrfBankUse[wf.simd];
    unsigned conflicts = 0;
    for (unsigned i = 0; i < m.numOps; ++i) {
        const auto &op = m.ops[i];
        if (op.cls != arch::RegClass::Vector)
            continue;
        for (unsigned w = 0; w < op.width; ++w) {
            unsigned bank = (op.idx + w) % cfg.vrfBanks;
            if (use[bank]++)
                ++conflicts;
        }
    }
    vrfBankConflicts += conflicts;
    return conflicts;
}

bool
ComputeUnit::canAccept(const WorkgroupTask &task) const
{
    const auto &code = *task.launch->code;
    unsigned wg_size = task.launch->wgSize;
    unsigned wf_per_wg = (wg_size + WavefrontSize - 1) / WavefrontSize;

    unsigned free_slots = 0;
    for (const auto &wf : slots)
        if (!wf->active)
            ++free_slots;
    if (free_slots < wf_per_wg)
        return false;

    if (vrfUsed + code.vregsUsed * wf_per_wg > cfg.vrfEntriesPerCu)
        return false;
    if (code.isa() == IsaKind::GCN3 &&
        srfUsed + code.sregsUsed * wf_per_wg > cfg.srfEntriesPerCu)
        return false;
    if (ldsUsed + code.ldsBytesPerWg > cfg.ldsBytesPerCu)
        return false;
    return true;
}

void
ComputeUnit::accept(const WorkgroupTask &task)
{
    panic_if(!canAccept(task), "accept() without canAccept()");
    KernelLaunch &launch = *task.launch;
    const auto &code = *launch.code;
    unsigned wg_size = launch.wgSize;
    unsigned wg_first_wi = task.wgId * wg_size;
    unsigned wi_in_wg =
        std::min(wg_size, launch.gridSize - wg_first_wi);
    unsigned wf_per_wg = (wi_in_wg + WavefrontSize - 1) / WavefrontSize;

    auto wg = std::make_unique<WgInstance>();
    wg->launch = &launch;
    wg->wgId = task.wgId;
    wg->wfTotal = wf_per_wg;
    wg->lds = std::make_unique<mem::LdsBlock>(code.ldsBytesPerWg);
    wg->vregsReserved = code.vregsUsed * wf_per_wg;
    wg->sregsReserved =
        code.isa() == IsaKind::GCN3 ? code.sregsUsed * wf_per_wg : 0;
    wg->ldsReserved = code.ldsBytesPerWg;
    vrfUsed += wg->vregsReserved;
    srfUsed += wg->sregsReserved;
    ldsUsed += wg->ldsReserved;

    for (unsigned w = 0; w < wf_per_wg; ++w) {
        Wavefront *wf = nullptr;
        for (auto &cand : slots) {
            if (!cand->active) {
                wf = cand.get();
                break;
            }
        }
        panic_if(!wf, "no free WF slot after canAccept()");

        arch::WfState &st = wf->st;
        st.isa = code.isa();
        st.wgId = task.wgId;
        st.wgSize = wg_size;
        st.gridSize = launch.gridSize;
        st.wfIdInWg = w;
        st.firstWorkitem = wg_first_wi + w * WavefrontSize;
        st.memory = memory;
        st.lds = wg->lds.get();
        st.aqlPacketAddr = launch.aqlPacketAddr;
        st.kernargBase = launch.kernargBase;
        st.privateBase = launch.privateBase;
        st.spillBase = launch.spillBase;
        st.privateStridePerWi = launch.privateStridePerWi;
        st.spillStridePerWi = launch.spillStridePerWi;
        st.sgprs.fill(0);
        st.vcc = 0;
        st.scc = false;

        unsigned lanes =
            std::min<unsigned>(WavefrontSize,
                               wi_in_wg - w * WavefrontSize);
        uint64_t mask =
            lanes >= 64 ? ~0ull : ((1ull << lanes) - 1);

        wf->attach(&code, code.vregsUsed);
        st.initLaunch(mask);

        if (code.isa() == IsaKind::GCN3) {
            // Command-processor ABI initialization: the register
            // state the finalized code expects (the IL path has no
            // equivalent — its ABI lives in simulator state above).
            st.writeSgpr64(abi::ScratchBaseLo, launch.scratchBase);
            st.writeSgpr(abi::ScratchStride,
                         uint32_t(launch.scratchStridePerWi));
            st.writeSgpr64(abi::AqlPtrLo, launch.aqlPacketAddr);
            st.writeSgpr64(abi::KernargLo, launch.kernargBase);
            st.writeSgpr(abi::WorkgroupId, task.wgId);
            for (unsigned lane = 0; lane < WavefrontSize; ++lane)
                st.vregs[abi::WorkitemIdVgpr][lane] =
                    w * WavefrontSize + lane;
        }

        wf->wg = wg.get();
        wf->dispatchSeq = nextDispatchSeq++;
        ageListLink(*wf);
        ++activeWfs;
        if (trace)
            trace->emit(obs::TraceKind::WfStart, eq.now(), 0, wf->slot,
                        task.wgId);
    }

    launch.wgsDispatched++;
    workgroups.push_back(std::move(wg));
}

void
ComputeUnit::tick()
{
    progressLastTick = false;
    if (activeWfs == 0)
        return;
    Cycle now = eq.now();
    ++busyCycles;
    fetchStage(now);
    issueStage(now);
}

inline Cycle
ComputeUnit::operandsReadyAt(const Wavefront &wf,
                             const arch::ExecMeta &m) const
{
    // Software dependence management (GCN3): only an s_waitcnt gates
    // issue, until its counters drop to the thresholds predigested
    // into c0/c1.
    if (m.is(arch::IsWaitcnt))
        return wf.st.vmCnt > m.c0 || wf.st.lgkmCnt > m.c1 ? InvalidCycle
                                                          : 0;
    if (!m.interlocked)
        return 0;
    // Interlock (HSAIL's simulator scoreboard, PTXL's hardware one):
    // every operand, read or written, must be ready — vector registers
    // and the scalar-class slots alike.
    Cycle t = 0;
    for (unsigned i = 0; i < m.numVecRd; ++i)
        t = std::max(t, wf.vregReady[m.vecRd[i]]);
    for (unsigned i = 0; i < m.numVecWr; ++i)
        t = std::max(t, wf.vregReady[m.vecWr[i]]);
    for (unsigned i = 0; i < m.numOps; ++i) {
        const auto &op = m.ops[i];
        if (op.cls != arch::RegClass::Scalar)
            continue;
        for (unsigned w = 0; w < op.width; ++w)
            t = std::max(t, wf.sregReady[op.idx + w]);
    }
    return t;
}

Cycle
ComputeUnit::nextProgressCycle(Cycle now) const
{
    // The age list holds exactly the live wavefronts; the minimum
    // does not depend on the order they are visited in.
    Cycle t = InvalidCycle;
    for (const Wavefront *wfp = ageHead; wfp; wfp = wfp->ageNext) {
        const Wavefront &wf = *wfp;
        // A wavefront that could start a fetch progresses immediately.
        if (canFetch(wf))
            return now;
        if (!wf.runnable() || wf.ibCount == 0)
            continue; // barrier release / fetch fill: event driven
        // The first cycle chargeWait lets it issue: past all three of
        // its gates. An unmet s_waitcnt reads "never": an event-queue
        // decrement unblocks it.
        const arch::ExecMeta &m = wf.metas[wf.pcIdx];
        t = std::min(t, std::max({now, wf.blockedUntil, fuFreeAt(wf, m),
                                  operandsReadyAt(wf, m)}));
    }
    return t;
}

void
ComputeUnit::chargeSkippedCycles(Cycle now, Cycle k)
{
    if (activeWfs == 0 || k == 0)
        return;
    busyCycles += double(k);
    // Only live wavefronts wait, and each stall counter adds
    // integer-valued doubles, so the sum is exact in any order.
    for (Wavefront *wf = ageHead; wf; wf = wf->ageNext)
        if (wf->runnable())
            chargeWait(*wf, now, now + k);
}

inline bool
ComputeUnit::chargeWait(Wavefront &wf, Cycle lo, Cycle end)
{
    lo = std::max(lo, wf.blockedUntil);
    if (lo >= end)
        return false;
    // A fetch fill is an event, so an IB empty at lo stays empty.
    if (wf.ibCount == 0) {
        ibEmptyStalls += double(end - lo);
        return false;
    }
    const arch::ExecMeta &m = wf.metas[wf.pcIdx];
    Cycle fu_free = fuFreeAt(wf, m);
    if (fu_free > lo) {
        fuConflictStalls += double(std::min(end, fu_free) - lo);
        if (fu_free >= end)
            return false;
        lo = fu_free;
    }
    Cycle ready = operandsReadyAt(wf, m);
    if (ready <= lo)
        return true;
    assert(ready >= end);
    bool waitcnt = m.is(arch::IsWaitcnt);
    (waitcnt ? waitcntStalls : scoreboardStalls) += double(end - lo);
    // The DepStall span runs from here to the issue (issueInst).
    if (trace && wf.stallSince == InvalidCycle) {
        wf.stallSince = lo;
        wf.stallKind = waitcnt ? 1 : 0;
    }
    return false;
}

int
ComputeUnit::wedgeWavefront(unsigned slot)
{
    Wavefront *victim = nullptr;
    if (slot < slots.size() && slots[slot]->active &&
        !slots[slot]->st.done) {
        victim = slots[slot].get();
    } else {
        // The preferred slot is empty (e.g. the fault struck before
        // dispatch reached it): wedge the oldest live wavefront so a
        // planned fault always lands somewhere deterministic.
        for (auto &wf : slots) {
            if (!wf->active || wf->st.done)
                continue;
            if (!victim || wf->dispatchSeq < victim->dispatchSeq)
                victim = wf.get();
        }
    }
    if (!victim)
        return -1;
    victim->wedged = true;
    return int(victim->slot);
}

void
ComputeUnit::dumpWavefronts(unsigned cuIndex,
                            std::vector<WavefrontDump> &out) const
{
    for (const auto &wfp : slots) {
        const Wavefront &wf = *wfp;
        if (!wf.active)
            continue;
        const arch::WfState &st = wf.st;
        WavefrontDump d;
        d.cu = cuIndex;
        d.cuName = name();
        d.slot = wf.slot;
        d.wgId = st.wgId;
        d.kernel = st.code ? st.code->name() : "<none>";
        d.pc = st.code && wf.pcIdx < st.code->numInsts()
                   ? st.code->offsetOf(wf.pcIdx)
                   : st.pc;
        d.execMask = st.activeMask();
        d.vmCnt = st.vmCnt;
        d.lgkmCnt = st.lgkmCnt;
        d.atBarrier = st.atBarrier;
        if (wf.wg) {
            d.wgWfsAtBarrier = wf.wg->wfAtBarrier;
            d.wgWfsTotal = wf.wg->wfTotal;
        }
        d.rsDepth = st.rs.size();
        d.ibCount = wf.ibCount;
        d.fetchInFlight = wf.fetchInFlight;
        d.blockedUntil = wf.blockedUntil;
        d.wedged = wf.wedged;
        out.push_back(std::move(d));
    }
}

bool
ComputeUnit::tryFetch(Wavefront *wf, Cycle now)
{
    if (!canFetch(*wf))
        return false;
    const auto *code = wf->st.code;

    // Fetch one line's worth of instructions starting at the
    // next-fetch offset. sizeOf() reads the sealed offsets table — no
    // virtual sizeBytes() per scanned instruction.
    Addr addr = code->codeBase() + wf->ibNextFetch;
    Addr line_end = (addr / 64 + 1) * 64;
    unsigned fetched = 0;
    size_t idx = wf->ibNextIdx;
    Addr off = wf->ibNextFetch;
    while (idx < code->numInsts() && fetched < cfg.fetchWidth &&
           code->codeBase() + off < line_end) {
        off += code->sizeOf(idx);
        ++idx;
        ++fetched;
    }

    Cycle done = l1i->access(addr, false, now);
    progressLastTick = true;
    wf->fetchInFlight = true;
    uint64_t gen = wf->gen;
    size_t start_idx = wf->ibNextIdx;
    eq.schedule(done, [wf, gen, fetched, idx, off, start_idx]() {
        if (wf->gen != gen)
            return;
        wf->fetchInFlight = false;
        // A flush may have redirected fetch while this request was
        // in flight; drop the stale fill.
        if (wf->ibNextIdx != start_idx)
            return;
        wf->ibCount += fetched;
        wf->ibNextIdx = idx;
        wf->ibNextFetch = off;
    });
    return true;
}

void
ComputeUnit::fetchStage(Cycle now)
{
    // One fetch initiated per cycle (the L1I is shared per cluster;
    // its latency/misses come from the cache model). The round-robin
    // scan visits only slots holding live wavefronts: two ctz passes
    // over liveSlotMask (bits >= fetchRr, then the wrapped remainder)
    // visit them in (fetchRr + k) % n order.
    unsigned n = unsigned(slots.size());
    uint64_t live = liveSlotMask;
    uint64_t hi = live & (~0ull << fetchRr);
    for (uint64_t m = hi; m; m &= m - 1) {
        unsigned s = findLsb(m);
        if (tryFetch(slots[s].get(), now)) {
            fetchRr = (s + 1) % n;
            return;
        }
    }
    for (uint64_t m = live & ~hi; m; m &= m - 1) {
        unsigned s = findLsb(m);
        if (tryFetch(slots[s].get(), now)) {
            fetchRr = (s + 1) % n;
            return;
        }
    }
}

unsigned
ComputeUnit::fuIndex(const Wavefront &wf, const arch::ExecMeta &m) const
{
    switch (m.fu) {
      case arch::FuType::VAlu: return wf.simd;
      case arch::FuType::SAlu:
      case arch::FuType::SMem:
      case arch::FuType::Special: return FuScalar;
      case arch::FuType::Branch: return FuBranch;
      case arch::FuType::VMem: return FuVMem;
      case arch::FuType::Lds: return FuLds;
    }
    return FuScalar;
}

void
ComputeUnit::probeVectorOperands(Wavefront &wf, const arch::ExecMeta &m,
                                 bool defs)
{
    arch::WfState &st = wf.st;
    uint64_t mask = st.activeMask();
    unsigned lanes = popCount(mask);

    // vecRd/vecWr are the vector operands width-expanded in operand
    // order at predecode — the exact register sequence the old
    // regOps() double loop visited. Order matters: the reuse-distance
    // probe is order-dependent within an instruction.
    const uint16_t *regs = defs ? m.vecWr : m.vecRd;
    unsigned nregs = defs ? m.numVecWr : m.numVecRd;
    for (unsigned i = 0; i < nregs; ++i) {
        unsigned reg = regs[i];
        // A wide operand must fit inside the allocated register file;
        // the builder/finalizer guarantee this, the probe relies on it.
        assert(size_t(reg) < wf.vregProbe.size());
        Wavefront::VregProbe &probe = wf.vregProbe[reg];

        // Reuse distance (count each access once, on the read
        // pass for srcs and write pass for defs).
        if (probe.lastTouch != UINT64_MAX)
            vregReuseDist.sample(wf.dynInstCount - probe.lastTouch);
        probe.lastTouch = wf.dynInstCount;

        // Lane-value uniqueness: exact distinct-value count over
        // the active lanes via the scratch hash (identical to
        // sort+unique, without the copy or the ordering work). A read
        // under the mask of the register's last probe reuses that
        // probe's count (Wavefront::VregProbe); a def always recounts.
        if (lanes == 0) {
            if (defs)
                probe.uniqMask = 0;
            continue;
        }
        unsigned uniq;
        if (!defs && probe.uniqMask == mask) {
            uniq = probe.uniqCount;
        } else {
            uniq = laneUniq.count(st.vregs[reg].data(), mask);
            probe.uniqMask = mask;
            probe.uniqCount = uint8_t(uniq);
        }
        double ratio = double(uniq) / double(lanes);
        if (defs)
            vrfWriteUniq.sample(ratio);
        else
            vrfReadUniq.sample(ratio);
    }
}

Cycle
ComputeUnit::memAccessLatency(const arch::MemAccess &acc, Cycle now)
{
    using Kind = arch::MemAccess::Kind;
    switch (acc.kind) {
      case Kind::ScalarLoad:
        return scalarD->access(acc.scalarAddr, false, now);
      case Kind::KernargDirect:
        // Simulator-defined ABI: serviced from functional state.
        return now + 4;
      case Kind::LdsLoad:
      case Kind::LdsStore: {
        unsigned passes =
            mem::LdsBlock::conflictPasses(acc.laneAddrs, acc.mask);
        Cycle start = std::max(now, fuBusyUntil[FuLds]);
        fuBusyUntil[FuLds] = start + passes;
        return start + cfg.ldsLatency + passes - 1;
      }
      case Kind::VectorLoad:
      case Kind::VectorStore: {
        ++vmemWfAccesses;
        // Coalesce lane addresses into 64 B line requests. Masked
        // lanes are visited via count-trailing-zeros; each candidate
        // line goes through a bounded sorted-insertion dedup, so the
        // final array is exactly what sort+unique produced (ascending,
        // duplicate-free) and the line requests keep their timing.
        Addr lines[2 * WavefrontSize];
        unsigned n = 0;
        for (uint64_t m = acc.mask; m; m &= m - 1) {
            unsigned lane = findLsb(m);
            Addr first = acc.laneAddrs[lane] / 64;
            Addr last =
                (acc.laneAddrs[lane] + acc.bytesPerLane - 1) / 64;
            n = insertLineSorted(lines, n, first);
            if (last != first)
                n = insertLineSorted(lines, n, last);
        }
        coalescedLines += n;

        bool is_write = acc.kind == Kind::VectorStore;
        Cycle start = std::max(now, fuBusyUntil[FuVMem]);
        fuBusyUntil[FuVMem] = start + n; // one line issued per cycle
        Cycle done = start;
        for (unsigned i = 0; i < n; ++i)
            done = std::max(done,
                            l1d->access(lines[i] * 64, is_write,
                                        start + i));
        return done;
      }
    }
    return now + 1;
}

void
ComputeUnit::issueStage(Cycle now)
{
    // Oldest-first arbitration over runnable wavefronts. The age list
    // is already sorted (oldest first, Wavefront::olderThan); snapshot
    // the runnable set before issuing because issuing can change
    // runnability mid-tick (a barrier release makes siblings runnable;
    // they must wait for the next tick, exactly as before).
    issueOrder.clear();
    for (Wavefront *wf = ageHead; wf; wf = wf->ageNext)
        if (wf->runnable())
            issueOrder.push_back(wf);

    for (Wavefront *wf : issueOrder)
        if (chargeWait(*wf, now, now + 1))
            issueInst(*wf, wf->metas[wf->pcIdx], now);
}

void
ComputeUnit::issueInst(Wavefront &wf, const arch::ExecMeta &m, Cycle now)
{
    arch::WfState &st = wf.st;
    progressLastTick = true;

    // Tracing: close the dependency-stall span that ends with this
    // issue (opened by chargeWait at its first operand cycle).
    if (trace && wf.stallSince != InvalidCycle) {
        trace->emit(obs::TraceKind::DepStall, wf.stallSince,
                    now - wf.stallSince, wf.slot, wf.stallKind);
        wf.stallSince = InvalidCycle;
    }

    // --- classification (Figure 5, resolved at predecode) ---
    ++dynInsts;
    ++classInsts[unsigned(m.instClass)];

    // --- hazard probe: nothing interlocked this issue, so software
    // dependence management must have covered every read ---
    if (!m.interlocked) {
        for (unsigned i = 0; i < m.numOps; ++i) {
            const auto &op = m.ops[i];
            for (unsigned w = 0; w < op.width; ++w) {
                Cycle ready = op.cls == arch::RegClass::Vector
                    ? wf.vregReady[op.idx + w]
                    : wf.sregReady[op.idx + w];
                if (!op.isDef && ready > now) {
                    ++hazardViolations;
                    break;
                }
            }
        }
    }

    // --- probes ---
    bool vector_op = m.fu == arch::FuType::VAlu ||
                     m.fu == arch::FuType::VMem ||
                     m.fu == arch::FuType::Lds;
    unsigned conflict_cycles = 0;
    if (vector_op) {
        if (m.fu == arch::FuType::VAlu)
            valuUtilization.sample(popCount(st.activeMask()) / 64.0);
        conflict_cycles = chargeBankConflicts(wf, m, now);
        probeVectorOperands(wf, m, false);
    }

    // --- execute ---
    // Snapshot the RS depth around execute + the pop loop below: it
    // feeds the rsDepth histogram (pushes only) and, when tracing, the
    // RsPush/RsPop events — without plumbing either into the ISA
    // executors.
    size_t rs_before = st.rs.size();
    st.pc = st.code->offsetOf(wf.pcIdx);
    // Dispatch: one indirect call through the predecoded handler, or
    // the legacy virtual path when the reference engine is selected
    // (bit-identical either way; tests/test_exec_engine.cc). A memory
    // access, if any, is built in place in st.pendingAccess and
    // consumed by reference below — reset happens after use, so the
    // executors never pay for a 600-byte MemAccess copy.
    if (!cfg.execReference)
        m.handler(m, st);
    else
        m.inst->execute(st);
    ++wf.dynInstCount;
    ++wf.wg->launch->instsIssued;
    // A diverging branch pushed an RS entry inside execute: record the
    // depth reached (Figure 9's driver; the pop loop below only ever
    // shrinks it). Only the IL has an RS; elsewhere it stays empty.
    if (st.rs.size() > rs_before)
        rsDepth.sample(st.rs.size());

    if (vector_op) {
        probeVectorOperands(wf, m, true);
    } else {
        // A vector def off the vector pipes (PTXL's LDC runs on SMem)
        // gets no def probe, so its memo entries are dropped instead.
        for (unsigned i = 0; i < m.numVecWr; ++i)
            wf.vregProbe[m.vecWr[i]].uniqMask = 0;
    }

    // --- functional unit occupancy (bank conflicts add gather
    // cycles). Special instructions (nop/waitcnt/barrier/endpgm) are
    // handled by the sequencer and occupy no functional unit. ---
    unsigned fu = fuIndex(wf, m);
    if (m.fu != arch::FuType::Special)
        fuTakenUntil[fu] = now + 1;
    if (m.fu == arch::FuType::VAlu) {
        // A 64-lane WF occupies its 16-lane SIMD for 4 cycles.
        fuBusyUntil[fu] = now + cfg.wavefrontSize / cfg.simdWidth +
                          conflict_cycles;
    } else if (m.fu != arch::FuType::Special && fu < FuVMem) {
        fuBusyUntil[fu] =
            std::max(fuBusyUntil[fu], now + 1 + conflict_cycles);
    }

    // s_nop wait states block this WF's next issue (wait-state count
    // predigested into m.imm at predecode).
    if (m.is(arch::IsNop) && !m.interlocked)
        wf.blockedUntil = now + m.imm + 1;

    // --- result latency / memory timing ---
    // Memory results gate dependents at every level: the interlock
    // stalls on them, and for software-managed code they feed the
    // hazard probe (the waitcnt contract must cover them). ALU results
    // gate them only under an interlock — GCN3 hardware forwards
    // vector-to-vector results, and the finalizer's s_nop insertion
    // covers the documented scalar-side wait states.
    Cycle result_ready = now + 1;
    bool gates = m.interlocked;
    if (st.pendingAccess) {
        const arch::MemAccess &acc = *st.pendingAccess;
        result_ready = memAccessLatency(acc, now);
        gates = true;
        // Software dependence management counts the access until it
        // completes, for s_waitcnt to wait on.
        unsigned *cnt = m.interlocked ? nullptr
                      : acc.countsVmcnt() ? &st.vmCnt
                      : acc.countsLgkmcnt() ? &st.lgkmCnt : nullptr;
        if (cnt) {
            ++*cnt;
            uint64_t gen = wf.gen;
            Wavefront *wfp = &wf;
            eq.schedule(result_ready, [wfp, gen, cnt]() {
                if (wfp->gen == gen && *cnt > 0)
                    --*cnt;
            });
        }
        st.pendingAccess.reset();
    } else if (m.interlocked) {
        result_ready = now + m.latency(cfg);
    }
    if (gates) {
        for (unsigned i = 0; i < m.numOps; ++i) {
            const auto &op = m.ops[i];
            if (!op.isDef)
                continue;
            for (unsigned w = 0; w < op.width; ++w) {
                if (op.cls == arch::RegClass::Vector)
                    wf.vregReady[op.idx + w] = result_ready;
                else
                    wf.sregReady[op.idx + w] = result_ready;
            }
        }
    }

    // Tracing: one span per issued instruction, issue -> result-ready
    // (GCN3 non-memory results forward in 1 cycle; see above).
    if (trace)
        trace->emit(obs::TraceKind::InstIssue, now, result_ready - now,
                    wf.slot,
                    (uint64_t(st.pc) << 4) | uint64_t(m.instClass));

    // --- control-flow resolution ---
    Addr seq_next = st.pc + m.size;
    Addr new_pc = st.nextPc;
    unsigned flushes = new_pc != seq_next ? 1 : 0;
    if (!st.rs.empty()) {
        // Reconvergence-stack maintenance. Every pop that redirects
        // the PC to the other path (or back to the reconvergence
        // point) costs another front-end redirect — the extra IB
        // flushes the paper attributes to RS-managed divergence.
        st.rs.back().pc = new_pc;
        while (st.rs.size() > 1 &&
               st.rs.back().pc == st.rs.back().rpc) {
            st.rs.pop_back();
            if (st.rs.back().pc != new_pc) {
                new_pc = st.rs.back().pc;
                ++flushes;
            }
        }
    }

    // Tracing: net RS movement of this instruction (push from a
    // diverging branch inside execute, pops from the loop above).
    if (trace && st.rs.size() != rs_before)
        trace->emit(st.rs.size() > rs_before ? obs::TraceKind::RsPush
                                             : obs::TraceKind::RsPop,
                    now, 0, wf.slot, st.rs.size());

    if (st.done) {
        finishWavefront(wf);
        return;
    }

    st.pc = new_pc;
    if (flushes == 0) {
        --wf.ibCount;
        ++wf.pcIdx;
    } else {
        // Discontinuous PC: flush the instruction buffer and redirect
        // fetch (the front-end cost the paper highlights).
        ibFlushes += flushes;
        if (trace)
            trace->emit(obs::TraceKind::IbFlush, now, 0, wf.slot,
                        flushes);
        wf.ibCount = 0;
        wf.pcIdx = st.code->indexAt(new_pc);
        wf.ibNextIdx = wf.pcIdx;
        wf.ibNextFetch = new_pc;
    }

    if (st.atBarrier) {
        WgInstance &wg = *wf.wg;
        ++wg.wfAtBarrier;
        if (wg.wfAtBarrier + wg.wfDone >= wg.wfTotal)
            releaseBarrier(wg);
    }
}

void
ComputeUnit::releaseBarrier(WgInstance &wg)
{
    wg.wfAtBarrier = 0;
    for (auto &wf : slots)
        if (wf->active && wf->wg == &wg)
            wf->st.atBarrier = false;
}

void
ComputeUnit::finishWavefront(Wavefront &wf)
{
    WgInstance &wg = *wf.wg;
    if (trace)
        trace->emit(obs::TraceKind::WfEnd, eq.now(), 0, wf.slot,
                    wf.st.wgId);
    ageListUnlink(wf);
    wf.active = false;
    ++wf.gen;
    --activeWfs;
    ++wg.wfDone;
    if (wg.wfAtBarrier > 0 && wg.wfAtBarrier + wg.wfDone >= wg.wfTotal)
        releaseBarrier(wg);
    if (wg.wfDone == wg.wfTotal) {
        vrfUsed -= wg.vregsReserved;
        srfUsed -= wg.sregsReserved;
        ldsUsed -= wg.ldsReserved;
        ++wg.launch->wgsCompleted;
        if (wg.launch->complete())
            wg.launch->endCycle = eq.now();
        for (auto it = workgroups.begin(); it != workgroups.end(); ++it) {
            if (it->get() == &wg) {
                workgroups.erase(it);
                break;
            }
        }
    }
}

} // namespace last::cu
