#include "gpu/gpu.hh"

#include <algorithm>

#include "common/logging.hh"
#include "sim/faultinject.hh"

namespace last::gpu
{

Gpu::Gpu(const GpuConfig &cfg, mem::FunctionalMemory &memory,
         stats::Group *parent)
    : stats::Group("gpu", parent),
      totalCycles(this, "totalCycles", "cycles simulated"),
      kernelLaunches(this, "kernelLaunches", "kernels dispatched"),
      cfg(cfg), memory(memory)
{
    // A CU's live-slot mask is one 64-bit word.
    fatal_if(cfg.wfSlotsPerCu == 0 || cfg.wfSlotsPerCu > 64,
             "wfSlotsPerCu = %u: a CU holds 1 to 64 wavefront slots",
             cfg.wfSlotsPerCu);
    dram = std::make_unique<mem::Dram>("dram", cfg, this);

    unsigned clusters =
        (cfg.numCus + cfg.cusPerCluster - 1) / cfg.cusPerCluster;
    for (unsigned c = 0; c < clusters; ++c) {
        l2s.push_back(std::make_unique<mem::Cache>(
            "l2_" + std::to_string(c), cfg.l2, dram.get(), this));
        l1is.push_back(std::make_unique<mem::Cache>(
            "l1i_" + std::to_string(c), cfg.l1i, l2s[c].get(), this));
        scalarDs.push_back(std::make_unique<mem::Cache>(
            "sqc_" + std::to_string(c), cfg.scalarD, l2s[c].get(),
            this));
    }

    for (unsigned i = 0; i < cfg.numCus; ++i) {
        unsigned c = i / cfg.cusPerCluster;
        l1ds.push_back(std::make_unique<mem::Cache>(
            "l1d_" + std::to_string(i), cfg.l1d, l2s[c].get(), this));
        cus.push_back(std::make_unique<cu::ComputeUnit>(
            "cu_" + std::to_string(i), cfg, eq, l1ds[i].get(),
            l1is[c].get(), scalarDs[c].get(), &memory, this));
    }

    wireTraceStreams();
    armFaults();
}

void
Gpu::wireTraceStreams()
{
    if (!cfg.trace)
        return;
    obs::TraceSink &sink = *cfg.trace;
    gpuTrace = sink.makeStream("gpu", obs::TidGpu);
    for (size_t i = 0; i < cus.size(); ++i)
        cus[i]->setTraceStream(sink.makeStream(
            "cu_" + std::to_string(i), obs::TidCuBase + unsigned(i)));
    // Cache tracks follow the CU tracks: per-CU L1Ds first, then the
    // per-cluster shared levels.
    unsigned tid = obs::TidCacheBase;
    for (auto &c : l1ds)
        c->setTraceStream(sink.makeStream(c->name(), tid++));
    for (auto &c : l1is)
        c->setTraceStream(sink.makeStream(c->name(), tid++));
    for (auto &c : scalarDs)
        c->setTraceStream(sink.makeStream(c->name(), tid++));
    for (auto &c : l2s)
        c->setTraceStream(sink.makeStream(c->name(), tid++));
}

void
Gpu::armFaults()
{
    if (!cfg.faultPlan)
        return;
    const auto &faults = cfg.faultPlan->faults;
    for (size_t i = 0; i < faults.size(); ++i) {
        const sim::Fault &f = faults[i];
        switch (f.kind) {
          case sim::FaultKind::CacheDelay:
            l1ds[f.cu % cus.size()]->injectResponseFault(
                f.cycle, f.extraLatency, f.count);
            break;
          case sim::FaultKind::CacheDrop:
            l1ds[f.cu % cus.size()]->injectResponseFault(
                f.cycle, sim::DroppedResponseLatency, f.count);
            break;
          case sim::FaultKind::MemBitFlip:
          case sim::FaultKind::WedgeWavefront:
            // Cycle-triggered: applied from the tick loop.
            pendingFaults.push_back(i);
            nextFaultCycle = std::min(nextFaultCycle, f.cycle);
            break;
        }
    }
}

void
Gpu::applyDueFaults(Cycle now)
{
    nextFaultCycle = InvalidCycle;
    std::erase_if(pendingFaults, [&](size_t i) {
        const sim::Fault &f = cfg.faultPlan->faults[i];
        if (f.cycle > now) {
            nextFaultCycle = std::min(nextFaultCycle, f.cycle);
            return false;
        }
        if (f.kind == sim::FaultKind::MemBitFlip) {
            uint8_t byte = memory.read<uint8_t>(f.addr);
            byte ^= uint8_t(1u << (f.bit % 8));
            memory.write<uint8_t>(f.addr, byte);
            return true;
        }
        // WedgeWavefront: if no wavefront is live yet (the fault
        // struck before dispatch), stay armed and strike as soon as
        // one is.
        if (cus[f.cu % cus.size()]->wedgeWavefront(f.wfSlot) >= 0)
            return true;
        nextFaultCycle = std::min(nextFaultCycle, now + 1);
        return false;
    });
}

void
Gpu::launch(cu::KernelLaunch &launch)
{
    const auto &code = *launch.code;
    unsigned wf_per_wg =
        (launch.wgSize + cfg.wavefrontSize - 1) / cfg.wavefrontSize;
    fatal_if(code.vregsUsed * wf_per_wg > cfg.vrfEntriesPerCu,
             "kernel %s needs %u vector registers per workgroup but a "
             "CU has %u",
             code.name().c_str(), code.vregsUsed * wf_per_wg,
             cfg.vrfEntriesPerCu);
    fatal_if(code.isa() == IsaKind::GCN3 &&
                 code.sregsUsed * wf_per_wg > cfg.srfEntriesPerCu,
             "kernel %s needs %u scalar registers per workgroup but a "
             "CU has %u",
             code.name().c_str(), code.sregsUsed * wf_per_wg,
             cfg.srfEntriesPerCu);
    fatal_if(code.ldsBytesPerWg > cfg.ldsBytesPerCu,
             "kernel %s needs %llu LDS bytes per workgroup",
             code.name().c_str(),
             (unsigned long long)code.ldsBytesPerWg);

    ++kernelLaunches;
    launch.startCycle = eq.now();
    liveLaunches.push_back(&launch);
    for (unsigned wg = 0; wg < launch.numWorkgroups(); ++wg)
        pendingWgs.push_back({&launch, wg});
}

bool
Gpu::dispatchPending()
{
    bool any = false;
    while (!pendingWgs.empty()) {
        const cu::WorkgroupTask &task = pendingWgs.front();
        bool placed = false;
        for (unsigned k = 0; k < cus.size(); ++k) {
            unsigned i = (dispatchRr + k) % cus.size();
            if (cus[i]->canAccept(task)) {
                cus[i]->accept(task);
                dispatchRr = (i + 1) % cus.size();
                placed = true;
                any = true;
                break;
            }
        }
        if (!placed)
            break;
        pendingWgs.pop_front();
    }
    return any;
}

bool
Gpu::idle() const
{
    // Completed launches retire from liveLaunches as their last
    // workgroup finishes, so this is three cheap emptiness checks.
    if (!pendingWgs.empty() || !liveLaunches.empty())
        return false;
    for (const auto &c : cus)
        if (c->busy())
            return false;
    return true;
}

void
Gpu::tick()
{
    if (nextFaultCycle != InvalidCycle && eq.now() >= nextFaultCycle)
        applyDueFaults(eq.now());
    bool progress = dispatchPending();
    for (auto &c : cus) {
        c->tick();
        progress |= c->madeProgress();
    }
    eq.tick();
    ++totalCycles;
    // Launch completion requires an instruction to have issued, so
    // only scan for retirement on progress ticks.
    if (progress && !liveLaunches.empty())
        std::erase_if(liveLaunches, [](const cu::KernelLaunch *l) {
            return l->complete();
        });
    progressLastTick = progress;
}

void
Gpu::throwDeadlock(const std::string &reason, Cycle lastProgress)
{
    DeadlockInfo info;
    info.cycle = eq.now();
    info.lastProgressCycle = lastProgress;
    info.instsIssued = uint64_t(sumCuStat("dynInsts"));
    info.reason = reason;
    for (unsigned i = 0; i < cus.size(); ++i)
        cus[i]->dumpWavefronts(i, info.wavefronts);
    if (gpuTrace)
        gpuTrace->emit(obs::TraceKind::Watchdog, eq.now(), 0,
                       gpuTrace->intern(reason));
    throw DeadlockError(std::move(info));
}

Cycle
Gpu::runToCompletion()
{
    Cycle start = eq.now();
    Cycle lastProgress = start;
    const uint64_t stallLimit = cfg.watchdogStallCycles;
    const uint64_t budget = cfg.watchdogMaxCycles;
    const bool hasWallDeadline =
        cfg.wallDeadline != std::chrono::steady_clock::time_point{};
    uint64_t wallPoll = 0;
    while (!idle()) {
        tick();
        Cycle now = eq.now();
        // Wall-clock watchdog (opt-in; see GpuConfig::wallDeadline).
        // Polled on the first tick and every 1024 after: cheap enough
        // to never matter, tight enough that a shard under
        // --timeout-ms dies within milliseconds of its deadline — and
        // a kernel launched when the budget is already spent (short
        // event loops never reaching a sparser poll mark) still trips
        // it immediately.
        if (hasWallDeadline && (wallPoll++ & 1023) == 0 &&
            std::chrono::steady_clock::now() >= cfg.wallDeadline) {
            throwDeadlock("wall-clock deadline exceeded (timeout)",
                          lastProgress);
        }
        if (progressLastTick) {
            lastProgress = now;
        } else if (stallLimit && now - lastProgress > stallLimit) {
            throwDeadlock("no instruction fetched, issued, or "
                          "dispatched in " +
                              std::to_string(now - lastProgress) +
                              " cycles",
                          lastProgress);
        }
        if (budget && now - start > budget)
            throwDeadlock("cycle budget of " + std::to_string(budget) +
                              " cycles exceeded",
                          lastProgress);
        if (!progressLastTick && cfg.fastForwardIdle) {
            // Nothing fetched, issued, or dispatched this cycle: jump
            // the clock to the next event-queue callback or time-gated
            // wakeup, whichever comes first, charging the skipped
            // cycles to the same counters the per-cycle loop would
            // have bumped (the run stays statistic-identical).
            Cycle target = InvalidCycle;
            for (const auto &c : cus)
                target = std::min(target, c->nextProgressCycle(now));
            // Never jump past a pending injected fault or a watchdog
            // deadline: a wedged GPU's wakeup cycle can be absurdly
            // far away (or nonexistent), and the watchdog must fire at
            // its configured threshold, not after the jump.
            target = std::min(target, nextFaultCycle);
            if (stallLimit)
                target = std::min(target, lastProgress + stallLimit + 1);
            if (budget)
                target = std::min(target, start + budget + 1);
            Cycle skipped = eq.fastForwardTo(target);
            if (skipped) {
                totalCycles += double(skipped);
                for (auto &c : cus)
                    c->chargeSkippedCycles(now, skipped);
                if (gpuTrace)
                    gpuTrace->emit(obs::TraceKind::IdleSkip, now, skipped,
                                   skipped);
            }
        }
    }
    return eq.now() - start;
}

double
Gpu::sumCuStat(const std::string &name) const
{
    double total = 0;
    for (const auto &c : cus) {
        if (const auto *s = c->find(name))
            total += s->value();
    }
    return total;
}

int
Gpu::cuStatIndex(const std::string &name) const
{
    if (cus.empty())
        return -1;
    const auto &stats = cus[0]->localStats();
    for (size_t i = 0; i < stats.size(); ++i)
        if (stats[i]->name() == name)
            return int(i);
    return -1;
}

double
Gpu::sumCuStat(int statIdx) const
{
    if (statIdx < 0)
        return 0;
    double total = 0;
    for (const auto &c : cus)
        total += c->localStats()[statIdx]->value();
    return total;
}

} // namespace last::gpu
