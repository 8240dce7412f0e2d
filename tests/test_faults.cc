/**
 * @file
 * Fault-tolerance suite: the deterministic fault-injection subsystem,
 * the forward-progress watchdog, the recoverable error model at the
 * memory boundary, and the graceful-degradation sweep.
 *
 * The fault-sensitivity tests double as a robustness-flavoured
 * restatement of the paper's thesis: a *data* fault (bit flip) is
 * abstraction-invariant — both ISA levels fail verification with the
 * same corrupted digest — while a *timing* fault (delayed cache
 * responses) leaves functional results untouched and shifts cycle
 * counts by ISA-dependent amounts.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "helpers.hh"
#include "memory/functional_memory.hh"
#include "sim/faultinject.hh"
#include "sim/parallel.hh"

using namespace last;

namespace
{

constexpr double TestScale = 0.25;

/** A config whose watchdog trips quickly (tests must not wait for the
 *  production default of a million stalled cycles). */
GpuConfig
watchdogConfig(const sim::FaultPlan *plan, uint64_t stall = 2000)
{
    GpuConfig cfg;
    cfg.watchdogStallCycles = stall;
    cfg.faultPlan = plan;
    return cfg;
}

} // namespace

TEST(FaultPlan, SeedDrivenGenerationIsDeterministic)
{
    auto a = sim::FaultPlan::random(42, 16, 10000, 0x10000,
                                    0x20000, 8, 40);
    auto b = sim::FaultPlan::random(42, 16, 10000, 0x10000, 0x20000, 8,
                                    40);
    auto c = sim::FaultPlan::random(43, 16, 10000, 0x10000, 0x20000, 8,
                                    40);
    ASSERT_EQ(a.faults.size(), 16u);
    EXPECT_EQ(a.describe(), b.describe());
    EXPECT_NE(a.describe(), c.describe());
}

TEST(FaultPlan, BuildersDescribeTheFault)
{
    EXPECT_NE(sim::FaultPlan::wedge(3, 7, 500).describe().find(
                  "wedge-wavefront@500 cu=3 wf=7"),
              std::string::npos);
    EXPECT_NE(sim::FaultPlan::bitFlip(0x10040, 3, 9).describe().find(
                  "mem-bit-flip@9 addr=0x10040 bit=3"),
              std::string::npos);
    EXPECT_NE(sim::FaultPlan::cacheDrop(1, 50).describe().find(
                  "cache-drop@50 cu=1"),
              std::string::npos);
    EXPECT_TRUE(sim::FaultPlan{}.empty());
}

TEST(Watchdog, WedgedWavefrontTripsWithUsableDump)
{
    auto plan = sim::FaultPlan::wedge(0, 0, 500);
    GpuConfig cfg = watchdogConfig(&plan);
    for (IsaKind isa : {IsaKind::HSAIL, IsaKind::GCN3}) {
        SCOPED_TRACE(isaName(isa));
        try {
            sim::runApp("VecAdd", isa, cfg, {TestScale});
            FAIL() << "expected DeadlockError";
        } catch (const DeadlockError &e) {
            const DeadlockInfo &info = e.info();
            EXPECT_GT(info.cycle, info.lastProgressCycle);
            EXPECT_GT(info.instsIssued, 0u);
            ASSERT_FALSE(info.wavefronts.empty());
            // The dump must name the wedged culprit on the CU the
            // fault targeted.
            bool found = false;
            for (const auto &wf : info.wavefronts)
                if (wf.wedged) {
                    found = true;
                    EXPECT_EQ(wf.cu, 0u);
                    EXPECT_EQ(wf.cuName, "cu_0");
                }
            EXPECT_TRUE(found);
            EXPECT_NE(e.dump().find("WEDGED"), std::string::npos);
            EXPECT_NE(e.dump().find("cu_0"), std::string::npos);
            EXPECT_NE(std::string(e.what()).find("deadlock"),
                      std::string::npos);
        }
    }
}

TEST(Watchdog, FiresAtThresholdWithAndWithoutFastForward)
{
    // The idle fast-forward must not jump past the watchdog deadline:
    // both modes trip within a tick or two of lastProgress + limit.
    auto plan = sim::FaultPlan::wedge(0, 0, 500);
    for (bool ff : {true, false}) {
        SCOPED_TRACE(ff ? "fast-forward" : "full ticking");
        GpuConfig cfg = watchdogConfig(&plan);
        cfg.fastForwardIdle = ff;
        try {
            sim::runApp("VecAdd", IsaKind::GCN3, cfg, {TestScale});
            FAIL() << "expected DeadlockError";
        } catch (const DeadlockError &e) {
            Cycle waited = e.info().cycle - e.info().lastProgressCycle;
            EXPECT_GT(waited, cfg.watchdogStallCycles);
            EXPECT_LE(waited, cfg.watchdogStallCycles + 2);
        }
    }
}

TEST(Watchdog, CycleBudgetExceeded)
{
    GpuConfig cfg;
    cfg.watchdogMaxCycles = 500; // far below any real kernel
    try {
        sim::runApp("BitonicSort", IsaKind::HSAIL, cfg, {TestScale});
        FAIL() << "expected DeadlockError";
    } catch (const DeadlockError &e) {
        EXPECT_NE(e.info().reason.find("cycle budget"),
                  std::string::npos);
    }
}

TEST(Watchdog, DroppedCacheResponseDeadlocksBothIsas)
{
    // A response that never arrives wedges the dependency model — the
    // scoreboard on HSAIL, s_waitcnt on GCN3 — and only the watchdog
    // can resolve the run.
    auto plan = sim::FaultPlan::cacheDrop(0, 50, 1);
    GpuConfig cfg = watchdogConfig(&plan);
    for (IsaKind isa : {IsaKind::HSAIL, IsaKind::GCN3}) {
        SCOPED_TRACE(isaName(isa));
        EXPECT_THROW(sim::runApp("VecAdd", isa, cfg, {TestScale}),
                     DeadlockError);
    }
}

TEST(FaultSensitivity, DataBitFlipIsAbstractionInvariant)
{
    // Global data lives at 0x10000 (the runtime's bump-allocator
    // base), so low global addresses are VecAdd's input arrays. Find a
    // flip that actually corrupts the computation, then check both ISA
    // levels agree on the damage: same verification failure, same
    // corrupted digest. Functional results are abstraction-invariant —
    // a data fault cannot tell the two levels apart.
    auto clean = sim::runMany({{"VecAdd", IsaKind::HSAIL, {}, {TestScale}},
                               {"VecAdd", IsaKind::GCN3, {}, {TestScale}}});
    sim::checkAgreement({&clean[0], &clean[1]});
    bool corrupted_once = false;
    for (Addr addr : {0x10000ull, 0x10040ull, 0x10080ull, 0x100c0ull}) {
        SCOPED_TRACE(addr);
        auto plan = sim::FaultPlan::bitFlip(addr, 3, 0);
        GpuConfig cfg;
        cfg.faultPlan = &plan;
        auto h = sim::runApp("VecAdd", IsaKind::HSAIL, cfg, {TestScale});
        auto g = sim::runApp("VecAdd", IsaKind::GCN3, cfg, {TestScale});
        EXPECT_EQ(h.verified, g.verified);
        EXPECT_EQ(h.digest, g.digest);
        if (!h.verified) {
            corrupted_once = true;
            EXPECT_NE(h.digest, clean[0].digest);
        }
    }
    EXPECT_TRUE(corrupted_once)
        << "no flip hit live input data; test addresses are stale";
}

TEST(FaultSensitivity, CacheDelayShiftsTimingButNotResults)
{
    // The complementary case: a timing fault is invisible to the
    // functional level (digests unchanged, verification passes) but
    // the cycle cost of the *same* delayed responses differs between
    // abstraction levels — dependence on memory timing is exactly
    // where the paper says the levels diverge.
    auto plan = sim::FaultPlan::cacheDelay(0, 0, 300);
    GpuConfig cfg;
    cfg.faultPlan = &plan;
    uint64_t delta[2] = {0, 0};
    int i = 0;
    for (IsaKind isa : {IsaKind::HSAIL, IsaKind::GCN3}) {
        SCOPED_TRACE(isaName(isa));
        auto clean = sim::runApp("VecAdd", isa, GpuConfig{}, {TestScale});
        auto slow = sim::runApp("VecAdd", isa, cfg, {TestScale});
        EXPECT_TRUE(slow.verified);
        EXPECT_EQ(slow.digest, clean.digest);
        EXPECT_EQ(slow.dynInsts, clean.dynInsts);
        ASSERT_GT(slow.cycles, clean.cycles);
        delta[i++] = slow.cycles - clean.cycles;
    }
    EXPECT_NE(delta[0], delta[1])
        << "both ISA levels paid identical cycle costs for the same "
           "timing fault";
}

TEST(MemoryGuards, OutOfRangeAccessCarriesContext)
{
    mem::FunctionalMemory m;
    m.setOwner("VecAdd/HSAIL");
    uint8_t buf[16] = {};
    try {
        m.read(mem::FunctionalMemory::AddrSpaceBytes + 0x100, buf, 16);
        FAIL() << "expected MemoryError";
    } catch (const MemoryError &e) {
        EXPECT_EQ(e.kind(), ErrorKind::Memory);
        EXPECT_EQ(e.faultAddr,
                  mem::FunctionalMemory::AddrSpaceBytes + 0x100);
        EXPECT_EQ(e.accessSize, 16u);
        EXPECT_FALSE(e.isWrite);
        EXPECT_EQ(e.owner, "VecAdd/HSAIL");
        EXPECT_NE(std::string(e.what()).find("VecAdd/HSAIL"),
                  std::string::npos);
    }
    // A range that straddles the limit is rejected even though its
    // base is in range.
    EXPECT_THROW(
        m.write(mem::FunctionalMemory::AddrSpaceBytes - 8, buf, 16),
        MemoryError);
    // In-range accesses still work, right up to the last byte.
    m.write(mem::FunctionalMemory::AddrSpaceBytes - 16, buf, 16);
}

TEST(MemoryGuards, WrapAroundIsRejected)
{
    mem::FunctionalMemory m;
    uint8_t buf[32] = {};
    try {
        m.write(~0ull - 4, buf, 32);
        FAIL() << "expected MemoryError";
    } catch (const MemoryError &e) {
        EXPECT_TRUE(e.isWrite);
        EXPECT_EQ(e.accessSize, 32u);
        EXPECT_NE(std::string(e.what()).find("wraps"),
                  std::string::npos);
    }
}

TEST(IsaAgreement, ReportsFirstDivergingField)
{
    sim::AppResult h, g, p;
    h.workload = g.workload = p.workload = "Fake";
    h.isa = IsaKind::HSAIL;
    g.isa = IsaKind::GCN3;
    p.isa = IsaKind::PTXL;
    h.verified = g.verified = p.verified = true;
    h.digest = g.digest = p.digest = 0xabcd;
    h.launches.push_back({"k0", 10, 100});
    g.launches.push_back({"k0", 12, 90}); // timing may differ freely
    p.launches.push_back({"k0", 14, 80});
    EXPECT_NO_THROW(sim::checkAgreement({&h, &g, &p}));

    auto mismatchOf = [](std::vector<const sim::AppResult *> levels) {
        try {
            sim::checkAgreement(levels);
        } catch (const sim::IsaMismatchError &e) {
            EXPECT_EQ(e.kind(), ErrorKind::Mismatch);
            EXPECT_EQ(e.message(), e.report().format());
            return e.report();
        }
        ADD_FAILURE() << "expected IsaMismatchError";
        return sim::MismatchReport{};
    };

    // HSAIL/GCN3: failed divergence reports embed this exact text.
    g.digest = 0xdead;
    sim::MismatchReport r = mismatchOf({&h, &g});
    EXPECT_EQ(r.field, "digest");
    EXPECT_EQ(r.launchIndex, -1);
    EXPECT_EQ(r.format(), "cross-ISA mismatch in Fake: digest diverges: "
                          "HSAIL=43981 GCN3=57005");

    // HSAIL/PTXL: the message names the level that disagreed.
    g.digest = h.digest;
    p.digest = 0xdead;
    r = mismatchOf({&h, &p});
    EXPECT_EQ(r.b.isa, IsaKind::PTXL);
    EXPECT_EQ(r.format(), "cross-ISA mismatch in Fake: digest diverges: "
                          "HSAIL=43981 PTXL=57005");

    // Three levels, the third disagreeing: checked against the first.
    r = mismatchOf({&h, &g, &p});
    EXPECT_EQ(r.a.isa, IsaKind::HSAIL);
    EXPECT_EQ(r.a.value, "43981");
    EXPECT_EQ(r.b.isa, IsaKind::PTXL);
    EXPECT_EQ(r.b.value, "57005");
    EXPECT_NE(r.format().find("PTXL=57005"), std::string::npos);

    p.digest = h.digest;
    g.launches[0].kernel = "k1";
    r = mismatchOf({&h, &g, &p});
    EXPECT_EQ(r.field, "launch.kernel");
    EXPECT_EQ(r.launchIndex, 0);
    EXPECT_EQ(r.a.value, "k0");
    EXPECT_EQ(r.b.isa, IsaKind::GCN3);
    EXPECT_EQ(r.b.value, "k1");
}

TEST(IsaAgreement, SimulatedLevelsAgree)
{
    // The healthy path: both levels agree, so the check passes with
    // equal digests (it threw otherwise).
    auto rs = sim::runMany({{"VecAdd", IsaKind::HSAIL, {}, {TestScale}},
                            {"VecAdd", IsaKind::GCN3, {}, {TestScale}}});
    EXPECT_NO_THROW(sim::checkAgreement({&rs[0], &rs[1]}));
    EXPECT_EQ(rs[0].digest, rs[1].digest);
}

TEST(SweepQuarantine, CollectReturnsPerTaskErrors)
{
    int ran = 0;
    std::vector<std::function<void()>> tasks = {
        [&] { ++ran; },
        [] { throw std::runtime_error("task 1 died"); },
        [&] { ++ran; },
    };
    auto errors = sim::parallelInvokeCollect(tasks, 2);
    ASSERT_EQ(errors.size(), 3u);
    EXPECT_FALSE(errors[0]);
    ASSERT_TRUE(bool(errors[1]));
    EXPECT_FALSE(errors[2]);
    EXPECT_EQ(ran, 2);
    try {
        std::rethrow_exception(errors[1]);
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "task 1 died");
    }
}

TEST(SweepQuarantine, FailedSpecIsRetriedAndQuarantined)
{
    std::vector<sim::RunSpec> specs = {
        {"VecAdd", IsaKind::HSAIL, GpuConfig{}, {TestScale}},
        {"NoSuchWorkload", IsaKind::GCN3, GpuConfig{}, {TestScale}},
        {"ArrayBW", IsaKind::GCN3, GpuConfig{}, {TestScale}},
    };
    auto report = sim::runSweep(specs, {.jobs = 3});
    EXPECT_FALSE(report.allOk());
    ASSERT_EQ(report.results.size(), 3u);
    ASSERT_EQ(report.quarantined.size(), 1u);

    const sim::QuarantinedRun &q = report.quarantined[0];
    EXPECT_EQ(q.index, 1u);
    EXPECT_EQ(q.spec.workload, "NoSuchWorkload");
    EXPECT_TRUE(q.retried); // deterministic failures fail twice
    EXPECT_EQ(q.errorKind, "fatal");
    EXPECT_NE(q.errorMessage.find("unknown workload"),
              std::string::npos);

    EXPECT_TRUE(report.results[1].quarantined);
    EXPECT_EQ(report.results[1].errorKind, "fatal");
    EXPECT_FALSE(report.results[0].quarantined);
    EXPECT_TRUE(report.results[0].verified);
    EXPECT_FALSE(report.results[2].quarantined);
    EXPECT_TRUE(report.results[2].verified);

    EXPECT_NE(report.format().find("NoSuchWorkload"), std::string::npos);
    EXPECT_NE(report.format().find("1 of 3"), std::string::npos);
}

TEST(SweepQuarantine, TwelveSpecSweepSurvivesOneWedgedWavefront)
{
    // The acceptance scenario: a 12-spec sweep where one spec's GPU
    // wedges mid-kernel. The sweep must complete, quarantine exactly
    // the poisoned spec with a DeadlockError naming the wedged CU and
    // wavefront, and leave every other row identical to a fault-free
    // serial run.
    const std::vector<std::string> workloads = {
        "VecAdd", "ArrayBW", "BitonicSort", "SpMV", "MD", "SNAP"};
    std::vector<sim::RunSpec> specs;
    for (const auto &w : workloads) {
        specs.push_back({w, IsaKind::HSAIL, GpuConfig{}, {TestScale}});
        specs.push_back({w, IsaKind::GCN3, GpuConfig{}, {TestScale}});
    }
    ASSERT_EQ(specs.size(), 12u);

    const size_t poisoned = 5; // BitonicSort / GCN3
    auto plan = sim::FaultPlan::wedge(0, 0, 1000);
    specs[poisoned].cfg = watchdogConfig(&plan);

    auto report = sim::runSweep(specs, {.jobs = 4});

    ASSERT_EQ(report.results.size(), 12u);
    ASSERT_EQ(report.quarantined.size(), 1u);
    const sim::QuarantinedRun &q = report.quarantined[0];
    EXPECT_EQ(q.index, poisoned);
    EXPECT_EQ(q.errorKind, "deadlock");
    EXPECT_TRUE(q.retried);
    EXPECT_NE(q.detail.find("WEDGED"), std::string::npos);
    EXPECT_NE(q.detail.find("cu_0"), std::string::npos);
    EXPECT_TRUE(report.results[poisoned].quarantined);

    for (size_t i = 0; i < specs.size(); ++i) {
        if (i == poisoned)
            continue;
        SCOPED_TRACE(specs[i].workload + "/" +
                     std::string(isaName(specs[i].isa)));
        const sim::RunSpec &s = specs[i];
        auto serial = sim::runApp(s.workload, s.isa, s.cfg, s.scale);
        test::expectSameResult(report.results[i], serial);
    }
}
