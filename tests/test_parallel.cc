/**
 * @file
 * Tests for the parallel experiment driver and the simulation
 * hot-path optimizations that ride with it:
 *  - parallel sweeps must be field-for-field identical to serial ones;
 *  - worker exceptions must surface to the caller, never hang;
 *  - the FunctionalMemory touched-line bitmap must preserve the old
 *    line-set footprint semantics (property test);
 *  - the GPU's idle-cycle fast-forward must be statistic-identical to
 *    full per-cycle ticking.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <thread>
#include <unordered_set>

#include "common/random.hh"
#include "helpers.hh"
#include "memory/functional_memory.hh"
#include "sim/parallel.hh"

using namespace last;

namespace
{

std::vector<sim::RunSpec>
smallSweep()
{
    workloads::WorkloadScale scale{0.25};
    std::vector<sim::RunSpec> specs;
    // Three Table 5 applications plus the four stress workloads: the
    // sweep-identity contract must hold for multi-dispatch, atomic,
    // LDS-bound, and irregular-divergence shapes too.
    for (const char *w : {"VecAdd", "ArrayBW", "BitonicSort", "atomicred",
                          "ldsswizzle", "bfsgraph", "pipeline"}) {
        specs.push_back({w, IsaKind::HSAIL, GpuConfig{}, scale});
        specs.push_back({w, IsaKind::GCN3, GpuConfig{}, scale});
    }
    return specs;
}

} // namespace

TEST(ParallelDriver, MatchesSerialFieldForField)
{
    auto specs = smallSweep();
    auto serial = sim::runMany(specs, 1);
    auto parallel = sim::runMany(specs, 4);
    ASSERT_EQ(serial.size(), parallel.size());
    for (size_t i = 0; i < serial.size(); ++i) {
        SCOPED_TRACE(specs[i].workload + "/" +
                     std::string(isaName(specs[i].isa)));
        test::expectSameResult(serial[i], parallel[i]);
    }
}

TEST(ParallelDriver, WorkerExceptionPropagates)
{
    // An unknown workload makes runApp throw inside a worker; the
    // driver must join all workers and rethrow, not hang or abort.
    std::vector<sim::RunSpec> specs = {
        {"VecAdd", IsaKind::HSAIL, GpuConfig{},
         workloads::WorkloadScale{0.25}},
        {"NoSuchWorkload", IsaKind::HSAIL, GpuConfig{},
         workloads::WorkloadScale{0.25}},
    };
    EXPECT_THROW(sim::runMany(specs, 4), std::runtime_error);
    EXPECT_THROW(sim::runMany(specs, 1), std::runtime_error);
}

TEST(ParallelDriver, LowestIndexExceptionWins)
{
    // Matches what a serial loop would have thrown first.
    std::vector<std::function<void()>> tasks = {
        [] { throw std::runtime_error("first"); },
        [] { throw std::logic_error("second"); },
    };
    try {
        sim::parallelInvoke(tasks, 2);
        FAIL() << "expected an exception";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "first");
    }
}

TEST(ParallelDriver, StealingRunsEveryTaskExactlyOnce)
{
    // Skewed durations force the pool off its static seed chunks: the
    // first quarter of the tasks (worker 0's whole chunk at 4 workers)
    // sleep long enough that the other workers drain their chunks and
    // come stealing. Whatever the schedule does, every task must run
    // exactly once.
    constexpr int N = 64;
    std::vector<std::atomic<int>> ran(N);
    std::vector<std::function<void()>> tasks;
    for (int i = 0; i < N; ++i) {
        tasks.push_back([&ran, i] {
            std::this_thread::sleep_for(
                std::chrono::microseconds(i < N / 4 ? 2000 : 20));
            ran[size_t(i)].fetch_add(1, std::memory_order_relaxed);
        });
    }
    sim::PoolStats stats;
    auto errors = sim::parallelInvokeCollect(tasks, 4, &stats);
    ASSERT_EQ(errors.size(), size_t(N));
    for (int i = 0; i < N; ++i) {
        EXPECT_EQ(ran[size_t(i)].load(), 1) << "task " << i;
        EXPECT_EQ(errors[size_t(i)], nullptr) << "task " << i;
    }
    // With this skew the idle workers must have stolen at least once
    // (worker 0 alone holds ~32 ms of sleep; the rest finish theirs in
    // under a millisecond).
    EXPECT_GT(stats.steals, 0u);
    EXPECT_GE(stats.stolenTasks, stats.steals);
}

TEST(ParallelDriver, ExceptionSlotsCorrectUnderStealing)
{
    // parallelInvokeCollect must park each exception in the *input
    // slot* of the task that threw it, no matter which worker ended up
    // running the task.
    std::vector<std::function<void()>> tasks;
    for (int i = 0; i < 32; ++i) {
        if (i % 7 == 3) {
            tasks.push_back([i] {
                std::this_thread::sleep_for(std::chrono::microseconds(200));
                throw std::runtime_error("task " + std::to_string(i));
            });
        } else {
            tasks.push_back([] {
                std::this_thread::sleep_for(std::chrono::microseconds(50));
            });
        }
    }
    auto errors = sim::parallelInvokeCollect(tasks, 4);
    ASSERT_EQ(errors.size(), tasks.size());
    for (int i = 0; i < 32; ++i) {
        if (i % 7 == 3) {
            ASSERT_NE(errors[size_t(i)], nullptr) << "task " << i;
            try {
                std::rethrow_exception(errors[size_t(i)]);
            } catch (const std::runtime_error &e) {
                EXPECT_EQ(std::string(e.what()),
                          "task " + std::to_string(i));
            }
        } else {
            EXPECT_EQ(errors[size_t(i)], nullptr) << "task " << i;
        }
    }
}

TEST(ParallelDriver, StealingScheduleNeverChangesResults)
{
    // The ISSUE's determinism acceptance: AppResults from the
    // work-stealing pool are field-for-field identical to LAST_JOBS=1,
    // under heavy oversubscription (7 workers on this matrix forces
    // constant stealing).
    auto specs = smallSweep();
    auto serial = sim::runMany(specs, 1);
    auto stolen = sim::runMany(specs, 7);
    ASSERT_EQ(serial.size(), stolen.size());
    for (size_t i = 0; i < serial.size(); ++i) {
        SCOPED_TRACE(specs[i].workload + "/" +
                     std::string(isaName(specs[i].isa)));
        test::expectSameResult(serial[i], stolen[i]);
    }
}

TEST(ParallelDriver, JobsEnvOverride)
{
    ::setenv("LAST_JOBS", "3", 1);
    EXPECT_EQ(sim::defaultJobs(), 3u);
    ::setenv("LAST_JOBS", "0", 1); // invalid: fall back to hardware
    EXPECT_GE(sim::defaultJobs(), 1u);
    ::unsetenv("LAST_JOBS");
    EXPECT_GE(sim::defaultJobs(), 1u);
}

TEST(FastForward, StatisticIdenticalToFullTicking)
{
    workloads::WorkloadScale scale{0.25};
    GpuConfig ticked;
    ticked.fastForwardIdle = false;
    for (IsaKind isa : {IsaKind::HSAIL, IsaKind::GCN3}) {
        SCOPED_TRACE(isaName(isa));
        auto fast = sim::runApp("ArrayBW", isa, GpuConfig{}, scale);
        auto slow = sim::runApp("ArrayBW", isa, ticked, scale);
        test::expectSameResult(fast, slow);
    }
}

TEST(FunctionalMemoryFootprint, BitmapMatchesLineSetSemantics)
{
    // Property test against the old global-set implementation: replay
    // a random mix of reads and writes with odd sizes, alignments, and
    // page/line crossings, tracking touched 64 B lines in a reference
    // set; footprintLines() must match after every operation.
    mem::FunctionalMemory m;
    std::unordered_set<Addr> reference;
    Rng rng(0xf007);
    uint8_t buf[4096];
    for (int op = 0; op < 4000; ++op) {
        // Cluster addresses so pages are revisited (exercising the
        // last-page memo) but still cross pages regularly.
        Addr base = rng.nextBounded(8) * 0x100000;
        Addr addr = base + rng.nextBounded(3 * 4096);
        size_t len = rng.nextBounded(200);
        if (rng.nextBounded(8) == 0)
            len = rng.nextBounded(4096); // occasional big access
        Addr first = addr / 64;
        Addr last = (addr + (len ? len - 1 : 0)) / 64;
        for (Addr line = first; line <= last; ++line)
            reference.insert(line);
        if (rng.nextBounded(2))
            m.write(addr, buf, len);
        else
            m.read(addr, buf, len);
        ASSERT_EQ(m.footprintLines(), reference.size())
            << "op " << op << " addr " << addr << " len " << len;
    }
    EXPECT_EQ(m.footprintBytes(), reference.size() * 64);

    m.resetFootprint();
    EXPECT_EQ(m.footprintLines(), 0u);
    // Contents survive a footprint reset; re-touching recounts.
    m.write<uint32_t>(0x1234, 42);
    EXPECT_EQ(m.read<uint32_t>(0x1234), 42u);
    EXPECT_EQ(m.footprintLines(), 1u);
}

TEST(FunctionalMemoryFootprint, ZeroLengthTouchesOneLine)
{
    // The old set-based touch() recorded addr's line even for len == 0;
    // the bitmap must preserve that quirk.
    mem::FunctionalMemory m;
    uint8_t b = 0;
    m.read(0x40, &b, 0);
    EXPECT_EQ(m.footprintLines(), 1u);
}

TEST(FunctionalMemoryFootprint, PageStraddleCountsBothPages)
{
    mem::FunctionalMemory m;
    uint32_t v = 7;
    m.write(4096 - 2, v); // straddles the page boundary
    EXPECT_EQ(m.footprintLines(), 2u);
    EXPECT_EQ(m.read<uint32_t>(4096 - 2), 7u);
    EXPECT_EQ(m.numPages(), 2u);
}
