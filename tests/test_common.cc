/** @file Unit tests for the common substrate. */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/bitfield.hh"
#include "common/config.hh"
#include "common/event_queue.hh"
#include "common/logging.hh"
#include "common/random.hh"
#include "common/stats.hh"

using namespace last;

TEST(Bitfield, BitsExtract)
{
    EXPECT_EQ(bits(0xdeadbeef, 7, 0), 0xefu);
    EXPECT_EQ(bits(0xdeadbeef, 31, 28), 0xdu);
    EXPECT_EQ(bits(0xff, 3, 1), 0x7u);
    EXPECT_EQ(bits(~0ull, 63, 0), ~0ull);
}

TEST(Bitfield, InsertBits)
{
    EXPECT_EQ(insertBits(0, 7, 4, 0xa), 0xa0u);
    EXPECT_EQ(insertBits(0xffff, 7, 4, 0), 0xff0fu);
}

TEST(Bitfield, SignExtend)
{
    EXPECT_EQ(sext(0x80, 8), -128);
    EXPECT_EQ(sext(0x7f, 8), 127);
    EXPECT_EQ(sext(0xffff, 16), -1);
}

TEST(Bitfield, PowerOfTwoHelpers)
{
    EXPECT_TRUE(isPowerOf2(64));
    EXPECT_FALSE(isPowerOf2(0));
    EXPECT_FALSE(isPowerOf2(48));
    EXPECT_EQ(floorLog2(64), 6u);
    EXPECT_EQ(popCount(0xffull), 8u);
    EXPECT_EQ(findLsb(0x8ull), 3u);
}

TEST(EventQueue, FiresInOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(5, [&] { order.push_back(5); });
    eq.schedule(2, [&] { order.push_back(2); });
    eq.schedule(2, [&] { order.push_back(20); });
    for (int i = 0; i < 10; ++i)
        eq.tick();
    ASSERT_EQ(order.size(), 3u);
    EXPECT_EQ(order[0], 2);
    EXPECT_EQ(order[1], 20); // FIFO within a cycle
    EXPECT_EQ(order[2], 5);
}

TEST(EventQueue, IntraCycleChains)
{
    EventQueue eq;
    int hits = 0;
    eq.schedule(3, [&] {
        ++hits;
        eq.schedule(3, [&] { ++hits; });
    });
    while (!eq.empty())
        eq.tick();
    EXPECT_EQ(hits, 2);
}

TEST(EventQueue, SchedulingInPastPanics)
{
    EventQueue eq;
    eq.tick();
    eq.tick();
    EXPECT_THROW(eq.schedule(0, [] {}), std::runtime_error);
}

TEST(EventQueue, FastForwardSkipsIdle)
{
    EventQueue eq;
    bool fired = false;
    eq.schedule(1000, [&] { fired = true; });
    eq.fastForward();
    EXPECT_TRUE(fired);
    EXPECT_GE(eq.now(), 1000u);
}

TEST(Stats, ScalarAccumulates)
{
    stats::Group root("root");
    stats::Scalar s(&root, "s", "test");
    s += 2.5;
    ++s;
    EXPECT_DOUBLE_EQ(s.value(), 3.5);
    s.reset();
    EXPECT_DOUBLE_EQ(s.value(), 0.0);
}

TEST(Stats, AverageWeights)
{
    stats::Group root("root");
    stats::Average a(&root, "a", "test");
    a.sample(1.0);
    a.sample(0.0);
    EXPECT_DOUBLE_EQ(a.value(), 0.5);
    a.sample(1.0, 2.0);
    EXPECT_DOUBLE_EQ(a.value(), 0.75);
}

TEST(Stats, HistogramMedian)
{
    stats::Group root("root");
    stats::Histogram h(&root, "h", "test");
    for (int i = 0; i < 100; ++i)
        h.sample(4);
    EXPECT_NEAR(h.median(), 4.0, 3.0); // bucketed approximation
    EXPECT_EQ(h.samples(), 100u);
    EXPECT_DOUBLE_EQ(h.mean(), 4.0);
}

TEST(Stats, HistogramMedianSkewed)
{
    stats::Group root("root");
    stats::Histogram h(&root, "h", "test");
    for (int i = 0; i < 90; ++i)
        h.sample(1);
    for (int i = 0; i < 10; ++i)
        h.sample(1000);
    EXPECT_LT(h.median(), 3.0);
}

TEST(Stats, HistogramMerge)
{
    stats::Group root("root");
    stats::Histogram a(&root, "a", ""), b(&root, "b", "");
    a.sample(2, 50);
    b.sample(100, 50);
    a.merge(b);
    EXPECT_EQ(a.samples(), 100u);
    EXPECT_EQ(a.maxSample(), 100u);
}

TEST(Stats, GroupFindAndSum)
{
    stats::Group root("root");
    stats::Group child("child", &root);
    stats::Scalar s1(&root, "x", "");
    stats::Scalar s2(&child, "x", "");
    s1 += 1;
    s2 += 2;
    EXPECT_EQ(root.find("x"), &s1);
    EXPECT_EQ(root.find("child.x"), &s2);
    EXPECT_EQ(root.find("child.missing"), nullptr);
    EXPECT_DOUBLE_EQ(root.sumOver("x"), 3.0);
}

TEST(Stats, PrintProducesLines)
{
    stats::Group root("sim");
    stats::Scalar s(&root, "count", "a counter");
    s += 7;
    std::ostringstream os;
    root.printStats(os);
    EXPECT_NE(os.str().find("sim.count 7"), std::string::npos);
}

TEST(Config, Table4Defaults)
{
    GpuConfig cfg;
    EXPECT_EQ(cfg.numCus, 8u);
    EXPECT_EQ(cfg.simdPerCu, 4u);
    EXPECT_EQ(cfg.wfSlotsPerCu, 40u);
    EXPECT_EQ(cfg.wavefrontSize, 64u);
    EXPECT_EQ(cfg.vrfEntriesPerCu, 2048u);
    EXPECT_EQ(cfg.srfEntriesPerCu, 800u);
    EXPECT_EQ(cfg.l1d.sizeBytes, 16u * 1024);
    EXPECT_EQ(cfg.l1d.associativity, 0u); // fully associative
    EXPECT_EQ(cfg.l2.sizeBytes, 512u * 1024);
    EXPECT_EQ(cfg.dramChannels, 32u);
    EXPECT_NE(cfg.summary().find("8 CUs"), std::string::npos);
}

TEST(Config, ExecReferenceFollowsTheEnvironment)
{
    // LAST_EXEC_REFERENCE picks the engine for the whole process
    // (CI's scale-1 reference leg relies on it), and
    // GpuConfig::defaultExecReference reads it only once, so each value
    // is checked in a fresh process: the threadsafe death-test style
    // re-executes this binary, which inherits the environment set here.
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    const char *env = std::getenv("LAST_EXEC_REFERENCE");
    const std::optional<std::string> saved =
        env ? std::optional<std::string>(env) : std::nullopt;
    const struct
    {
        const char *value; // nullptr: unset
        const char *engine;
    } cases[] = {{nullptr, "predecoded"},
                 {"1", "reference"},
                 {"0", "predecoded"},
                 {"", "predecoded"}};
    for (const auto &c : cases) {
        SCOPED_TRACE(c.value ? "LAST_EXEC_REFERENCE='" +
                                   std::string(c.value) + "'"
                             : std::string("LAST_EXEC_REFERENCE unset"));
        if (c.value)
            setenv("LAST_EXEC_REFERENCE", c.value, 1);
        else
            unsetenv("LAST_EXEC_REFERENCE");
        EXPECT_EXIT(
            {
                std::fprintf(stderr, "engine=%s\n",
                             GpuConfig{}.execReference ? "reference"
                                                       : "predecoded");
                std::exit(0);
            },
            ::testing::ExitedWithCode(0),
            std::string("engine=") + c.engine);
    }
    if (saved)
        setenv("LAST_EXEC_REFERENCE", saved->c_str(), 1);
    else
        unsetenv("LAST_EXEC_REFERENCE");
}

TEST(BuildFlags, NoFloatContraction)
{
    // The committed bench cache holds host floating-point results, so
    // the build must round a*b before adding c, never fuse the two
    // into one FMA (src/CMakeLists.txt pins -ffp-contract=off). Here
    // a*b = 1 - 2^-60 rounds to 1: two roundings give 0, a fused
    // multiply-add gives -2^-60.
    volatile double a = 1 + 0x1p-30, b = 1 - 0x1p-30, c = -1;
    const double r = a * b + c;
    EXPECT_EQ(r, 0.0) << "a*b+c was contracted into an FMA (got " << r
                      << "); the build must keep -ffp-contract=off";
}

TEST(Logging, PanicAndFatalThrow)
{
    EXPECT_THROW(panic("boom %d", 42), std::runtime_error);
    EXPECT_THROW(fatal("user error"), std::runtime_error);
}

TEST(Logging, PanicThrowsInvariantErrorWithContext)
{
    try {
        panic("invariant %s broke at %d", "xyz", 7);
        FAIL() << "expected InvariantError";
    } catch (const InvariantError &e) {
        EXPECT_EQ(e.kind(), ErrorKind::Invariant);
        EXPECT_STREQ(e.kindName(), "panic");
        EXPECT_EQ(e.message(), "invariant xyz broke at 7");
        EXPECT_NE(e.file().find("test_common.cc"), std::string::npos);
        EXPECT_GT(e.line(), 0);
        EXPECT_NE(std::string(e.what()).find("invariant xyz broke"),
                  std::string::npos);
    }
}

TEST(Logging, FatalThrowsConfigError)
{
    try {
        fatal("bad knob %u", 99u);
        FAIL() << "expected ConfigError";
    } catch (const ConfigError &e) {
        EXPECT_EQ(e.kind(), ErrorKind::Config);
        EXPECT_STREQ(e.kindName(), "fatal");
        EXPECT_EQ(e.message(), "bad knob 99");
    }
}

TEST(Logging, ConditionMacrosEvaluateOnceAndOnlyFireWhenTrue)
{
    int evals = 0;
    panic_if(++evals > 100, "must not fire");
    EXPECT_EQ(evals, 1); // condition evaluated exactly once
    fatal_if(++evals > 100, "must not fire");
    EXPECT_EQ(evals, 2);
    EXPECT_THROW(panic_if(++evals == 3, "fires"), InvariantError);
    EXPECT_EQ(evals, 3);
    EXPECT_THROW(fatal_if(++evals == 4, "fires"), ConfigError);
    EXPECT_EQ(evals, 4);
}

TEST(Logging, WarnAndInformFormatThroughHook)
{
    std::vector<std::pair<std::string, std::string>> captured;
    setLogHook([&](const char *level, const std::string &msg) {
        captured.emplace_back(level, msg);
    });
    warn("approximated %s by %d%%", "latency", 5);
    inform("loaded %u kernels", 3u);
    setLogHook(nullptr);
    ASSERT_EQ(captured.size(), 2u);
    EXPECT_EQ(captured[0].first, "warn");
    EXPECT_EQ(captured[0].second, "approximated latency by 5%");
    EXPECT_EQ(captured[1].first, "info");
    EXPECT_EQ(captured[1].second, "loaded 3 kernels");
    // Hook uninstalled: messages go back to the streams, not `captured`.
    warn("to stderr");
    EXPECT_EQ(captured.size(), 2u);
}

TEST(Logging, ErrorKindNamesAreStable)
{
    EXPECT_STREQ(errorKindName(ErrorKind::Invariant), "panic");
    EXPECT_STREQ(errorKindName(ErrorKind::Config), "fatal");
    EXPECT_STREQ(errorKindName(ErrorKind::Memory), "memory error");
    EXPECT_STREQ(errorKindName(ErrorKind::Deadlock), "deadlock");
    EXPECT_STREQ(errorKindName(ErrorKind::Mismatch), "isa mismatch");
}

TEST(Logging, ErrorModeDefaultsToThrow)
{
    EXPECT_EQ(errorMode(), ErrorMode::Throw);
}

TEST(LoggingDeathTest, AbortModeRestoresClassicCliBehaviour)
{
    // Death tests fork, so flipping the mode inside the statement
    // never affects this process.
    EXPECT_DEATH(
        {
            setErrorMode(ErrorMode::Abort);
            panic("hard stop");
        },
        "hard stop");
    EXPECT_EXIT(
        {
            setErrorMode(ErrorMode::Abort);
            fatal("unsupportable");
        },
        ::testing::ExitedWithCode(1), "unsupportable");
}

TEST(Random, Deterministic)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Random, BoundedInRange)
{
    Rng r(7);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(r.nextBounded(17), 17u);
    EXPECT_EQ(r.nextBounded(0), 0u);
}

TEST(Random, FloatRanges)
{
    Rng r(9);
    for (int i = 0; i < 1000; ++i) {
        float f = r.nextFloat();
        EXPECT_GE(f, 0.0f);
        EXPECT_LT(f, 1.0f);
        double d = r.nextDouble();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
    }
}
