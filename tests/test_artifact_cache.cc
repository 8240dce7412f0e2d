/**
 * @file
 * Kernel-artifact cache tests: hits are pointer-identical, unsound
 * keys are loud, and a sweep with the cache on/off is statistic-
 * identical (the cache may only change wall-clock, never results).
 */

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "helpers.hh"
#include "hsail/builder.hh"
#include "sim/artifact_cache.hh"
#include "sim/experiment.hh"

using namespace last;

namespace
{

/** A minimal kernel artifact for cache-mechanics tests (never
 *  dispatched, so it needs no sealing or finalization). */
sim::ArtifactCache::Artifact
makeTinyArtifact(const char *name)
{
    hsail::KernelBuilder kb(name);
    hsail::Val gid = kb.workitemAbsId();
    kb.stGlobal(gid, kb.immU64(0x10000));
    auto il = kb.build();
    return sim::ArtifactCache::Artifact(std::move(il.code));
}

/** Restores the global cache switch even if an assertion fires. */
struct CacheSwitchGuard
{
    bool saved = sim::ArtifactCache::enabled();
    ~CacheSwitchGuard() { sim::ArtifactCache::setEnabled(saved); }
};

} // namespace

TEST(ArtifactCache, HitsArePointerIdentical)
{
    auto &cache = sim::ArtifactCache::instance();
    sim::ArtifactKey key{"__ac_test_ptr", IsaKind::HSAIL, 0.125, 0};

    unsigned builds = 0;
    auto builder = [&] {
        ++builds;
        return makeTinyArtifact("ac_ptr");
    };

    uint64_t h0 = cache.hits(), m0 = cache.misses();
    auto first = cache.getOrBuild(key, /*digest=*/0xfeedull, builder);
    auto second = cache.getOrBuild(key, 0xfeedull, builder);

    EXPECT_EQ(builds, 1u) << "second request must not rebuild";
    EXPECT_EQ(first.get(), second.get())
        << "equal keys must hand out the same immutable artifact";
    EXPECT_EQ(cache.misses(), m0 + 1);
    EXPECT_EQ(cache.hits(), h0 + 1);
}

TEST(ArtifactCache, DistinctKeysAreDistinctEntries)
{
    auto &cache = sim::ArtifactCache::instance();
    auto builder = [] { return makeTinyArtifact("ac_keys"); };

    auto a = cache.getOrBuild({"__ac_test_keys", IsaKind::HSAIL,
                               0.125, 0}, 1, builder);
    auto b = cache.getOrBuild({"__ac_test_keys", IsaKind::GCN3,
                               0.125, 0}, 1, builder);
    auto c = cache.getOrBuild({"__ac_test_keys", IsaKind::HSAIL,
                               0.25, 0}, 1, builder);
    auto d = cache.getOrBuild({"__ac_test_keys", IsaKind::HSAIL,
                               0.125, 1}, 1, builder);
    EXPECT_NE(a.get(), b.get());
    EXPECT_NE(a.get(), c.get());
    EXPECT_NE(a.get(), d.get());
}

TEST(ArtifactCache, DigestMismatchIsLoud)
{
    auto &cache = sim::ArtifactCache::instance();
    sim::ArtifactKey key{"__ac_test_digest", IsaKind::HSAIL, 0.125, 0};
    auto builder = [] { return makeTinyArtifact("ac_digest"); };

    cache.getOrBuild(key, /*digest=*/42, builder);
    // Same key, different build input: an unsound key must panic, not
    // silently reuse the wrong artifact.
    EXPECT_THROW(cache.getOrBuild(key, 43, builder), InvariantError);
}

TEST(ArtifactCache, RepeatedRunsHitTheCache)
{
    auto &cache = sim::ArtifactCache::instance();
    ASSERT_TRUE(sim::ArtifactCache::enabled());

    // A scale no other test uses, so both runs' keys are this test's.
    workloads::WorkloadScale scale{0.375};
    auto r1 = sim::runApp("VecAdd", IsaKind::GCN3, GpuConfig{},
                          scale);
    uint64_t h1 = cache.hits(), m1 = cache.misses();
    auto r2 = sim::runApp("VecAdd", IsaKind::GCN3, GpuConfig{},
                          scale);
    EXPECT_GT(cache.hits(), h1) << "identical rerun must hit";
    EXPECT_EQ(cache.misses(), m1) << "identical rerun must not rebuild";
    test::expectSameResult(r1, r2);
}

TEST(ArtifactCache, CacheOnOffYieldsIdenticalResults)
{
    CacheSwitchGuard guard;
    workloads::WorkloadScale scale{0.375};

    sim::ArtifactCache::setEnabled(true);
    auto hsailOn = sim::runApp("VecAdd", IsaKind::HSAIL,
                               GpuConfig{}, scale);
    auto gcnOn = sim::runApp("VecAdd", IsaKind::GCN3, GpuConfig{},
                             scale);

    sim::ArtifactCache::setEnabled(false);
    auto hsailOff = sim::runApp("VecAdd", IsaKind::HSAIL,
                                GpuConfig{}, scale);
    auto gcnOff = sim::runApp("VecAdd", IsaKind::GCN3, GpuConfig{},
                              scale);

    test::expectSameResult(hsailOn, hsailOff);
    test::expectSameResult(gcnOn, gcnOff);
}
