/**
 * @file
 * The mode matrix: every execution mode that claims to be
 * statistic-identical is held to it on the whole canonical matrix
 * (every workload at HSAIL, GCN3 and PTXL, at a reduced scale). One
 * baseline run — fast-forward on, tracing off, the artifact cache on,
 * the predecoded engine, a multi-worker pool — is compared with one
 * run per mode that flips one of those switches: the serialized cache
 * rows must be the same bytes, and every row must pass
 * test::expectSameResult.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "helpers.hh"
#include "obs/trace.hh"
#include "sim/artifact_cache.hh"
#include "sim/shard.hh"

using namespace last;

namespace
{

constexpr double MatrixScale = 0.25;

enum class Mode
{
    FastForwardOff,
    Tracing,
    ArtifactCacheOff,
    ReferenceEngine,
    Jobs1,
};

const char *
modeName(Mode m)
{
    switch (m) {
      case Mode::FastForwardOff: return "fast_forward_off";
      case Mode::Tracing: return "tracing";
      case Mode::ArtifactCacheOff: return "artifact_cache_off";
      case Mode::ReferenceEngine: return "reference_engine";
      case Mode::Jobs1: return "jobs_1";
    }
    return "?";
}

/** One run of the matrix: its results and their cache bytes. */
struct MatrixRun
{
    std::vector<sim::AppResult> results;
    std::string bytes;
};

/** Run the matrix with `mode`'s switch flipped (nullopt: the
 *  baseline). Everything but jobs_1 runs on at least two workers, so
 *  that jobs_1 compares two pool sizes. */
MatrixRun
runMatrix(std::optional<Mode> mode)
{
    std::vector<sim::RunSpec> specs = sim::canonicalMatrix(MatrixScale, 0);
    std::vector<std::unique_ptr<obs::TraceSink>> sinks;
    for (sim::RunSpec &s : specs) {
        if (mode == Mode::FastForwardOff)
            s.cfg.fastForwardIdle = false;
        if (mode == Mode::ReferenceEngine)
            s.cfg.execReference = true;
        if (mode == Mode::Tracing) {
            sinks.push_back(std::make_unique<obs::TraceSink>());
            s.cfg.trace = sinks.back().get();
        }
    }
    struct CacheSwitch
    {
        bool was = sim::ArtifactCache::enabled();
        ~CacheSwitch() { sim::ArtifactCache::setEnabled(was); }
    } restore;
    if (mode == Mode::ArtifactCacheOff)
        sim::ArtifactCache::setEnabled(false);
    unsigned jobs =
        mode == Mode::Jobs1 ? 1 : std::max(2u, sim::defaultJobs());

    MatrixRun run;
    run.results = sim::runMany(specs, jobs);
    sim::BenchCacheFile cache;
    cache.scale = MatrixScale;
    for (size_t i = 0; i < specs.size(); ++i) {
        cache.rows.push_back({sim::specCacheKey(specs[i]), run.results[i]});
        if (mode == Mode::Tracing) {
            EXPECT_GT(sinks[i]->totalEvents(), 0u)
                << specs[i].workload << "/" << isaName(specs[i].isa);
        }
    }
    run.bytes = test::cacheBytes(cache);
    return run;
}

} // namespace

TEST(ModeMatrix, EveryModeMatchesBaseline)
{
    // One process runs the baseline once; a parametrized test would
    // repeat it in every ctest process.
    const MatrixRun base = runMatrix(std::nullopt);
    const std::vector<sim::RunSpec> specs =
        sim::canonicalMatrix(MatrixScale, 0);
    for (Mode mode : {Mode::FastForwardOff, Mode::Tracing,
                      Mode::ArtifactCacheOff, Mode::ReferenceEngine,
                      Mode::Jobs1}) {
        SCOPED_TRACE(modeName(mode));
        const MatrixRun run = runMatrix(mode);
        ASSERT_EQ(run.results.size(), base.results.size());
        for (size_t i = 0; i < run.results.size(); ++i) {
            SCOPED_TRACE(specs[i].workload + "/" +
                         std::string(isaName(specs[i].isa)));
            test::expectSameResult(base.results[i], run.results[i]);
        }
        EXPECT_TRUE(run.bytes == base.bytes) << "serialized rows differ";
    }
}
