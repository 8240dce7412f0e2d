#include "support.hh"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "common/atomic_file.hh"
#include "common/logging.hh"
#include "sim/bench_cache.hh"
#include "sim/shard.hh"

namespace last::bench
{

namespace
{

constexpr const char *CacheFile = "last_bench_cache.csv";

double
benchScale()
{
    if (const char *s = std::getenv("LAST_BENCH_SCALE"))
        return std::atof(s);
    return 1.0;
}

/**
 * The cached sweep, incrementally: load whatever usable rows
 * last_bench_cache.csv has (a stale version, damaged row, wrong
 * scale, or quarantined entry is dropped with a loud warn(), never
 * silently), simulate only the specs that are missing, and rewrite
 * the cache when anything new was computed. A fully-warm cache runs
 * zero simulations; a cold or discarded one recomputes the whole
 * matrix — the old all-or-nothing behavior is just the endpoints of
 * the incremental path. The file I/O and row format live in
 * sim/bench_cache.{hh,cc}, shared with the `last_sweep` shard CLI, so
 * this cache and a merged shard sweep are byte-identical artifacts.
 */
std::vector<AppPair>
loadOrCompute()
{
    const double scale = benchScale();
    const auto names = workloads::allWorkloadNames();
    const auto specs = sim::canonicalMatrix(scale, 0);

    sim::BenchCacheFile cache;
    {
        std::ifstream in(CacheFile);
        if (in && sim::readBenchCache(in, cache, CacheFile)) {
            if (cache.scale != scale) {
                warn("bench cache %s is for scale %g, want %g; "
                     "discarding it — the sweep will re-simulate",
                     CacheFile, cache.scale, scale);
                cache.rows.clear();
            }
            sim::dropQuarantinedRows(cache, CacheFile);
        } else {
            cache.rows.clear();
        }
        cache.scale = scale;
    }

    auto manifests = sim::makeShardManifests(specs, 1);
    sim::ShardRunOptions opts;
    opts.reuse = &cache;

    size_t misses = 0;
    for (const auto &e : manifests[0].entries) {
        const sim::CachedRun *hit =
            cache.find(sim::specCacheKey(sim::specFromEntry(e)));
        misses += !(hit && !hit->result.quarantined);
    }
    if (misses)
        std::fprintf(stderr,
                     "[bench] simulating %zu of %zu (workload x ISA) "
                     "specs on %u worker(s) (override with LAST_JOBS) "
                     "...\n",
                     misses, specs.size(), sim::defaultJobs());

    auto outcome = sim::runShard(manifests[0], opts);
    if (outcome.quarantined) {
        // The bench needs every row to draw its figures, so
        // quarantine is fatal — but only after the full casualty
        // report is printed and with the cache left untouched.
        std::fprintf(stderr,
                     "[bench] sweep completed with failures:\n%s",
                     outcome.sweep.format().c_str());
        fatal("%zu of %zu bench runs quarantined; no cache written "
              "(see the report above)",
              outcome.quarantined, specs.size());
    }
    if (outcome.simulated) {
        // Atomic replace: a figure binary killed mid-write must never
        // leave a torn cache for the next run (or a concurrent shard
        // worker) to trip over.
        atomicWriteFile(CacheFile, [&](std::ostream &os) {
            sim::writeBenchCache(os, outcome.cache);
        });
    }

    // Cache rows are in canonical order: the AllIsas levels per
    // workload, workloads in allWorkloadNames order. Every level must
    // retire the same lane-visible results; the figures then draw the
    // paper's HSAIL/GCN3 pair.
    fatal_if(outcome.cache.rows.size() != names.size() * NumIsas,
             "bench cache has %zu rows, want %zu",
             outcome.cache.rows.size(), names.size() * NumIsas);
    std::vector<AppPair> out;
    out.reserve(names.size());
    for (size_t i = 0; i < names.size(); ++i) {
        sim::CachedRun *rows = &outcome.cache.rows[NumIsas * i];
        for (size_t k = 0; k < NumIsas; ++k) {
            const sim::AppResult &r = rows[k].result;
            fatal_if(!r.verified, "workload %s failed %s verification",
                     names[i].c_str(), isaName(r.isa));
            fatal_if(r.digest != rows[0].result.digest,
                     "workload %s: cross-ISA result mismatch (%s)",
                     names[i].c_str(), isaName(r.isa));
        }
        out.push_back(
            {std::move(rows[unsigned(IsaKind::HSAIL)].result),
             std::move(rows[unsigned(IsaKind::GCN3)].result)});
    }
    return out;
}

/** The full cached sweep: Table 5 pairs first, then stress. */
const std::vector<AppPair> &
allPairs()
{
    static std::vector<AppPair> results = loadOrCompute();
    return results;
}

} // namespace

const std::vector<AppPair> &
allResults()
{
    static std::vector<AppPair> table5(
        allPairs().begin(),
        allPairs().begin() +
            std::ptrdiff_t(workloads::workloadNames().size()));
    return table5;
}

const std::vector<AppPair> &
stressResults()
{
    static std::vector<AppPair> stress(
        allPairs().begin() +
            std::ptrdiff_t(workloads::workloadNames().size()),
        allPairs().end());
    return stress;
}

double
geomean(const std::vector<double> &xs)
{
    double s = 0;
    for (double x : xs)
        s += std::log(x > 0 ? x : 1e-9);
    return std::exp(s / double(xs.size()));
}

void
printHeader(const std::string &what)
{
    GpuConfig cfg;
    std::printf("== %s ==\n", what.c_str());
    std::printf("config (Table 4): %s\n", cfg.summary().c_str());
}

} // namespace last::bench
