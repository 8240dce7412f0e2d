/**
 * @file
 * Multi-process sharded sweeps: deterministic matrix splitting, shard
 * execution with incremental cache reuse, and the merge step.
 *
 * The (workload x ISA x scale x seed) sweep matrix is split into N
 * shard manifests (JSON, schema `last-shard-v1`). Each manifest is
 * executed by an independent `last_sweep` process (tools/sweep_cli.cc)
 * on the in-process work-stealing pool, emitting a *partial* bench
 * cache plus a partial divergence report; the merge step combines any
 * set of partial caches back into artifacts byte-identical to what a
 * single process covering the whole matrix writes. ROADMAP's sweep
 * server schedules onto exactly this backend.
 *
 * Determinism argument, in three layers:
 *  1. every simulation owns its Runtime/Gpu/FunctionalMemory, so an
 *     AppResult depends only on its spec, never on scheduling — the
 *     work-stealing schedule (sim/parallel.cc) decides who runs a
 *     spec, not what it produces;
 *  2. each workload's ISA group is kept in one shard (splitting is by
 *     group, round-robin), so per-workload divergence reports never
 *     straddle a shard boundary;
 *  3. cache files are written in canonical key order
 *     (bench_cache.hh), so equal row *sets* give equal file *bytes*
 *     no matter which process produced which row or in what order
 *     partials were merged.
 */

#ifndef LAST_SIM_SHARD_HH
#define LAST_SIM_SHARD_HH

#include <iosfwd>
#include <string>
#include <vector>

#include "obs/divergence.hh"
#include "sim/bench_cache.hh"
#include "sim/parallel.hh"

namespace last::sim
{

/** Manifest schema identifier (the `schema` field of the JSON). */
constexpr const char *ShardSchema = "last-shard-v1";

/** One sweep entry inside a shard manifest. */
struct ShardEntry
{
    size_t index = 0; ///< position in the full (pre-split) matrix
    std::string workload;
    IsaKind isa = IsaKind::HSAIL;
    double scaleFactor = 1.0;
    uint64_t seed = 0;
    int ldsStrideWords = -1;
    int ldsPadWords = -1;
};

/** A deterministic slice of the sweep matrix. */
struct ShardManifest
{
    unsigned shardIndex = 0;
    unsigned shardCount = 1;
    size_t totalSpecs = 0; ///< matrix size across all shards
    std::vector<ShardEntry> entries;
};

/** The RunSpec a manifest entry describes (default GpuConfig — the
 *  bench sweep never perturbs the Table 4 machine). */
RunSpec specFromEntry(const ShardEntry &e);

/**
 * Split a spec matrix into `shards` manifests. Specs are grouped
 * NumIsas at a time (the canonical matrix lists every ISA of a
 * workload consecutively, and a divergence report needs the whole
 * group in one shard) and group g lands in shard g % shards —
 * round-robin, so a skewed matrix (bfsgraph next to vecadd) spreads
 * its heavy workloads across shards instead of stacking them into
 * one. Deterministic: same specs and shard count, same manifests,
 * always.
 */
std::vector<ShardManifest>
makeShardManifests(const std::vector<RunSpec> &specs, unsigned shards);

/** The canonical full sweep matrix (allWorkloadNames x both ISAs) at
 *  one scale/seed — what `last_sweep plan` shards by default and what
 *  the bench figures sweep. */
std::vector<RunSpec> canonicalMatrix(double scaleFactor, uint64_t seed);

/** Emit the `last-shard-v1` JSON for one manifest. */
void writeShardManifest(std::ostream &os, const ShardManifest &m);

/** Parse a `last-shard-v1` manifest. `source` names the stream (a
 *  path, usually) in error messages.
 *  @throws ConfigError (a SimError) on malformed JSON, a wrong
 *  schema, or a bad field — always carrying `source` and the byte
 *  offset of the offence, never a crash or a silent partial load. */
ShardManifest readShardManifest(std::istream &is,
                                const std::string &source = "<manifest>");

struct ShardRunOptions
{
    unsigned jobs = 0;       ///< 0 = defaultJobs()
    bool retryFailed = true; ///< runSweep's serial retry
    /** Incremental mode: entries whose key has a healthy row here are
     *  served from the cache instead of re-simulated. */
    const BenchCacheFile *reuse = nullptr;
    /** Wall-clock budget for the whole shard (0 = none). Every
     *  simulated entry gets GpuConfig::wallDeadline = now + this, so a
     *  hung spec degrades to a quarantine row ("deadlock":
     *  wall-clock deadline exceeded) instead of wedging the process —
     *  the in-process half of the orchestrator's timeout story, and
     *  what `last_sweep run --timeout-ms` exposes to schedulers. */
    uint64_t timeoutMs = 0;
};

/** What one shard execution produced. */
struct ShardRunOutcome
{
    BenchCacheFile cache; ///< one row per manifest entry
    size_t simulated = 0; ///< entries actually run
    size_t reused = 0;    ///< entries served from `reuse`
    size_t quarantined = 0;
    SweepReport sweep; ///< report over the simulated subset only
};

/**
 * Execute one shard: look up every entry in the reuse cache, simulate
 * the misses as one work-stealing sweep (runSweep semantics:
 * quarantine + retry-once), and return a partial cache holding a row —
 * real or quarantine marker — for every entry of the manifest.
 */
ShardRunOutcome runShard(const ShardManifest &m,
                         const ShardRunOptions &opts = {});

/**
 * Divergence reports reconstructed from cache rows: rows are grouped
 * one per ISA by (workload, seed, knob-digest), in canonical order.
 * obs::divergenceReport checks each group's functional agreement and
 * degrades a quarantined or disagreeing group to a failed report; a
 * missing row fails it too. Every report path (`last_obs diverge`,
 * the single-process and merged `last_sweep`, `last_serve`) derives
 * its reports here from the same cache representation, which is what
 * makes their reports byte-identical.
 */
std::vector<obs::DivergenceReport>
divergenceFromCache(const BenchCacheFile &cache,
                    double threshold = obs::DefaultDivergenceThreshold);

} // namespace last::sim

#endif // LAST_SIM_SHARD_HH
