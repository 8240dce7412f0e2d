/**
 * @file
 * `last_sweep` — the sharded sweep backend CLI (see DESIGN.md §4d/§4e).
 *
 *   last_sweep plan        --shards N [--scale F] [--seed S]
 *                          [--lds-stride W] [--lds-pad W] [--out-dir D]
 *   last_sweep run         MANIFEST.json [--cache FILE] [--out FILE]
 *                          [--diverge FILE] [--jobs N] [--threshold T]
 *                          [--no-retry] [--timeout-ms MS]
 *   last_sweep merge       --out FILE [--diverge FILE] [--threshold T]
 *                          PARTIAL.csv...
 *   last_sweep orchestrate --out FILE [--shards N] [--work-dir D]
 *                          [--diverge FILE] [--scale F] [--seed S]
 *                          [--lds-stride W] [--lds-pad W] [--jobs N]
 *                          [--threshold T] [--timeout-ms MS]
 *                          [--poll-ms MS] [--max-parallel N]
 *                          [--backoff-ms MS] [--backoff-cap-ms MS]
 *                          [--max-attempts N] [--resume]
 *                          [--worker EXE] [--chaos-exec WRAPPER]
 *
 * plan:  split the canonical (workload x ISA) sweep matrix into N
 *        deterministic `last-shard-v1` manifests (D/shard_<i>.json).
 * run:   execute one shard on the work-stealing pool and write a
 *        partial bench cache (`--out`) plus a partial
 *        `last-divergence-v2` report (`--diverge`). With `--cache`,
 *        incremental mode: specs whose (workload, ISA, scale, seed,
 *        knob-digest) row already exists in that cache are served from
 *        it instead of re-simulated. With `--timeout-ms`, every
 *        simulated spec gets a wall-clock deadline (the in-process
 *        watchdog); a spec still ticking past it quarantines as a
 *        "deadlock" row instead of wedging the process.
 * merge: combine partial caches into one cache + divergence report,
 *        byte-identical to a single process covering the whole matrix
 *        (any merge order, overlapping shards, and re-merging a merged
 *        cache included).
 * orchestrate: plan + supervise one `run` child process per shard to
 *        completion under failure (crash/hang/torn output), with
 *        per-worker wall-clock deadlines, capped exponential backoff
 *        retries, a fsync'd `last-journal-v1` journal, and atomic
 *        artifact writes. `--resume` re-attaches to a killed
 *        campaign, skipping shards whose caches verify. See DESIGN.md
 *        §4e and scripts/chaos_sweep.sh.
 *
 * All artifacts are written through atomicWriteFile(): readers (and
 * crashes at any instant) see the old file or the new file, never a
 * torn hybrid.
 *
 * Exit codes (README has the full table):
 *   0  success, nothing quarantined
 *   1  usage, I/O, or setup errors
 *   2  completed, but at least one spec (or shard, for orchestrate)
 *      is represented by quarantine rows in the artifacts
 *   128+N  killed by signal N (the shell's convention — what the
 *      orchestrator's supervisor classifies as a crash)
 */

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "cli_args.hh"
#include "common/atomic_file.hh"
#include "obs/divergence.hh"
#include "sim/bench_cache.hh"
#include "sim/orchestrate.hh"
#include "sim/shard.hh"

using namespace last;
using cli::takeFlag;
using cli::takeOption;

namespace
{

[[noreturn]] void
usage()
{
    std::fprintf(
        stderr,
        "usage: last_sweep plan  --shards N [--scale F] [--seed S]\n"
        "                        [--lds-stride W] [--lds-pad W] "
        "[--out-dir D]\n"
        "       last_sweep run   MANIFEST.json [--cache FILE] "
        "[--out FILE]\n"
        "                        [--diverge FILE] [--jobs N] "
        "[--threshold T] [--no-retry]\n"
        "                        [--timeout-ms MS]\n"
        "       last_sweep merge --out FILE [--diverge FILE] "
        "[--threshold T] PARTIAL.csv...\n"
        "       last_sweep orchestrate --out FILE [--shards N] "
        "[--work-dir D]\n"
        "                        [--diverge FILE] [--scale F] "
        "[--seed S] [--jobs N]\n"
        "                        [--timeout-ms MS] [--poll-ms MS] "
        "[--max-parallel N]\n"
        "                        [--backoff-ms MS] "
        "[--backoff-cap-ms MS] [--max-attempts N]\n"
        "                        [--resume] [--worker EXE] "
        "[--chaos-exec WRAPPER]\n");
    std::exit(1);
}

/** Load a bench cache, tolerating a missing file (empty cache). A
 *  present-but-unusable cache warns via readBenchCache and counts as
 *  empty too. @return true when usable rows were loaded. */
bool
loadCache(const std::string &path, sim::BenchCacheFile &cache)
{
    std::ifstream in(path);
    if (!in)
        return false;
    return sim::readBenchCache(in, cache, path);
}

int
cmdPlan(std::vector<std::string> args)
{
    unsigned shards =
        unsigned(std::stoul(takeOption(args, "--shards", "1")));
    double scale = std::stod(takeOption(args, "--scale", "1.0"));
    uint64_t seed = std::stoull(takeOption(args, "--seed", "0"));
    int ldsStride = std::stoi(takeOption(args, "--lds-stride", "-1"));
    int ldsPad = std::stoi(takeOption(args, "--lds-pad", "-1"));
    std::string outDir = takeOption(args, "--out-dir", ".");
    if (!args.empty() || shards == 0)
        usage();

    auto specs = sim::canonicalMatrix(scale, seed);
    for (auto &s : specs) {
        s.scale.ldsStrideWords = ldsStride;
        s.scale.ldsPadWords = ldsPad;
    }
    auto manifests = sim::makeShardManifests(specs, shards);
    for (const auto &m : manifests) {
        std::string path = outDir + "/shard_" +
                           std::to_string(m.shardIndex) + ".json";
        atomicWriteFile(path, [&](std::ostream &os) {
            sim::writeShardManifest(os, m);
        });
        std::fprintf(stderr, "last_sweep: wrote %s (%zu specs)\n",
                     path.c_str(), m.entries.size());
    }
    return 0;
}

int
cmdRun(std::vector<std::string> args)
{
    std::string cachePath = takeOption(args, "--cache", "");
    std::string outPath = takeOption(args, "--out", "");
    std::string divergePath = takeOption(args, "--diverge", "");
    unsigned jobs =
        unsigned(std::stoul(takeOption(args, "--jobs", "0")));
    double threshold = std::stod(takeOption(
        args, "--threshold",
        std::to_string(obs::DefaultDivergenceThreshold)));
    uint64_t timeoutMs =
        std::stoull(takeOption(args, "--timeout-ms", "0"));
    bool noRetry = takeFlag(args, "--no-retry");
    if (args.size() != 1)
        usage();

    std::ifstream mf(args[0]);
    if (!mf) {
        std::fprintf(stderr, "last_sweep: cannot read manifest %s\n",
                     args[0].c_str());
        return 1;
    }
    sim::ShardManifest m = sim::readShardManifest(mf, args[0]);

    sim::BenchCacheFile reuse;
    sim::ShardRunOptions opts;
    opts.jobs = jobs;
    opts.retryFailed = !noRetry;
    opts.timeoutMs = timeoutMs;
    if (!cachePath.empty() && loadCache(cachePath, reuse))
        opts.reuse = &reuse;

    std::fprintf(stderr,
                 "last_sweep: shard %u/%u — %zu specs on %u worker(s)"
                 "%s\n",
                 m.shardIndex, m.shardCount, m.entries.size(),
                 jobs ? jobs : sim::defaultJobs(),
                 opts.reuse ? " (incremental)" : "");
    sim::ShardRunOutcome outcome = sim::runShard(m, opts);
    std::fprintf(stderr,
                 "last_sweep: %zu simulated, %zu reused, %zu "
                 "quarantined\n",
                 outcome.simulated, outcome.reused,
                 outcome.quarantined);
    if (!outcome.sweep.allOk())
        std::fprintf(stderr, "%s", outcome.sweep.format().c_str());

    if (!outPath.empty()) {
        atomicWriteFile(outPath, [&](std::ostream &os) {
            sim::writeBenchCache(os, outcome.cache);
        });
    }
    if (!divergePath.empty()) {
        auto reports =
            sim::divergenceFromCache(outcome.cache, threshold);
        atomicWriteFile(divergePath, [&](std::ostream &os) {
            obs::writeDivergenceJsonArray(os, reports);
        });
    }
    return outcome.quarantined ? 2 : 0;
}

int
cmdMerge(std::vector<std::string> args)
{
    std::string outPath = takeOption(args, "--out", "");
    std::string divergePath = takeOption(args, "--diverge", "");
    double threshold = std::stod(takeOption(
        args, "--threshold",
        std::to_string(obs::DefaultDivergenceThreshold)));
    if (outPath.empty() || args.empty())
        usage();

    std::vector<sim::BenchCacheFile> parts;
    for (const std::string &path : args) {
        sim::BenchCacheFile part;
        if (!loadCache(path, part)) {
            std::fprintf(stderr,
                         "last_sweep: cannot load partial cache %s\n",
                         path.c_str());
            return 1;
        }
        parts.push_back(std::move(part));
    }
    sim::BenchCacheFile merged = sim::mergeBenchCaches(parts);

    size_t quarantined = 0;
    for (const auto &row : merged.rows)
        quarantined += row.result.quarantined;
    std::fprintf(stderr,
                 "last_sweep: merged %zu partials -> %zu rows (%zu "
                 "quarantined)\n",
                 parts.size(), merged.rows.size(), quarantined);

    atomicWriteFile(outPath, [&](std::ostream &os) {
        sim::writeBenchCache(os, merged);
    });
    if (!divergePath.empty()) {
        auto reports = sim::divergenceFromCache(merged, threshold);
        atomicWriteFile(divergePath, [&](std::ostream &os) {
            obs::writeDivergenceJsonArray(os, reports);
        });
    }
    return quarantined ? 2 : 0;
}

int
cmdOrchestrate(std::vector<std::string> args)
{
    sim::OrchestrateOptions o;
    o.shards = unsigned(std::stoul(takeOption(args, "--shards", "2")));
    o.scale = std::stod(takeOption(args, "--scale", "1.0"));
    o.seed = std::stoull(takeOption(args, "--seed", "0"));
    o.ldsStrideWords =
        std::stoi(takeOption(args, "--lds-stride", "-1"));
    o.ldsPadWords = std::stoi(takeOption(args, "--lds-pad", "-1"));
    o.workDir = takeOption(args, "--work-dir", ".");
    o.outPath = takeOption(args, "--out", "");
    o.divergePath = takeOption(args, "--diverge", "");
    o.threshold = std::stod(takeOption(
        args, "--threshold",
        std::to_string(obs::DefaultDivergenceThreshold)));
    o.jobsPerWorker =
        unsigned(std::stoul(takeOption(args, "--jobs", "0")));
    o.workerTimeoutMs =
        std::stoull(takeOption(args, "--timeout-ms", "0"));
    o.pollIntervalMs =
        std::stoull(takeOption(args, "--poll-ms", "50"));
    o.maxParallel =
        unsigned(std::stoul(takeOption(args, "--max-parallel", "0")));
    o.backoff.baseMs =
        std::stoull(takeOption(args, "--backoff-ms", "250"));
    o.backoff.capMs =
        std::stoull(takeOption(args, "--backoff-cap-ms", "8000"));
    o.backoff.maxAttempts =
        unsigned(std::stoul(takeOption(args, "--max-attempts", "4")));
    o.resume = takeFlag(args, "--resume");
    o.workerExe = takeOption(args, "--worker", "");
    o.chaosExec = takeOption(args, "--chaos-exec", "");
    if (!args.empty() || o.outPath.empty() || o.shards == 0)
        usage();

    sim::CampaignOutcome outcome = sim::runCampaign(o);
    std::fprintf(
        stderr,
        "last_sweep: campaign done — %zu rows (%zu quarantined), "
        "%u retries, %u shard(s) gave up, %zu skipped on resume\n",
        outcome.merged.rows.size(), outcome.quarantinedRows,
        outcome.retries, outcome.gaveUp, outcome.skippedOnResume);
    return outcome.quarantinedRows ? 2 : 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        usage();
    std::string cmd = argv[1];
    std::vector<std::string> args(argv + 2, argv + argc);
    try {
        if (cmd == "plan")
            return cmdPlan(std::move(args));
        if (cmd == "run")
            return cmdRun(std::move(args));
        if (cmd == "merge")
            return cmdMerge(std::move(args));
        if (cmd == "orchestrate")
            return cmdOrchestrate(std::move(args));
    } catch (const std::exception &e) {
        std::fprintf(stderr, "last_sweep: %s\n", e.what());
        return 1;
    }
    usage();
}
