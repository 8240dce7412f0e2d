/**
 * @file
 * Tests for the crash-safe sweep orchestration layer (sim/orchestrate):
 *  - BackoffPolicy is a pure, deterministic capped exponential with
 *    bounded jitter (table-driven, no wall-clock);
 *  - classifyExit maps real wait(2) statuses to the supervisor's exit
 *    classes, including the deadline-kill override;
 *  - the journal appends durably, loads back in order, tolerates a
 *    torn or unparseable tail, and refuses mid-file corruption;
 *  - verifyShardCache trusts only a strictly-parsing, fully-accounted
 *    artifact;
 *  - full campaigns against fake /bin/sh workers: happy path,
 *    flaky-then-succeed, hang-then-SIGKILL-at-deadline, torn output
 *    that fails verification, permanent failure degrading into
 *    synthesized quarantine rows, and --resume skipping verified
 *    shards — with the merged cache byte-identical to the
 *    uninterrupted merge whenever no shard gave up;
 *  - the in-process wall-clock watchdog (`last_sweep run
 *    --timeout-ms`) quarantines an over-budget spec as a deadlock.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <signal.h>
#include <sys/stat.h>
#include <unistd.h>

#include "common/error.hh"
#include "common/logging.hh"
#include "helpers.hh"
#include "sim/bench_cache.hh"
#include "sim/orchestrate.hh"
#include "sim/shard.hh"

using namespace last;

namespace
{

/** A fresh directory under /tmp for one campaign or journal. */
struct TempDir
{
    std::string path;

    TempDir()
    {
        char buf[] = "/tmp/last_orch_XXXXXX";
        const char *p = ::mkdtemp(buf);
        EXPECT_NE(p, nullptr);
        path = p ? p : "/tmp";
    }
};

std::string
readFile(const std::string &path)
{
    std::ifstream f(path);
    std::ostringstream os;
    os << f.rdbuf();
    return os.str();
}

void
writeFile(const std::string &path, const std::string &content)
{
    std::ofstream f(path);
    f << content;
}

/** Write an executable /bin/sh worker script. */
void
writeScript(const std::string &path, const std::string &body)
{
    writeFile(path, "#!/bin/sh\n" + body);
    ::chmod(path.c_str(), 0755);
}

/** A synthetic matrix of fake workloads: campaigns against /bin/sh
 *  workers never touch the simulator, so the names need not exist. */
std::vector<sim::RunSpec>
fakeMatrix()
{
    workloads::WorkloadScale scale{1.0};
    std::vector<sim::RunSpec> specs;
    for (const char *w : {"FakeA", "FakeB"})
        for (IsaKind isa : AllIsas)
            specs.push_back({w, isa, GpuConfig{}, scale});
    return specs;
}

/** The cache a healthy worker would produce for one shard manifest. */
sim::BenchCacheFile
goldenPart(const sim::ShardManifest &m)
{
    sim::BenchCacheFile c;
    c.scale = m.entries.empty() ? 1.0 : m.entries[0].scaleFactor;
    for (const auto &e : m.entries) {
        sim::CachedRun row;
        row.key = sim::specCacheKey(sim::specFromEntry(e));
        row.result.workload = e.workload;
        row.result.isa = e.isa;
        row.result.verified = true;
        row.result.digest = 0x1000 + e.index;
        row.result.dynInsts = 10 * (e.index + 1);
        row.result.cycles = 100 * (e.index + 1);
        row.result.ipc = 0.5;
        c.rows.push_back(std::move(row));
    }
    return c;
}

/**
 * One fake-worker campaign: golden per-shard caches on disk (exported
 * via $LAST_ORCH_DIR so the worker script can `cp` them), fast retry
 * timing, and the expected uninterrupted merge for byte-identity
 * checks. Worker scripts receive the real worker argv — $2 is the
 * manifest (shard_<i>.json, so `i` is recoverable), $6 the output
 * path — plus LAST_CHAOS_SHARD / LAST_CHAOS_ATTEMPT in the
 * environment.
 */
struct Campaign
{
    TempDir dir;
    std::vector<sim::RunSpec> specs = fakeMatrix();
    std::vector<sim::ShardManifest> manifests;
    std::string expectedMerged;
    sim::OrchestrateOptions opts;

    explicit Campaign(unsigned shards)
    {
        manifests = sim::makeShardManifests(specs, shards);
        std::vector<sim::BenchCacheFile> parts;
        for (const auto &m : manifests) {
            auto g = goldenPart(m);
            writeFile(dir.path + "/golden_" +
                          std::to_string(m.shardIndex) + ".csv",
                      test::cacheBytes(g));
            parts.push_back(std::move(g));
        }
        expectedMerged = test::cacheBytes(sim::mergeBenchCaches(parts));
        ::setenv("LAST_ORCH_DIR", dir.path.c_str(), 1);

        opts.shards = shards;
        opts.matrix = specs;
        opts.workDir = dir.path;
        opts.outPath = dir.path + "/merged.csv";
        opts.backoff.baseMs = 1;
        opts.backoff.capMs = 4;
        opts.pollIntervalMs = 5;
    }

    /** Script prelude binding $i (shard index) and $out. */
    static std::string
    prelude()
    {
        return "m=\"$2\"\n"
               "out=\"$6\"\n"
               "i=$(basename \"$m\" .json)\n"
               "i=${i#shard_}\n";
    }

    void
    setWorker(const std::string &body)
    {
        std::string p = dir.path + "/worker.sh";
        writeScript(p, prelude() + body);
        opts.workerExe = p;
    }
};

/** Swallow warn/inform noise from the supervisor during a campaign. */
struct QuietLogs
{
    QuietLogs()
    {
        setLogHook([](const char *, const std::string &) {});
    }
    ~QuietLogs() { setLogHook(nullptr); }
};

const std::string copyGolden =
    "cp \"$LAST_ORCH_DIR/golden_$i.csv\" \"$out\"\nexit 0\n";

} // namespace

TEST(BackoffPolicy, CappedExponentialWithBoundedDeterministicJitter)
{
    sim::BackoffPolicy p; // base 250, cap 8000
    struct Row
    {
        unsigned attempt;
        uint64_t raw; ///< un-jittered delay: min(cap, base * 2^(a-1))
    };
    const Row rows[] = {{1, 250},  {2, 500},  {3, 1000}, {4, 2000},
                        {5, 4000}, {6, 8000}, {7, 8000}, {12, 8000}};
    for (const Row &r : rows) {
        for (unsigned shard = 0; shard < 4; ++shard) {
            uint64_t d = p.delayMs(shard, r.attempt);
            EXPECT_GE(d, r.raw / 2) << "attempt " << r.attempt;
            EXPECT_LE(d, r.raw) << "attempt " << r.attempt;
            // Pure function: same inputs, same delay.
            EXPECT_EQ(d, p.delayMs(shard, r.attempt));
        }
    }

    // Jitter decorrelates shards: identical attempts must not all
    // agree across shards (lockstep retry storms).
    bool differs = false;
    for (unsigned a = 1; a <= 6 && !differs; ++a)
        differs = p.delayMs(0, a) != p.delayMs(1, a);
    EXPECT_TRUE(differs);

    EXPECT_EQ(p.delayMs(0, 0), 0u);
    sim::BackoffPolicy zero;
    zero.baseMs = 0;
    EXPECT_EQ(zero.delayMs(1, 3), 0u);

    EXPECT_FALSE(p.giveUp(0));
    EXPECT_FALSE(p.giveUp(3));
    EXPECT_TRUE(p.giveUp(4));
    EXPECT_TRUE(p.giveUp(5));
}

TEST(Orchestrate, ClassifyExitFromRealWaitStatuses)
{
    // std::system returns a raw wait(2) status on POSIX.
    int clean = std::system("exit 0");
    int quar = std::system("exit 2");
    int fail = std::system("exit 7");
    int crash = std::system("kill -KILL $$");

    auto es = sim::classifyExit(clean, false);
    EXPECT_EQ(es.cls, sim::ExitClass::Clean);
    EXPECT_EQ(es.code, 0);
    EXPECT_EQ(es.describe(), "clean (exit 0)");

    es = sim::classifyExit(quar, false);
    EXPECT_EQ(es.cls, sim::ExitClass::Quarantine);
    EXPECT_EQ(es.code, 2);

    es = sim::classifyExit(fail, false);
    EXPECT_EQ(es.cls, sim::ExitClass::Failure);
    EXPECT_EQ(es.code, 7);

    es = sim::classifyExit(crash, false);
    EXPECT_EQ(es.cls, sim::ExitClass::Crash);
    EXPECT_EQ(es.sig, SIGKILL);
    EXPECT_EQ(es.describe(), "crash (signal 9)");

    // The supervisor's own deadline kill overrides the raw status.
    es = sim::classifyExit(crash, true);
    EXPECT_EQ(es.cls, sim::ExitClass::Timeout);
    EXPECT_EQ(es.sig, SIGKILL);
    EXPECT_EQ(es.describe(), "timeout (signal 9)");
}

TEST(Orchestrate, JournalRoundTripToleratesTornTailOnly)
{
    TempDir d;
    const std::string p = d.path + "/j.jsonl";
    {
        sim::Journal j;
        j.open(p, /*truncate=*/true);
        j.append("{\"event\":\"a\",\"n\":1}");
        j.append("{\"event\":\"b\",\"n\":2}");
    }
    auto lines = sim::loadJournal(p);
    ASSERT_EQ(lines.size(), 2u);
    EXPECT_EQ(jsonin::asString(jsonin::require(lines[0], "event", p),
                               "event", p),
              "a");
    EXPECT_EQ(jsonin::asU64(jsonin::require(lines[1], "n", p), "n", p),
              2u);

    std::vector<std::string> warnings;
    setLogHook([&](const char *level, const std::string &msg) {
        if (std::string(level) == "warn")
            warnings.push_back(msg);
    });

    // Crash mid-append: an unterminated final line is dropped loudly;
    // everything before it survives.
    {
        std::ofstream f(p, std::ios::app);
        f << "{\"event\":\"c\"";
    }
    lines = sim::loadJournal(p);
    EXPECT_EQ(lines.size(), 2u);
    ASSERT_EQ(warnings.size(), 1u);
    EXPECT_NE(warnings[0].find("torn"), std::string::npos);

    // A terminated-but-unparseable final line is likewise dropped.
    warnings.clear();
    writeFile(p, "{\"event\":\"a\"}\n{garbage\n");
    lines = sim::loadJournal(p);
    EXPECT_EQ(lines.size(), 1u);
    ASSERT_EQ(warnings.size(), 1u);
    EXPECT_NE(warnings[0].find("unparseable"), std::string::npos);
    setLogHook(nullptr);

    // Corruption BEFORE the tail is not crash residue — refuse it.
    writeFile(p, "{garbage\n{\"event\":\"a\"}\n");
    EXPECT_THROW(sim::loadJournal(p), ConfigError);

    // An absent journal is an empty history, not an error.
    EXPECT_TRUE(sim::loadJournal(d.path + "/absent.jsonl").empty());

    // Re-opening without truncation appends after the existing lines.
    writeFile(p, "{\"event\":\"a\"}\n");
    {
        sim::Journal j;
        j.open(p, /*truncate=*/false);
        j.append("{\"event\":\"b\"}");
    }
    EXPECT_EQ(sim::loadJournal(p).size(), 2u);
}

TEST(Orchestrate, VerifyShardCacheTrustsOnlyCompleteArtifacts)
{
    TempDir d;
    auto specs = fakeMatrix();
    auto ms = sim::makeShardManifests(specs, 2);
    const std::string full = test::cacheBytes(goldenPart(ms[0]));
    const std::string p = d.path + "/part_0.csv";
    writeFile(p, full);

    std::string why;
    EXPECT_TRUE(sim::verifyShardCache(p, ms[0], &why)) << why;

    EXPECT_FALSE(sim::verifyShardCache(d.path + "/absent.csv", ms[0],
                                       &why));
    EXPECT_EQ(why, "missing");

    // The right rows for the WRONG shard: complete file, wrong keys.
    EXPECT_FALSE(sim::verifyShardCache(p, ms[1], &why));
    EXPECT_NE(why.find("missing row"), std::string::npos);

    // A torn artifact (cut mid-file) never verifies.
    writeFile(p, full.substr(0, full.size() / 2));
    EXPECT_FALSE(sim::verifyShardCache(p, ms[0], &why));
    EXPECT_NE(why.find("at byte"), std::string::npos);
}

TEST(OrchestrateCampaign, HappyPathMergesByteIdentical)
{
    QuietLogs quiet;
    Campaign c(2);
    c.setWorker(copyGolden);

    auto out = sim::runCampaign(c.opts);
    EXPECT_TRUE(out.allShardsDone());
    EXPECT_EQ(out.retries, 0u);
    EXPECT_EQ(out.gaveUp, 0u);
    EXPECT_EQ(out.quarantinedRows, 0u);
    ASSERT_EQ(out.shards.size(), 2u);
    for (const auto &so : out.shards) {
        EXPECT_TRUE(so.done);
        EXPECT_EQ(so.attempts, 1u);
    }
    EXPECT_EQ(readFile(c.opts.outPath), c.expectedMerged);
    EXPECT_EQ(test::cacheBytes(out.merged), c.expectedMerged);

    // The journal narrates the campaign: header first, merged last.
    const std::string jp = c.dir.path + "/journal.jsonl";
    auto lines = sim::loadJournal(jp);
    ASSERT_GE(lines.size(), 2u);
    EXPECT_EQ(jsonin::asString(jsonin::require(lines[0], "schema", jp),
                               "schema", jp),
              sim::JournalSchema);
    EXPECT_EQ(jsonin::asString(
                  jsonin::require(lines.back(), "event", jp), "event",
                  jp),
              "merged");
}

TEST(OrchestrateCampaign, FlakyWorkersAreRetriedToSuccess)
{
    QuietLogs quiet;
    Campaign c(2);
    // Every shard's first attempt dies; the second succeeds.
    c.setWorker("if [ \"$LAST_CHAOS_ATTEMPT\" -lt 2 ]; then exit 1; fi\n" +
                copyGolden);

    auto out = sim::runCampaign(c.opts);
    EXPECT_TRUE(out.allShardsDone());
    EXPECT_EQ(out.retries, 2u);
    for (const auto &so : out.shards)
        EXPECT_EQ(so.attempts, 2u);
    EXPECT_EQ(readFile(c.opts.outPath), c.expectedMerged);
}

TEST(OrchestrateCampaign, HungWorkerIsKilledAtDeadlineAndRetried)
{
    QuietLogs quiet;
    Campaign c(2);
    // Shard 1's first attempt hangs forever; the supervisor must shoot
    // it at the deadline and the retry succeeds.
    c.setWorker("if [ \"$LAST_CHAOS_SHARD\" = 1 ] && "
                "[ \"$LAST_CHAOS_ATTEMPT\" = 1 ]; then exec sleep 60; "
                "fi\n" +
                copyGolden);
    c.opts.workerTimeoutMs = 300;
    c.opts.pollIntervalMs = 20;

    auto out = sim::runCampaign(c.opts);
    EXPECT_TRUE(out.allShardsDone());
    EXPECT_EQ(out.retries, 1u);
    EXPECT_EQ(out.shards[0].attempts, 1u);
    EXPECT_EQ(out.shards[1].attempts, 2u);
    EXPECT_NE(out.shards[1].lastFailure.find("timeout"),
              std::string::npos);
    EXPECT_EQ(readFile(c.opts.outPath), c.expectedMerged);
}

TEST(OrchestrateCampaign, TornOutputFailsVerificationAndRetries)
{
    QuietLogs quiet;
    Campaign c(2);
    // Shard 0's first attempt exits 0 but leaves a truncated cache —
    // the exit status lies, the artifact doesn't.
    c.setWorker("if [ \"$LAST_CHAOS_SHARD\" = 0 ] && "
                "[ \"$LAST_CHAOS_ATTEMPT\" = 1 ]; then\n"
                "  head -c 40 \"$LAST_ORCH_DIR/golden_$i.csv\" > "
                "\"$out\"\n"
                "  exit 0\n"
                "fi\n" +
                copyGolden);

    auto out = sim::runCampaign(c.opts);
    EXPECT_TRUE(out.allShardsDone());
    EXPECT_EQ(out.retries, 1u);
    EXPECT_EQ(out.shards[0].attempts, 2u);
    EXPECT_EQ(readFile(c.opts.outPath), c.expectedMerged);
}

TEST(OrchestrateCampaign, PermanentFailureDegradesToQuarantineRows)
{
    QuietLogs quiet;
    Campaign c(2);
    c.setWorker("if [ \"$LAST_CHAOS_SHARD\" = 0 ]; then exit 3; fi\n" +
                copyGolden);
    c.opts.backoff.maxAttempts = 2;

    auto out = sim::runCampaign(c.opts);
    EXPECT_FALSE(out.allShardsDone());
    EXPECT_EQ(out.gaveUp, 1u);
    EXPECT_TRUE(out.shards[0].gaveUp);
    EXPECT_EQ(out.shards[0].attempts, 2u);
    EXPECT_TRUE(out.shards[1].done);

    // Shard 0's two specs degrade into synthesized quarantine rows;
    // shard 1's golden rows survive untouched.
    EXPECT_EQ(out.quarantinedRows,
              c.manifests[0].entries.size());
    size_t synthesized = 0;
    for (const auto &row : out.merged.rows) {
        if (!row.result.quarantined)
            continue;
        ++synthesized;
        EXPECT_EQ(row.result.errorKind, "worker-failure");
        EXPECT_NE(row.result.errorMessage.find("gave up after 2"),
                  std::string::npos);
    }
    EXPECT_EQ(synthesized, c.manifests[0].entries.size());

    // The merged artifact still accounts for every spec in the matrix.
    EXPECT_EQ(out.merged.rows.size(), c.specs.size());
}

TEST(OrchestrateCampaign, ResumeSkipsVerifiedShardsAndRerunsTheRest)
{
    QuietLogs quiet;
    Campaign c(2);
    c.setWorker(copyGolden);
    ASSERT_TRUE(sim::runCampaign(c.opts).allShardsDone());

    // Simulate a crash that lost shard 1's artifact. On resume, shard
    // 0's cache verifies and must be skipped — enforced by a worker
    // that refuses to run shard 0 — while shard 1 is re-run.
    ::unlink((c.dir.path + "/part_1.csv").c_str());
    c.setWorker("if [ \"$LAST_CHAOS_SHARD\" = 0 ]; then exit 9; fi\n" +
                copyGolden);
    c.opts.resume = true;

    auto out = sim::runCampaign(c.opts);
    EXPECT_TRUE(out.allShardsDone());
    EXPECT_EQ(out.skippedOnResume, 1u);
    EXPECT_TRUE(out.shards[0].skipped);
    EXPECT_EQ(out.shards[0].attempts, 0u);
    EXPECT_FALSE(out.shards[1].skipped);
    EXPECT_EQ(out.shards[1].attempts, 1u);
    EXPECT_EQ(out.retries, 0u);
    EXPECT_EQ(readFile(c.opts.outPath), c.expectedMerged);

    // A warm second resume skips everything and simulates nothing.
    auto warm = sim::runCampaign(c.opts);
    EXPECT_EQ(warm.skippedOnResume, 2u);
    for (const auto &so : warm.shards)
        EXPECT_EQ(so.attempts, 0u);
    EXPECT_EQ(readFile(c.opts.outPath), c.expectedMerged);

    // Resuming with different campaign parameters over the same
    // journal is refused, not silently merged.
    c.opts.shards = 3;
    EXPECT_THROW(sim::runCampaign(c.opts), ConfigError);
}

TEST(ShardTimeout, WallClockBudgetQuarantinesAsDeadlock)
{
    // The in-process half of the timeout machinery (`last_sweep run
    // --timeout-ms`): a 1 ms budget on a real multi-kernel workload
    // trips the wall-clock watchdog inside Gpu::runToCompletion, and
    // the spec degrades into a quarantine row instead of an abort.
    QuietLogs quiet;
    workloads::WorkloadScale scale{1.0};
    std::vector<sim::RunSpec> specs = {
        {"pipeline", IsaKind::HSAIL, GpuConfig{}, scale},
    };
    sim::ShardRunOptions opts;
    opts.timeoutMs = 1;
    auto outcome =
        sim::runShard(sim::makeShardManifests(specs, 1)[0], opts);
    ASSERT_EQ(outcome.quarantined, 1u);
    ASSERT_EQ(outcome.cache.rows.size(), 1u);
    const auto &r = outcome.cache.rows[0].result;
    EXPECT_TRUE(r.quarantined);
    EXPECT_EQ(r.errorKind, "deadlock");
    EXPECT_NE(r.errorMessage.find("wall-clock"), std::string::npos);
}
