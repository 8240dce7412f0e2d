/**
 * @file
 * Tests for the sharded sweep backend (sim/shard, sim/bench_cache):
 *  - deterministic matrix splitting that keeps ISA groups together;
 *  - manifest JSON round-trip and schema validation;
 *  - cache rows reconstruct results exactly (round-trip precision);
 *  - merge is order-independent, overlap-tolerant, and idempotent,
 *    with merged artifacts byte-identical to a single-process run;
 *  - incremental reuse skips every cached spec and changes no bytes;
 *  - quarantine marker rows survive the cache and degrade divergence
 *    reports instead of vanishing, and the loader warns when it drops
 *    rows (stale version, quarantined spec) instead of staying silent.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "common/error.hh"
#include "common/logging.hh"
#include "common/random.hh"
#include "helpers.hh"
#include "sim/bench_cache.hh"
#include "sim/shard.hh"

using namespace last;

namespace
{

std::vector<sim::RunSpec>
smallMatrix()
{
    workloads::WorkloadScale scale{0.25};
    std::vector<sim::RunSpec> specs;
    for (const char *w : {"VecAdd", "ArrayBW", "atomicred", "pipeline"})
        for (IsaKind isa : AllIsas)
            specs.push_back({w, isa, GpuConfig{}, scale});
    return specs;
}

std::string
manifestBytes(const sim::ShardManifest &m)
{
    std::ostringstream os;
    sim::writeShardManifest(os, m);
    return os.str();
}

} // namespace

TEST(ShardManifest, DeterministicSplitKeepsPairsTogether)
{
    auto specs = smallMatrix();
    auto shards = sim::makeShardManifests(specs, 3);
    ASSERT_EQ(shards.size(), 3u);

    // Every spec appears exactly once; each per-workload ISA group
    // (NumIsas consecutive specs) lands whole on one shard.
    std::vector<int> seen(specs.size(), 0);
    for (const auto &m : shards) {
        EXPECT_EQ(m.totalSpecs, specs.size());
        EXPECT_EQ(m.shardCount, 3u);
        for (size_t i = 0; i + NumIsas <= m.entries.size();
             i += NumIsas) {
            for (unsigned k = 0; k < NumIsas; ++k) {
                EXPECT_EQ(m.entries[i + k].workload,
                          m.entries[i].workload);
                EXPECT_EQ(m.entries[i + k].isa, AllIsas[k]);
            }
        }
        for (const auto &e : m.entries) {
            ASSERT_LT(e.index, specs.size());
            ++seen[e.index];
            EXPECT_EQ(e.workload, specs[e.index].workload);
            EXPECT_EQ(e.isa, specs[e.index].isa);
        }
    }
    for (size_t i = 0; i < seen.size(); ++i)
        EXPECT_EQ(seen[i], 1) << "spec " << i;

    // Same input, same manifests — byte for byte.
    auto again = sim::makeShardManifests(specs, 3);
    for (size_t i = 0; i < shards.size(); ++i)
        EXPECT_EQ(manifestBytes(shards[i]), manifestBytes(again[i]));
}

TEST(ShardManifest, JsonRoundTrip)
{
    auto specs = smallMatrix();
    // Exercise the 64-bit fields: seeds and knobs must not round-trip
    // through a double.
    for (auto &s : specs) {
        s.scale.seed = 0xdeadbeefcafef00dull;
        s.scale.ldsStrideWords = 33;
        s.scale.ldsPadWords = 1;
    }
    auto shards = sim::makeShardManifests(specs, 2);
    for (const auto &m : shards) {
        std::istringstream is(manifestBytes(m));
        sim::ShardManifest back = sim::readShardManifest(is);
        EXPECT_EQ(back.shardIndex, m.shardIndex);
        EXPECT_EQ(back.shardCount, m.shardCount);
        EXPECT_EQ(back.totalSpecs, m.totalSpecs);
        ASSERT_EQ(back.entries.size(), m.entries.size());
        for (size_t i = 0; i < m.entries.size(); ++i) {
            EXPECT_EQ(back.entries[i].index, m.entries[i].index);
            EXPECT_EQ(back.entries[i].workload, m.entries[i].workload);
            EXPECT_EQ(back.entries[i].isa, m.entries[i].isa);
            EXPECT_EQ(back.entries[i].scaleFactor,
                      m.entries[i].scaleFactor);
            EXPECT_EQ(back.entries[i].seed, 0xdeadbeefcafef00dull);
            EXPECT_EQ(back.entries[i].ldsStrideWords, 33);
            EXPECT_EQ(back.entries[i].ldsPadWords, 1);
        }
        // Round-tripping the parse emits identical bytes.
        EXPECT_EQ(manifestBytes(back), manifestBytes(m));
    }
}

TEST(ShardManifest, RejectsBadInput)
{
    {
        std::istringstream is("{\"schema\":\"wrong-schema\"}");
        EXPECT_THROW(sim::readShardManifest(is), std::runtime_error);
    }
    {
        std::istringstream is("{\"schema\":\"last-shard-v1\""); // cut off
        EXPECT_THROW(sim::readShardManifest(is), std::runtime_error);
    }
    {
        std::istringstream is("[1, 2, 3]");
        EXPECT_THROW(sim::readShardManifest(is), std::runtime_error);
    }
    {
        // Missing required entry fields.
        std::istringstream is(
            "{\"schema\":\"last-shard-v1\",\"shard_index\":0,"
            "\"shard_count\":1,\"total_specs\":1,"
            "\"entries\":[{\"index\":0}]}");
        EXPECT_THROW(sim::readShardManifest(is), std::runtime_error);
    }
}

TEST(BenchCache, RowRoundTripIsExact)
{
    auto specs = smallMatrix();
    auto shards = sim::makeShardManifests(specs, 1);
    auto outcome = sim::runShard(shards[0]);
    ASSERT_EQ(outcome.quarantined, 0u);

    std::string bytes = test::cacheBytes(outcome.cache);
    std::istringstream is(bytes);
    sim::BenchCacheFile back;
    ASSERT_TRUE(sim::readBenchCache(is, back, "test"));
    ASSERT_EQ(back.rows.size(), outcome.cache.rows.size());
    EXPECT_EQ(back.scale, 0.25);

    // Writing the parse reproduces the bytes, and the doubles made the
    // trip exactly (round-trip precision, not the old 6 digits).
    EXPECT_EQ(test::cacheBytes(back), bytes);
    for (const auto &row : outcome.cache.rows) {
        const sim::CachedRun *b = back.find(row.key);
        ASSERT_NE(b, nullptr);
        test::expectSameResult(b->result, row.result);
    }
}

TEST(BenchCache, BackendIdentityKeepsMachineIsaRowsDistinct)
{
    // The aliasing regression this pins: the pre-PTXL key order
    // compared ISAs as "HSAIL first, anything else after" — a
    // strict-weak ordering under which a GCN3 row and a PTXL row for
    // the same spec compared EQUIVALENT. Canonical sorting became
    // insertion-order dependent (breaking shard/single-process byte
    // identity) and a merge could fold one vendor's row into the
    // other's. The order must be total: AllIsas position.
    sim::CacheKey base{"VecAdd", IsaKind::HSAIL, 7, 0x1234};
    for (unsigned i = 0; i < NumIsas; ++i) {
        for (unsigned j = 0; j < NumIsas; ++j) {
            sim::CacheKey a = base, b = base;
            a.isa = AllIsas[i];
            b.isa = AllIsas[j];
            EXPECT_EQ(sim::cacheKeyLess(a, b), i < j)
                << isaName(a.isa) << " vs " << isaName(b.isa);
            EXPECT_EQ(a == b, i == j);
        }
    }

    // Hit-count proof at the file level: NumIsas rows differing only
    // in ISA go in with distinct digests, and each key gets exactly
    // its own row back — from a canonical file whose bytes do not
    // depend on insertion order, and through a merge that keeps all
    // of them.
    auto rowFor = [&](IsaKind isa) {
        sim::CachedRun r;
        r.key = base;
        r.key.isa = isa;
        r.result.workload = base.workload;
        r.result.isa = isa;
        r.result.verified = true;
        r.result.digest = 0xD16E5700u + unsigned(isa);
        return r;
    };
    sim::BenchCacheFile fwd, rev;
    fwd.scale = rev.scale = 0.25;
    for (IsaKind isa : AllIsas)
        fwd.rows.push_back(rowFor(isa));
    for (unsigned k = NumIsas; k-- > 0;)
        rev.rows.push_back(rowFor(AllIsas[k]));
    EXPECT_EQ(test::cacheBytes(fwd), test::cacheBytes(rev));

    sim::BenchCacheFile merged = sim::mergeBenchCaches({fwd, rev});
    ASSERT_EQ(merged.rows.size(), size_t(NumIsas));
    for (IsaKind isa : AllIsas) {
        sim::CacheKey k = base;
        k.isa = isa;
        const sim::CachedRun *row = merged.find(k);
        ASSERT_NE(row, nullptr) << isaName(isa);
        EXPECT_EQ(row->result.digest, 0xD16E5700u + unsigned(isa));
        EXPECT_EQ(row->result.isa, isa);
    }
}

TEST(ShardSweep, MergeIsOrderIndependentOverlapTolerantIdempotent)
{
    auto specs = smallMatrix();

    // Ground truth: one process covering the whole matrix.
    auto single = sim::runShard(sim::makeShardManifests(specs, 1)[0]);
    const std::string want = test::cacheBytes(single.cache);
    const std::string wantDiv = test::divergenceBytes(single.cache);

    // Three shard processes (simulated in-process).
    auto manifests = sim::makeShardManifests(specs, 3);
    std::vector<sim::BenchCacheFile> parts;
    for (const auto &m : manifests)
        parts.push_back(sim::runShard(m).cache);

    // Any merge order...
    sim::BenchCacheFile merged =
        sim::mergeBenchCaches({parts[0], parts[1], parts[2]});
    EXPECT_EQ(test::cacheBytes(merged), want);
    EXPECT_EQ(test::cacheBytes(sim::mergeBenchCaches(
                  {parts[2], parts[0], parts[1]})),
              want);
    // ... overlapping shards (shard 1 delivered twice, plus the full
    // single-process cache on top) ...
    EXPECT_EQ(test::cacheBytes(sim::mergeBenchCaches(
                  {parts[1], single.cache, parts[0], parts[1],
                   parts[2]})),
              want);
    // ... and re-merging a merged cache are all byte-identical.
    EXPECT_EQ(test::cacheBytes(sim::mergeBenchCaches({merged, merged})), want);

    // The reconstructed divergence report matches the single-process
    // one byte for byte too.
    EXPECT_EQ(test::divergenceBytes(merged), wantDiv);
}

TEST(ShardSweep, IncrementalReuseSkipsEverythingAndChangesNoBytes)
{
    auto specs = smallMatrix();
    auto manifest = sim::makeShardManifests(specs, 1)[0];
    auto fresh = sim::runShard(manifest);
    ASSERT_EQ(fresh.simulated, specs.size());
    ASSERT_EQ(fresh.reused, 0u);

    sim::ShardRunOptions opts;
    opts.reuse = &fresh.cache;
    auto warm = sim::runShard(manifest, opts);
    EXPECT_EQ(warm.simulated, 0u);
    EXPECT_EQ(warm.reused, specs.size());
    EXPECT_EQ(test::cacheBytes(warm.cache), test::cacheBytes(fresh.cache));

    // A different seed is a different key: nothing may be served from
    // the seed-0 cache.
    auto seeded = specs;
    for (auto &s : seeded)
        s.scale.seed = 7;
    auto seededManifest = sim::makeShardManifests(seeded, 1)[0];
    std::vector<size_t> toReuse;
    for (const auto &e : seededManifest.entries) {
        const sim::CachedRun *hit = fresh.cache.find(
            sim::specCacheKey(sim::specFromEntry(e)));
        if (hit)
            toReuse.push_back(e.index);
    }
    EXPECT_TRUE(toReuse.empty());
}

TEST(ShardSweep, QuarantineRowsSurviveAndDegradeReports)
{
    // An unknown workload throws inside the sweep; runShard must
    // quarantine it, emit a marker row that survives the cache
    // round-trip, and the divergence report built from those rows must
    // degrade to failed instead of inventing numbers.
    workloads::WorkloadScale scale{0.25};
    std::vector<sim::RunSpec> specs;
    for (const char *w : {"VecAdd", "NoSuchWorkload"})
        for (IsaKind isa : AllIsas)
            specs.push_back({w, isa, GpuConfig{}, scale});
    auto outcome = sim::runShard(sim::makeShardManifests(specs, 1)[0]);
    EXPECT_EQ(outcome.quarantined, NumIsas);
    EXPECT_EQ(outcome.sweep.quarantined.size(), NumIsas);

    std::string bytes = test::cacheBytes(outcome.cache);
    std::istringstream is(bytes);
    sim::BenchCacheFile back;
    ASSERT_TRUE(sim::readBenchCache(is, back, "test"));
    size_t quarantined = 0;
    for (const auto &row : back.rows) {
        if (!row.result.quarantined)
            continue;
        ++quarantined;
        EXPECT_EQ(row.key.workload, "NoSuchWorkload");
        EXPECT_FALSE(row.result.errorKind.empty());
        EXPECT_FALSE(row.result.errorMessage.empty());
    }
    EXPECT_EQ(quarantined, NumIsas);
    EXPECT_EQ(test::cacheBytes(back), bytes);

    auto reports = sim::divergenceFromCache(back);
    ASSERT_EQ(reports.size(), 2u); // VecAdd + NoSuchWorkload
    bool sawFailed = false, sawOk = false;
    for (const auto &r : reports) {
        if (r.workload == "NoSuchWorkload") {
            EXPECT_TRUE(r.failed);
            EXPECT_TRUE(r.entries.empty());
            sawFailed = true;
        } else {
            EXPECT_FALSE(r.failed);
            sawOk = true;
        }
    }
    EXPECT_TRUE(sawFailed);
    EXPECT_TRUE(sawOk);

    // A quarantined row never satisfies incremental reuse: the spec is
    // re-attempted (and fails again here, staying quarantined).
    sim::ShardRunOptions opts;
    opts.reuse = &back;
    opts.retryFailed = false;
    auto retry = sim::runShard(sim::makeShardManifests(specs, 1)[0], opts);
    EXPECT_EQ(retry.reused, NumIsas);    // the healthy VecAdd group
    EXPECT_EQ(retry.simulated, NumIsas); // the poisoned group re-run
}

TEST(ShardSweep, MissingHalfDegradesToFailedReport)
{
    workloads::WorkloadScale scale{0.25};
    std::vector<sim::RunSpec> specs = {
        {"VecAdd", IsaKind::HSAIL, GpuConfig{}, scale},
    };
    auto outcome = sim::runShard(sim::makeShardManifests(specs, 1)[0]);
    auto reports = sim::divergenceFromCache(outcome.cache);
    ASSERT_EQ(reports.size(), 1u);
    EXPECT_TRUE(reports[0].failed);
    EXPECT_NE(reports[0].error.find("missing GCN3"), std::string::npos);
}

TEST(BenchCache, LoaderWarnsOnStaleVersionAndQuarantineDrops)
{
    std::vector<std::string> warnings;
    setLogHook([&](const char *level, const std::string &msg) {
        if (std::string(level) == "warn")
            warnings.push_back(msg);
    });

    // Stale version header: loud, and the cache counts as absent.
    {
        std::istringstream is("last-bench-cache v4 scale=1\n"
                              "VecAdd,HSAIL,1,123\n");
        sim::BenchCacheFile out;
        EXPECT_FALSE(sim::readBenchCache(is, out, "stale.csv"));
        ASSERT_EQ(warnings.size(), 1u);
        EXPECT_NE(warnings[0].find("stale.csv"), std::string::npos);
        EXPECT_NE(warnings[0].find("version 4"), std::string::npos);
    }

    // Damaged row: loud, parsed rows discarded.
    warnings.clear();
    {
        std::istringstream is("last-bench-cache v6 scale=1\n"
                              "VecAdd,HSAIL,truncated\n"
                              "eof,1\n");
        sim::BenchCacheFile out;
        EXPECT_FALSE(sim::readBenchCache(is, out, "damaged.csv"));
        EXPECT_TRUE(out.rows.empty());
        ASSERT_EQ(warnings.size(), 1u);
        EXPECT_NE(warnings[0].find("damaged.csv"), std::string::npos);
    }

    // Quarantine rows: returned by the loader (the merge step needs
    // them), dropped loudly by the figure-style consumer.
    warnings.clear();
    {
        std::istringstream is(
            "last-bench-cache v6 scale=1\n"
            "quarantine,VecAdd,GCN3,0,42,DeadlockError,wedged, with "
            "commas\n"
            "eof,1\n");
        sim::BenchCacheFile out;
        ASSERT_TRUE(sim::readBenchCache(is, out, "quar.csv"));
        ASSERT_EQ(out.rows.size(), 1u);
        EXPECT_TRUE(out.rows[0].result.quarantined);
        EXPECT_EQ(out.rows[0].result.errorKind, "DeadlockError");
        EXPECT_EQ(out.rows[0].result.errorMessage, "wedged, with commas");
        EXPECT_TRUE(warnings.empty());

        EXPECT_EQ(sim::dropQuarantinedRows(out, "quar.csv"), 1u);
        EXPECT_TRUE(out.rows.empty());
        ASSERT_EQ(warnings.size(), 1u);
        EXPECT_NE(warnings[0].find("quarantined"), std::string::npos);
        EXPECT_NE(warnings[0].find("VecAdd"), std::string::npos);
    }

    setLogHook(nullptr);
}

// ---------------------------------------------------------------------
// Torn-input fuzz: a crashed (or SIGKILLed) writer can leave a loader
// facing a file cut at ANY byte, or with flipped bytes from a bad disk.
// Every such input must fail loudly — a SimError naming the offending
// source and byte offset — never a crash, a hang, or a silent partial
// load that would poison a resumed campaign.
// ---------------------------------------------------------------------

namespace
{

/** True when `msg` names the source and carries a byte offset. */
bool
loudFailure(const std::string &msg, const std::string &source)
{
    return msg.find(source) != std::string::npos &&
           msg.find("at byte") != std::string::npos;
}

} // namespace

TEST(TornInputFuzz, ManifestTruncatedAtEveryByteFailsLoudly)
{
    auto specs = smallMatrix();
    for (auto &s : specs)
        s.scale.seed = 0x0123456789abcdefull;
    const std::string full =
        manifestBytes(sim::makeShardManifests(specs, 2)[1]);

    // The canonical reference parse of the complete bytes.
    std::istringstream whole(full);
    const std::string want =
        manifestBytes(sim::readShardManifest(whole, "fuzz.json"));

    for (size_t len = 0; len < full.size(); ++len) {
        std::istringstream is(full.substr(0, len));
        try {
            sim::ShardManifest m = sim::readShardManifest(is, "fuzz.json");
            // A prefix may parse only when it is still the complete
            // document (e.g. the trailing newline cut off) — never a
            // partial one.
            EXPECT_EQ(manifestBytes(m), want) << "prefix " << len;
        } catch (const SimError &e) {
            EXPECT_TRUE(loudFailure(e.what(), "fuzz.json"))
                << "prefix " << len << ": " << e.what();
        } catch (const std::exception &e) {
            ADD_FAILURE() << "prefix " << len
                          << " escaped with a non-SimError: " << e.what();
        }
    }
}

TEST(TornInputFuzz, ManifestGarbageMutationsNeverCrash)
{
    auto specs = smallMatrix();
    const std::string full =
        manifestBytes(sim::makeShardManifests(specs, 1)[0]);

    Rng rng(42);
    for (int iter = 0; iter < 300; ++iter) {
        std::string bytes = full;
        size_t flips = 1 + rng.nextBounded(3);
        for (size_t f = 0; f < flips; ++f)
            bytes[rng.nextBounded(bytes.size())] = char(rng.nextBounded(256));
        std::istringstream is(bytes);
        try {
            sim::ShardManifest m = sim::readShardManifest(is, "mut.json");
            // A benign flip (e.g. a digit in a seed) may still parse;
            // the result must at least re-serialize without incident.
            (void)manifestBytes(m);
        } catch (const SimError &e) {
            EXPECT_NE(std::string(e.what()).find("mut.json"),
                      std::string::npos)
                << "iter " << iter << ": " << e.what();
        } catch (const std::exception &e) {
            ADD_FAILURE() << "iter " << iter
                          << " escaped with a non-SimError: " << e.what();
        }
    }
}

TEST(TornInputFuzz, CacheTruncatedAtEveryByteIsRejected)
{
    // A real two-row cache (one ISA pair), cut at every byte: the
    // strict loader must throw (the eof trailer makes every proper
    // prefix detectably incomplete — including cuts at exact row
    // boundaries, the old silent-partial-load hole), and the tolerant
    // loader must warn once and report a miss, never a partial cache.
    workloads::WorkloadScale scale{0.25};
    std::vector<sim::RunSpec> specs = {
        {"VecAdd", IsaKind::HSAIL, GpuConfig{}, scale},
        {"VecAdd", IsaKind::GCN3, GpuConfig{}, scale},
    };
    auto outcome = sim::runShard(sim::makeShardManifests(specs, 1)[0]);
    ASSERT_EQ(outcome.quarantined, 0u);
    const std::string full = test::cacheBytes(outcome.cache);

    size_t warnings = 0;
    setLogHook([&](const char *level, const std::string &) {
        warnings += std::string(level) == "warn";
    });

    for (size_t len = 0; len < full.size(); ++len) {
        const std::string prefix = full.substr(0, len);
        {
            std::istringstream is(prefix);
            sim::BenchCacheFile out;
            try {
                sim::readBenchCacheStrict(is, out, "trunc.csv");
                ADD_FAILURE() << "prefix " << len << " parsed silently";
            } catch (const SimError &e) {
                EXPECT_TRUE(loudFailure(e.what(), "trunc.csv"))
                    << "prefix " << len << ": " << e.what();
            } catch (const std::exception &e) {
                ADD_FAILURE() << "prefix " << len
                              << " escaped with a non-SimError: "
                              << e.what();
            }
        }
        {
            std::istringstream is(prefix);
            sim::BenchCacheFile out;
            EXPECT_FALSE(sim::readBenchCache(is, out, "trunc.csv"))
                << "prefix " << len;
            EXPECT_TRUE(out.rows.empty()) << "prefix " << len;
        }
    }
    setLogHook(nullptr);
    // Every non-empty prefix warned exactly once; the empty file is a
    // quiet cache miss (a never-written cache is not an error).
    EXPECT_EQ(warnings, full.size() - 1);

    // Sanity: the untruncated bytes still load, both ways.
    std::istringstream is(full);
    sim::BenchCacheFile back;
    sim::readBenchCacheStrict(is, back, "full.csv");
    EXPECT_EQ(test::cacheBytes(back), full);
}

TEST(TornInputFuzz, CacheStructuralDamageIsRejected)
{
    struct Case {
        const char *label;
        const char *text;
        const char *needle; // expected substring of the error
    };
    const Case cases[] = {
        {"duplicate row",
         "last-bench-cache v6 scale=1\n"
         "quarantine,VecAdd,GCN3,0,42,DeadlockError,boom\n"
         "quarantine,VecAdd,GCN3,0,42,DeadlockError,boom\n"
         "eof,2\n",
         "duplicate"},
        {"trailer count mismatch",
         "last-bench-cache v6 scale=1\n"
         "quarantine,VecAdd,GCN3,0,42,DeadlockError,boom\n"
         "eof,3\n",
         "eof"},
        {"missing trailer",
         "last-bench-cache v6 scale=1\n"
         "quarantine,VecAdd,GCN3,0,42,DeadlockError,boom\n",
         "eof"},
        {"bytes after trailer",
         "last-bench-cache v6 scale=1\n"
         "eof,0\n"
         "quarantine,VecAdd,GCN3,0,42,DeadlockError,late\n",
         "eof"},
        {"garbage numeric field",
         "last-bench-cache v6 scale=1\n"
         "quarantine,VecAdd,GCN3,zz,42,DeadlockError,boom\n"
         "eof,1\n",
         "u64"},
        {"negative count",
         "last-bench-cache v6 scale=1\n"
         "quarantine,VecAdd,GCN3,-1,42,DeadlockError,boom\n"
         "eof,1\n",
         "u64"},
        {"unknown isa tag",
         "last-bench-cache v6 scale=1\n"
         "quarantine,VecAdd,AVX512,0,42,DeadlockError,boom\n"
         "eof,1\n",
         "ISA"},
        {"blank line",
         "last-bench-cache v6 scale=1\n"
         "\n"
         "eof,0\n",
         "blank"},
        // A bool column holds 0 or 1 only: a 2 would load as true and
        // be written back as 1, so a parse-then-write would change the
        // bytes.
        {"non-0/1 bool",
         "last-bench-cache v6 scale=1\n"
         "VecAdd,HSAIL,2,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,"
         "0,0,0,0,0,0,0,0\n"
         "end\n"
         "eof,1\n",
         "field 'verified' is not a bool ('2')"},
    };
    for (const Case &c : cases) {
        std::istringstream is(c.text);
        sim::BenchCacheFile out;
        try {
            sim::readBenchCacheStrict(is, out, "damage.csv");
            ADD_FAILURE() << c.label << " parsed silently";
        } catch (const SimError &e) {
            const std::string what = e.what();
            EXPECT_TRUE(loudFailure(what, "damage.csv"))
                << c.label << ": " << what;
            EXPECT_NE(what.find(c.needle), std::string::npos)
                << c.label << ": " << what;
        } catch (const std::exception &e) {
            ADD_FAILURE() << c.label
                          << " escaped with a non-SimError: " << e.what();
        }
    }
}

TEST(TornInputFuzz, CacheGarbageMutationsNeverCrash)
{
    workloads::WorkloadScale scale{0.25};
    std::vector<sim::RunSpec> specs = {
        {"VecAdd", IsaKind::HSAIL, GpuConfig{}, scale},
        {"VecAdd", IsaKind::GCN3, GpuConfig{}, scale},
    };
    auto outcome = sim::runShard(sim::makeShardManifests(specs, 1)[0]);
    const std::string full = test::cacheBytes(outcome.cache);

    setLogHook([](const char *, const std::string &) {});
    Rng rng(7);
    for (int iter = 0; iter < 300; ++iter) {
        std::string bytes = full;
        size_t flips = 1 + rng.nextBounded(4);
        for (size_t f = 0; f < flips; ++f)
            bytes[rng.nextBounded(bytes.size())] = char(rng.nextBounded(256));
        std::istringstream is(bytes);
        sim::BenchCacheFile out;
        try {
            sim::readBenchCacheStrict(is, out, "mut.csv");
            // A benign flip (inside an error message, say) may parse.
        } catch (const SimError &e) {
            EXPECT_NE(std::string(e.what()).find("mut.csv"),
                      std::string::npos)
                << "iter " << iter << ": " << e.what();
        } catch (const std::exception &e) {
            ADD_FAILURE() << "iter " << iter
                          << " escaped with a non-SimError: " << e.what();
        }
    }
    setLogHook(nullptr);
}

TEST(BenchCache, MergeRefusesMixedScalesAndFlagsConflicts)
{
    sim::BenchCacheFile a, b;
    a.scale = 1.0;
    b.scale = 0.5;
    EXPECT_THROW(sim::mergeBenchCaches({a, b}), ConfigError);

    // Conflicting duplicate rows (same key, different stats) warn and
    // keep the first occurrence.
    std::vector<std::string> warnings;
    setLogHook([&](const char *level, const std::string &msg) {
        if (std::string(level) == "warn")
            warnings.push_back(msg);
    });
    sim::BenchCacheFile c, d;
    c.scale = d.scale = 1.0;
    sim::CachedRun row;
    row.key = {"VecAdd", IsaKind::HSAIL, 0, 42};
    row.result.workload = "VecAdd";
    row.result.isa = IsaKind::HSAIL;
    row.result.verified = true;
    row.result.dynInsts = 100;
    c.rows.push_back(row);
    row.result.dynInsts = 999;
    d.rows.push_back(row);
    auto merged = sim::mergeBenchCaches({c, d});
    ASSERT_EQ(merged.rows.size(), 1u);
    EXPECT_EQ(merged.rows[0].result.dynInsts, 100u);
    ASSERT_EQ(warnings.size(), 1u);
    EXPECT_NE(warnings[0].find("conflicting duplicate"),
              std::string::npos);
    setLogHook(nullptr);
}
