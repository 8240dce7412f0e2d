/**
 * @file
 * Golden bytes: the committed last_bench_cache.csv is the proof that
 * every fast path in the simulator is statistic-identical. These tests
 * regenerate the canonical 42-spec matrix through runShard and
 * byte-compare the cache and its last-divergence-v2 report with the
 * committed file, naming the first differing row and column when they
 * do not match. A negative control proves the comparison would notice
 * one altered statistic and one quarantined row.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "helpers.hh"
#include "sim/shard.hh"

using namespace last;

namespace
{

std::string
committedBytes()
{
    std::ifstream is(LAST_GOLDEN_CACHE, std::ios::binary);
    EXPECT_TRUE(is.good()) << "cannot open " << LAST_GOLDEN_CACHE;
    std::ostringstream os;
    os << is.rdbuf();
    return os.str();
}

sim::BenchCacheFile
parseStrict(const std::string &bytes)
{
    std::istringstream is(bytes);
    sim::BenchCacheFile cache;
    sim::readBenchCacheStrict(is, cache, LAST_GOLDEN_CACHE);
    return cache;
}

std::vector<std::string>
split(const std::string &s, char sep)
{
    std::vector<std::string> out;
    std::istringstream is(s);
    std::string tok;
    while (std::getline(is, tok, sep))
        out.push_back(tok);
    return out;
}

/** The name of column `i` of a cache line whose cells are `cells`: a
 *  result row's statistics are named by sim::kStatFields. */
std::string
columnName(const std::vector<std::string> &cells, size_t i)
{
    const std::string tag = cells.empty() ? "" : cells[0];
    std::vector<std::string> names;
    if (tag == "launch") {
        names = {"tag", "kernel", "cycles", "insts"};
    } else if (tag == "quarantine") {
        names = {"tag", "workload", "isa", "seed", "knobs", "kind",
                 "message"};
    } else {
        names = {"workload", "isa"};
        for (const sim::StatField &f : sim::kStatFields)
            names.push_back(f.name);
        names.insert(names.end(), {"seed", "knobs"});
    }
    return i < names.size() ? names[i] : "#" + std::to_string(i);
}

/**
 * Compare two cache files line by line: "" when they are identical,
 * otherwise the first differing line, named by the row it belongs to
 * (workload/ISA and seed) and the first column whose cell differs.
 */
std::string
firstDifference(const std::string &want, const std::string &got)
{
    std::vector<std::string> a = split(want, '\n'), b = split(got, '\n');
    a.resize(std::max(a.size(), b.size()), "<missing>");
    b.resize(a.size(), "<missing>");
    std::string row = "(header)";
    for (size_t line = 0; line < a.size(); ++line) {
        std::vector<std::string> ca = split(a[line], ','),
                                 cb = split(b[line], ',');
        // Result and quarantine lines open a row; the launch, end and
        // eof lines after one have at most four cells.
        if (ca.size() > 4)
            row = ca[0] == "quarantine"
                      ? ca[1] + "/" + ca[2] + " seed " + ca[3]
                      : ca[0] + "/" + ca[1] + " seed " + ca[ca.size() - 2];
        if (a[line] == b[line])
            continue;
        size_t col = 0;
        while (col < ca.size() && col < cb.size() && ca[col] == cb[col])
            ++col;
        auto cell = [col](const std::vector<std::string> &c) {
            return col < c.size() ? c[col] : std::string("<none>");
        };
        return "row " + row + ", line " + std::to_string(line + 1) +
               ", column '" + columnName(ca, col) + "': committed '" +
               cell(ca) + "', got '" + cell(cb) + "'";
    }
    return want == got ? "" : "files differ only in line endings";
}

/** The gate: "" when `cache` reproduces the committed cache bytes and
 *  the committed cache's divergence report. */
std::string
goldenMismatch(const sim::BenchCacheFile &cache)
{
    const std::string committed = committedBytes();
    std::string d = firstDifference(committed, test::cacheBytes(cache));
    if (!d.empty())
        return "bench cache: " + d;
    const std::string want = test::divergenceBytes(parseStrict(committed));
    const std::string got = test::divergenceBytes(cache);
    if (want == got)
        return "";
    auto at = std::mismatch(want.begin(), want.end(), got.begin(),
                            got.end())
                  .first;
    return "divergence report: first difference on line " +
           std::to_string(std::count(want.begin(), at, '\n') + 1);
}

size_t
firstRowOf(const sim::BenchCacheFile &cache, const std::string &w)
{
    for (size_t i = 0; i < cache.rows.size(); ++i)
        if (cache.rows[i].key.workload == w)
            return i;
    ADD_FAILURE() << "no " << w << " row";
    return 0;
}

} // namespace

TEST(GoldenCache, CommittedCacheRoundTripsByteIdentically)
{
    // No simulation: a strict parse followed by a write is the
    // identity on the committed bytes.
    const std::string committed = committedBytes();
    sim::BenchCacheFile cache = parseStrict(committed);
    EXPECT_EQ(cache.rows.size(), sim::canonicalMatrix(1.0, 0).size());
    EXPECT_EQ(firstDifference(committed, test::cacheBytes(cache)), "");
}

TEST(GoldenCache, RegeneratedMatrixMatchesCommittedBytes)
{
    auto manifest =
        sim::makeShardManifests(sim::canonicalMatrix(1.0, 0), 1)[0];
    sim::ShardRunOptions opts;
    opts.jobs = sim::defaultJobs();
    sim::ShardRunOutcome out = sim::runShard(manifest, opts);
    ASSERT_EQ(out.quarantined, 0u) << out.sweep.format();
    EXPECT_EQ(goldenMismatch(out.cache), "");
}

TEST(GoldenCache, NegativeControlNamesRowAndColumn)
{
    const sim::BenchCacheFile ref = parseStrict(committedBytes());
    ASSERT_EQ(goldenMismatch(ref), "");

    // One altered statistic is named by its row and column.
    sim::BenchCacheFile altered = ref;
    altered.rows[firstRowOf(altered, "BitonicSort")].result.cycles += 1;
    std::string diff = goldenMismatch(altered);
    EXPECT_NE(diff.find("row BitonicSort/HSAIL seed 0"), std::string::npos)
        << diff;
    EXPECT_NE(diff.find("column 'cycles'"), std::string::npos) << diff;

    // One quarantined row fails the gate, named by its row.
    sim::BenchCacheFile dropped = ref;
    sim::AppResult &row = dropped.rows[firstRowOf(dropped, "LULESH")].result;
    sim::AppResult q;
    q.workload = row.workload;
    q.isa = row.isa;
    q.quarantined = true;
    q.errorKind = "exception";
    q.errorMessage = "negative control";
    row = q;
    diff = goldenMismatch(dropped);
    EXPECT_NE(diff.find("row LULESH/HSAIL seed 0"), std::string::npos)
        << diff;
}
