#include "sim/shard.hh"

#include <algorithm>
#include <chrono>
#include <istream>
#include <ostream>
#include <sstream>

#include "common/error.hh"
#include "common/json_in.hh"
#include "common/logging.hh"
#include "obs/json.hh"

namespace last::sim
{

RunSpec
specFromEntry(const ShardEntry &e)
{
    RunSpec s;
    s.workload = e.workload;
    s.isa = e.isa;
    s.scale.factor = e.scaleFactor;
    s.scale.seed = e.seed;
    s.scale.ldsStrideWords = e.ldsStrideWords;
    s.scale.ldsPadWords = e.ldsPadWords;
    return s;
}

std::vector<RunSpec>
canonicalMatrix(double scaleFactor, uint64_t seed)
{
    workloads::WorkloadScale scale{scaleFactor};
    scale.seed = seed;
    std::vector<RunSpec> specs;
    const auto names = workloads::allWorkloadNames();
    specs.reserve(names.size() * NumIsas);
    for (const auto &w : names)
        for (IsaKind isa : AllIsas)
            specs.push_back({w, isa, GpuConfig{}, scale});
    return specs;
}

std::vector<ShardManifest>
makeShardManifests(const std::vector<RunSpec> &specs, unsigned shards)
{
    fatal_if(shards == 0, "shard count must be >= 1");
    std::vector<ShardManifest> out(shards);
    for (unsigned i = 0; i < shards; ++i) {
        out[i].shardIndex = i;
        out[i].shardCount = shards;
        out[i].totalSpecs = specs.size();
    }
    for (size_t i = 0; i < specs.size(); ++i) {
        const RunSpec &s = specs[i];
        // The per-workload ISA group (HSAIL/GCN3/PTXL triple in the
        // canonical matrix) stays on one shard so every shard can
        // compute its own complete divergence reports.
        size_t group = i / NumIsas;
        ShardManifest &m = out[group % shards];
        ShardEntry e;
        e.index = i;
        e.workload = s.workload;
        e.isa = s.isa;
        e.scaleFactor = s.scale.factor;
        e.seed = s.scale.seed;
        e.ldsStrideWords = s.scale.ldsStrideWords;
        e.ldsPadWords = s.scale.ldsPadWords;
        m.entries.push_back(std::move(e));
    }
    return out;
}

void
writeShardManifest(std::ostream &os, const ShardManifest &m)
{
    os << "{\n\"schema\":\"" << ShardSchema << "\",\n"
       << "\"shard_index\":" << m.shardIndex << ",\n"
       << "\"shard_count\":" << m.shardCount << ",\n"
       << "\"total_specs\":" << m.totalSpecs << ",\n"
       << "\"entries\":[\n";
    for (size_t i = 0; i < m.entries.size(); ++i) {
        const ShardEntry &e = m.entries[i];
        os << "{\"index\":" << e.index << ",\"workload\":\""
           << obs::jsonEscape(e.workload) << "\",\"isa\":\""
           << isaName(e.isa) << "\",\"scale\":"
           << obs::jsonNumber(e.scaleFactor) << ",\"seed\":" << e.seed
           << ",\"lds_stride\":" << e.ldsStrideWords
           << ",\"lds_pad\":" << e.ldsPadWords << "}";
        if (i + 1 < m.entries.size())
            os << ",";
        os << "\n";
    }
    os << "]}\n";
}

ShardManifest
readShardManifest(std::istream &is, const std::string &source)
{
    using jsonin::JsonValue;
    using jsonin::asDouble;
    using jsonin::asI64;
    using jsonin::asString;
    using jsonin::asU64;
    using jsonin::require;

    std::ostringstream buf;
    buf << is.rdbuf();
    const std::string src = buf.str();
    auto fail = [&](const std::string &what, size_t offset) {
        throw ConfigError(source + ": " + what + " at byte " +
                              std::to_string(offset),
                          __FILE__, __LINE__);
    };
    JsonValue root = jsonin::parseJson(src, source);
    if (root.kind != JsonValue::Kind::Object)
        fail("top level is not an object", root.offset);
    std::string schema =
        asString(require(root, "schema", source), "schema", source);
    if (schema != ShardSchema)
        fail("manifest schema is '" + schema + "', expected '" +
                 ShardSchema + "'",
             root.offset);
    ShardManifest m;
    m.shardIndex = unsigned(asU64(require(root, "shard_index", source),
                                  "shard_index", source));
    m.shardCount = unsigned(asU64(require(root, "shard_count", source),
                                  "shard_count", source));
    m.totalSpecs = size_t(asU64(require(root, "total_specs", source),
                                "total_specs", source));
    const JsonValue &entries = require(root, "entries", source);
    if (entries.kind != JsonValue::Kind::Array)
        fail("'entries' is not an array", entries.offset);
    for (const JsonValue &je : entries.items) {
        if (je.kind != JsonValue::Kind::Object)
            fail("entry is not an object", je.offset);
        ShardEntry e;
        e.index =
            size_t(asU64(require(je, "index", source), "index", source));
        e.workload =
            asString(require(je, "workload", source), "workload", source);
        std::string isa =
            asString(require(je, "isa", source), "isa", source);
        if (!isaFromName(isa, e.isa))
            fail("bad isa '" + isa + "'", je.offset);
        e.scaleFactor =
            asDouble(require(je, "scale", source), "scale", source);
        e.seed = asU64(require(je, "seed", source), "seed", source);
        e.ldsStrideWords = int(
            asI64(require(je, "lds_stride", source), "lds_stride", source));
        e.ldsPadWords =
            int(asI64(require(je, "lds_pad", source), "lds_pad", source));
        m.entries.push_back(std::move(e));
    }
    return m;
}

ShardRunOutcome
runShard(const ShardManifest &m, const ShardRunOptions &opts)
{
    ShardRunOutcome out;
    out.cache.rows.resize(m.entries.size());

    for (size_t i = 0; i < m.entries.size(); ++i) {
        fatal_if(m.entries[i].scaleFactor != m.entries[0].scaleFactor,
                 "shard %u mixes scales %g and %g (one cache file "
                 "holds one scale)",
                 m.shardIndex, m.entries[0].scaleFactor,
                 m.entries[i].scaleFactor);
    }
    out.cache.scale =
        m.entries.empty() ? 1.0 : m.entries[0].scaleFactor;

    // Incremental pass: serve every entry the reuse cache already has
    // a healthy row for; only the misses get simulated.
    std::vector<size_t> toRun;
    for (size_t i = 0; i < m.entries.size(); ++i) {
        const RunSpec spec = specFromEntry(m.entries[i]);
        const CacheKey key = specCacheKey(spec);
        if (opts.reuse) {
            const CachedRun *hit = opts.reuse->find(key);
            if (hit && !hit->result.quarantined) {
                out.cache.rows[i] = *hit;
                ++out.reused;
                continue;
            }
        }
        out.cache.rows[i].key = key;
        toRun.push_back(i);
    }

    if (!toRun.empty()) {
        std::vector<RunSpec> specs;
        specs.reserve(toRun.size());
        for (size_t i : toRun)
            specs.push_back(specFromEntry(m.entries[i]));
        if (opts.timeoutMs) {
            // One shared absolute deadline for the whole shard: the
            // budget bounds the shard, and any spec still ticking past
            // it quarantines via the wall-clock watchdog.
            auto deadline = std::chrono::steady_clock::now() +
                            std::chrono::milliseconds(opts.timeoutMs);
            for (RunSpec &s : specs)
                s.cfg.wallDeadline = deadline;
        }
        SweepOptions so;
        so.jobs = opts.jobs;
        so.retryFailed = opts.retryFailed;
        out.sweep = runSweep(specs, so);
        for (size_t j = 0; j < toRun.size(); ++j)
            out.cache.rows[toRun[j]].result =
                std::move(out.sweep.results[j]);
        out.simulated = toRun.size();
    }

    for (const CachedRun &row : out.cache.rows)
        out.quarantined += row.result.quarantined;
    return out;
}

std::vector<obs::DivergenceReport>
divergenceFromCache(const BenchCacheFile &cache, double threshold)
{
    // Canonical order, so single-process and merged caches with equal
    // row sets produce identical report sequences.
    std::vector<const CachedRun *> ordered;
    ordered.reserve(cache.rows.size());
    for (const CachedRun &row : cache.rows)
        ordered.push_back(&row);
    std::stable_sort(ordered.begin(), ordered.end(),
                     [](const CachedRun *a, const CachedRun *b) {
                         return cacheKeyLess(a->key, b->key);
                     });

    auto sameGroup = [](const CacheKey &a, const CacheKey &b) {
        return a.workload == b.workload && a.seed == b.seed &&
               a.knobDigest == b.knobDigest;
    };
    const std::vector<IsaKind> allIsas(std::begin(AllIsas),
                                       std::end(AllIsas));

    std::vector<obs::DivergenceReport> out;
    for (size_t i = 0; i < ordered.size();) {
        // One row per simulated ISA makes a complete N-way group.
        const CachedRun *byIsa[NumIsas] = {};
        size_t j = i;
        for (; j < ordered.size() &&
               sameGroup(ordered[j]->key, ordered[i]->key);
             ++j) {
            unsigned k = unsigned(ordered[j]->key.isa);
            if (k < NumIsas && !byIsa[k])
                byIsa[k] = ordered[j];
        }
        std::string missingIsa;
        std::vector<const AppResult *> results;
        for (unsigned k = 0; k < NumIsas; ++k) {
            if (!byIsa[k]) {
                missingIsa = isaName(AllIsas[k]);
                break;
            }
            results.push_back(&byIsa[k]->result);
        }

        obs::DivergenceReport r;
        if (missingIsa.empty()) {
            r = obs::divergenceReport(results, allIsas, threshold);
        } else {
            r.failed = true;
            r.error = "missing " + missingIsa +
                      " row in the merged cache";
        }
        r.workload = ordered[i]->key.workload;
        r.scale = cache.scale;
        r.threshold = threshold;
        out.push_back(std::move(r));
        i = j;
    }
    return out;
}

} // namespace last::sim
