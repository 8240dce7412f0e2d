#include "obs/divergence.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string_view>

#include "common/error.hh"
#include "common/json_in.hh"
#include "common/logging.hh"
#include "obs/json.hh"
#include "sim/shard.hh"

namespace last::obs
{

namespace
{

/** The field-table row named `name`; an unknown name fails to
 *  compile. */
consteval const sim::StatField &
statField(std::string_view name)
{
    for (const sim::StatField &f : sim::kStatFields)
        if (name == f.name)
            return f;
    throw "no AppResult statistic by that name";
}

/** The compared statistics, in figure order. `expect` is the paper's
 *  published classification of the IL-level statistic against the
 *  machine-ISA ground truth ("" = no position taken). */
struct Metric
{
    const sim::StatField *field;
    const char *figure;
    const char *expect;
};

constexpr Metric kMetrics[] = {
    {&statField("dynInsts"), "Figure 5", "divergent"},
    {&statField("valu"), "Figure 5", "divergent"},
    {&statField("salu"), "Figure 5", "divergent"},
    {&statField("vmem"), "Figure 5", "similar"},
    {&statField("branch"), "Figure 5", "divergent"},
    {&statField("vrfBankConflicts"), "Figure 6", "divergent"},
    {&statField("reuseMedian"), "Figure 7", "divergent"},
    {&statField("instFootprint"), "Figure 8", "divergent"},
    {&statField("ibFlushes"), "Figure 9", "divergent"},
    {&statField("readUniq"), "Figure 10", "similar"},
    {&statField("writeUniq"), "Figure 10", "similar"},
    {&statField("ipc"), "Figure 11", "divergent"},
    {&statField("cycles"), "Figure 11", "divergent"},
    {&statField("dataFootprint"), "Table 6", "divergent"},
    {&statField("simdUtil"), "Table 6", "similar"},
    {&statField("coalescedLines"), "", "similar"},
    {&statField("l1iMisses"), "Figure 8", "divergent"},
};

/**
 * Per-workload expectation overrides. kMetrics encodes the paper's
 * Table 5 geomean classification; the stress workloads beyond Table 5
 * deliberately push single effects to extremes and land on different
 * sides of the threshold for several stats (e.g. a straight-line
 * kernel has zero ibFlushes at both levels — "similar" — even though
 * the paper's geomean says IB flushes diverge). Entries here take
 * precedence over the per-figure default; expect "" means the model
 * takes no position (near-threshold or input-dependent).
 */
struct ExpectOverride
{
    const char *workload;
    const char *stat;
    const char *expect;
};

const ExpectOverride kExpectOverrides[] = {
    // atomicred: serialized same-address atomics inflate HSAIL VMEM
    // and bank-conflict traffic; straight-line control flow keeps the
    // divergence stats quiet at both levels.
    {"atomicred", "valu", "similar"},
    {"atomicred", "vmem", "divergent"},
    {"atomicred", "branch", "similar"},
    {"atomicred", "ibFlushes", "similar"},
    {"atomicred", "readUniq", "divergent"},
    {"atomicred", "writeUniq", "divergent"},
    {"atomicred", "dataFootprint", "similar"},

    // ldsswizzle: the LDS soak is bound by bank-conflict passes that
    // exist identically at both levels; the divergence is all in the
    // instruction stream (finalized do-loop vs IL loop), not in
    // footprints or flushes.
    {"ldsswizzle", "vmem", "divergent"},
    {"ldsswizzle", "branch", "similar"},
    {"ldsswizzle", "reuseMedian", "similar"},
    {"ldsswizzle", "instFootprint", "similar"},
    {"ldsswizzle", "ibFlushes", "similar"},
    {"ldsswizzle", "readUniq", "divergent"},
    {"ldsswizzle", "writeUniq", "divergent"},
    {"ldsswizzle", "ipc", "similar"},
    {"ldsswizzle", "dataFootprint", "similar"},
    {"ldsswizzle", "l1iMisses", "similar"},

    // bfsgraph: nested data-dependent divergence is where the RS
    // abstraction bites — ibFlushes stays well past the threshold —
    // while the lane-visible memory system agrees (frontier loads
    // coalesce the same way at both levels).
    {"bfsgraph", "vmem", ""},
    {"bfsgraph", "branch", "similar"},
    {"bfsgraph", "readUniq", ""},
    {"bfsgraph", "writeUniq", "similar"},
    {"bfsgraph", "dataFootprint", "similar"},

    // pipeline: six straight-line launches; divergence comes from the
    // per-kernel finalization overhead (salu/waitcnt) repeated per
    // dispatch, never from control flow.
    {"pipeline", "branch", "similar"},
    {"pipeline", "ibFlushes", "similar"},
    {"pipeline", "vmem", "divergent"},
    {"pipeline", "readUniq", "divergent"},
    {"pipeline", "writeUniq", "divergent"},
    {"pipeline", "dataFootprint", "similar"},
    {"pipeline", "l1iMisses", "similar"},
};

/** Field `f` of `r` as a double, the metrics' common unit. */
double
statValue(const sim::AppResult &r, const sim::StatField &f)
{
    return sim::visitStat(f, [](auto v) { return double(v); }, r);
}

/** "Divergent" means divergent in *any* pairwise cell — for a
 *  two-level report that is exactly the v1 HSAIL↔GCN3 meaning. */
bool
anyPairDivergent(const DivergenceEntry &e)
{
    for (const DivergencePair &p : e.pairs)
        if (p.divergent)
            return true;
    return false;
}

} // namespace

std::string
expectedDivergence(const std::string &workload, const std::string &stat,
                   IsaKind a, IsaKind b)
{
    // The paper's tables only classify the HSAIL↔GCN3 comparison; any
    // pair touching PTXL is terra incognita by construction.
    if (a != IsaKind::HSAIL || b != IsaKind::GCN3)
        return "";
    for (const ExpectOverride &o : kExpectOverrides)
        if (workload == o.workload && stat == o.stat)
            return o.expect;
    for (const Metric &m : kMetrics)
        if (stat == m.field->name)
            return m.expect;
    return "";
}

double
relDelta(double a, double b)
{
    double mag = std::max(std::fabs(a), std::fabs(b));
    if (mag == 0)
        return 0;
    return std::fabs(b - a) / mag;
}

const DivergencePair *
DivergenceEntry::findPair(IsaKind a, IsaKind b) const
{
    for (const DivergencePair &p : pairs)
        if ((p.a == a && p.b == b) || (p.a == b && p.b == a))
            return &p;
    return nullptr;
}

const DivergenceEntry *
DivergenceReport::find(const std::string &stat) const
{
    for (const DivergenceEntry &e : entries)
        if (e.stat == stat)
            return &e;
    return nullptr;
}

unsigned
DivergenceReport::numDivergent() const
{
    unsigned n = 0;
    for (const DivergenceEntry &e : entries)
        n += anyPairDivergent(e);
    return n;
}

DivergenceReport
divergenceReport(const std::vector<const sim::AppResult *> &results,
                 const std::vector<IsaKind> &isas, double threshold)
{
    panic_if(results.size() != isas.size() || results.size() < 2,
             "divergence report needs one result per ISA (>= 2), got "
             "%zu results for %zu ISAs",
             results.size(), isas.size());

    DivergenceReport r;
    r.isas = isas;
    r.threshold = threshold;
    for (const sim::AppResult *res : results)
        if (!res->workload.empty()) {
            r.workload = res->workload;
            break;
        }
    for (const sim::AppResult *res : results) {
        if (res->quarantined) {
            r.failed = true;
            r.error = res->errorKind + ": " + res->errorMessage;
            return r;
        }
    }
    try {
        sim::checkAgreement(results);
    } catch (const sim::IsaMismatchError &e) {
        // One disagreeing workload fails its own report, never the
        // batch it rides in.
        r.failed = true;
        r.error = std::string("isa-mismatch: ") + e.what();
        return r;
    }
    for (const Metric &m : kMetrics) {
        DivergenceEntry e;
        e.stat = m.field->name;
        e.figure = m.figure;
        for (const sim::AppResult *res : results)
            e.values.push_back(statValue(*res, *m.field));
        for (size_t i = 0; i < isas.size(); ++i) {
            for (size_t j = i + 1; j < isas.size(); ++j) {
                DivergencePair p;
                p.a = isas[i];
                p.b = isas[j];
                p.va = e.values[i];
                p.vb = e.values[j];
                p.relDelta = relDelta(p.va, p.vb);
                p.divergent = p.relDelta > threshold;
                p.paperExpectation =
                    expectedDivergence(r.workload, e.stat, p.a, p.b);
                e.maxRelDelta = std::max(e.maxRelDelta, p.relDelta);
                e.pairs.push_back(std::move(p));
            }
        }
        r.entries.push_back(std::move(e));
    }
    // Rank: largest (worst-pair) relative delta first; stable keeps
    // figure order on ties so reports are deterministic and diffable.
    // A two-level report ranks exactly as v1 did: one pair, so
    // maxRelDelta is its relDelta.
    std::stable_sort(r.entries.begin(), r.entries.end(),
                     [](const DivergenceEntry &a, const DivergenceEntry &b) {
                         return a.maxRelDelta > b.maxRelDelta;
                     });
    return r;
}

std::vector<DivergenceReport>
divergenceReports(const std::vector<std::string> &workloads,
                  const workloads::WorkloadScale &scale, double threshold,
                  unsigned jobs)
{
    // One ISA group per distinct workload: a repeated argument shares
    // its group's report instead of simulating it again.
    std::vector<sim::RunSpec> specs;
    for (const std::string &w : workloads) {
        bool seen = false;
        for (const sim::RunSpec &s : specs)
            seen = seen || s.workload == w;
        if (!seen)
            for (IsaKind isa : AllIsas)
                specs.push_back({w, isa, GpuConfig{}, scale});
    }
    sim::ShardRunOptions opts;
    opts.jobs = jobs;
    sim::ShardRunOutcome run =
        sim::runShard(sim::makeShardManifests(specs, 1)[0], opts);
    std::vector<DivergenceReport> byGroup =
        sim::divergenceFromCache(run.cache, threshold);

    // divergenceFromCache answers in canonical cache order; hand the
    // reports back in argument order.
    std::vector<DivergenceReport> out;
    out.reserve(workloads.size());
    for (const std::string &w : workloads)
        for (const DivergenceReport &r : byGroup)
            if (r.workload == w) {
                out.push_back(r);
                break;
            }
    return out;
}

void
writeDivergenceJson(std::ostream &os, const DivergenceReport &r)
{
    os << "{\n\"schema\":\"last-divergence-v2\",\n"
       << "\"workload\":\"" << jsonEscape(r.workload) << "\","
       << "\"scale\":" << jsonNumber(r.scale) << ","
       << "\"threshold\":" << jsonNumber(r.threshold) << ","
       << "\"failed\":" << (r.failed ? "true" : "false") << ","
       << "\"error\":\"" << jsonEscape(r.error) << "\",\n"
       << "\"isas\":[";
    for (size_t i = 0; i < r.isas.size(); ++i) {
        if (i)
            os << ",";
        os << "\"" << isaName(r.isas[i]) << "\"";
    }
    os << "],\n\"entries\":[\n";
    bool first = true;
    for (const DivergenceEntry &e : r.entries) {
        if (!first)
            os << ",\n";
        first = false;
        os << "{\"stat\":\"" << jsonEscape(e.stat) << "\""
           << ",\"figure\":\"" << jsonEscape(e.figure) << "\""
           << ",\"values\":{";
        for (size_t i = 0; i < e.values.size() && i < r.isas.size();
             ++i) {
            if (i)
                os << ",";
            os << "\"" << isaName(r.isas[i])
               << "\":" << jsonNumber(e.values[i]);
        }
        os << "},\"pairs\":[";
        for (size_t i = 0; i < e.pairs.size(); ++i) {
            const DivergencePair &p = e.pairs[i];
            if (i)
                os << ",";
            os << "{\"a\":\"" << isaName(p.a) << "\",\"b\":\""
               << isaName(p.b)
               << "\",\"rel_delta\":" << jsonNumber(p.relDelta)
               << ",\"classification\":\""
               << (p.divergent ? "divergent" : "similar")
               << "\",\"direction\":\"" << p.direction()
               << "\",\"paper\":\"" << jsonEscape(p.paperExpectation)
               << "\"}";
        }
        os << "]}";
    }
    os << "\n]}\n";
}

void
writeDivergenceJsonArray(std::ostream &os,
                         const std::vector<DivergenceReport> &rs)
{
    os << "[\n";
    for (size_t i = 0; i < rs.size(); ++i) {
        writeDivergenceJson(os, rs[i]);
        if (i + 1 < rs.size())
            os << ",\n";
    }
    os << "]\n";
}

namespace
{

using jsonin::JsonValue;

[[noreturn]] void
failReport(const std::string &source, const std::string &what,
           size_t offset)
{
    throw ConfigError("divergence report " + source + ": " + what +
                          " at byte " + std::to_string(offset),
                      __FILE__, __LINE__);
}

IsaKind
readIsaTag(const JsonValue &v, const char *field,
           const std::string &source)
{
    std::string tag = jsonin::asString(v, field, source);
    IsaKind isa;
    if (!isaFromName(tag, isa))
        failReport(source, std::string("bad isa '") + tag + "'",
                   v.offset);
    return isa;
}

size_t
isaIndex(const std::vector<IsaKind> &isas, IsaKind isa,
         const std::string &source, size_t offset)
{
    for (size_t i = 0; i < isas.size(); ++i)
        if (isas[i] == isa)
            return i;
    failReport(source,
               std::string("pair references isa '") + isaName(isa) +
                   "' missing from the report's isa list",
               offset);
}

DivergenceReport
readOneReport(const JsonValue &root, const std::string &source)
{
    using jsonin::asDouble;
    using jsonin::asString;
    using jsonin::require;

    if (root.kind != JsonValue::Kind::Object)
        failReport(source, "report is not an object", root.offset);
    std::string schema =
        asString(require(root, "schema", source), "schema", source);
    bool v1 = schema == "last-divergence-v1";
    if (!v1 && schema != "last-divergence-v2")
        failReport(source,
                   "schema is '" + schema +
                       "', expected 'last-divergence-v2' (or legacy "
                       "'last-divergence-v1')",
                   root.offset);

    DivergenceReport r;
    r.workload =
        asString(require(root, "workload", source), "workload", source);
    r.scale = asDouble(require(root, "scale", source), "scale", source);
    r.threshold =
        asDouble(require(root, "threshold", source), "threshold", source);
    const JsonValue &failed = require(root, "failed", source);
    if (failed.kind != JsonValue::Kind::Bool)
        failReport(source, "'failed' is not a bool", failed.offset);
    r.failed = failed.boolean;
    r.error = asString(require(root, "error", source), "error", source);

    if (v1) {
        // A v1 payload is, by definition, the HSAIL↔GCN3 comparison.
        r.isas = {IsaKind::HSAIL, IsaKind::GCN3};
    } else {
        const JsonValue &isas = require(root, "isas", source);
        if (isas.kind != JsonValue::Kind::Array)
            failReport(source, "'isas' is not an array", isas.offset);
        for (const JsonValue &ji : isas.items)
            r.isas.push_back(readIsaTag(ji, "isas", source));
    }

    const JsonValue &entries = require(root, "entries", source);
    if (entries.kind != JsonValue::Kind::Array)
        failReport(source, "'entries' is not an array", entries.offset);
    for (const JsonValue &je : entries.items) {
        if (je.kind != JsonValue::Kind::Object)
            failReport(source, "entry is not an object", je.offset);
        DivergenceEntry e;
        e.stat = asString(require(je, "stat", source), "stat", source);
        e.figure =
            asString(require(je, "figure", source), "figure", source);
        if (v1) {
            // v1's flat fields are its one HSAIL↔GCN3 cell.
            DivergencePair p;
            p.a = IsaKind::HSAIL;
            p.b = IsaKind::GCN3;
            p.va = asDouble(require(je, "hsail", source), "hsail", source);
            p.vb = asDouble(require(je, "gcn3", source), "gcn3", source);
            p.relDelta = asDouble(require(je, "rel_delta", source),
                                  "rel_delta", source);
            p.divergent = asString(require(je, "classification", source),
                                   "classification", source) ==
                          "divergent";
            p.paperExpectation =
                asString(require(je, "paper", source), "paper", source);
            e.values = {p.va, p.vb};
            e.maxRelDelta = p.relDelta;
            e.pairs.push_back(std::move(p));
        } else {
            const JsonValue &values = require(je, "values", source);
            if (values.kind != JsonValue::Kind::Object)
                failReport(source, "'values' is not an object",
                           values.offset);
            for (IsaKind isa : r.isas) {
                const JsonValue *v = values.find(isaName(isa));
                if (!v)
                    failReport(source,
                               std::string("'values' is missing isa '") +
                                   isaName(isa) + "'",
                               values.offset);
                e.values.push_back(asDouble(*v, "values", source));
            }
            const JsonValue &pairs = require(je, "pairs", source);
            if (pairs.kind != JsonValue::Kind::Array)
                failReport(source, "'pairs' is not an array",
                           pairs.offset);
            for (const JsonValue &jp : pairs.items) {
                if (jp.kind != JsonValue::Kind::Object)
                    failReport(source, "pair is not an object",
                               jp.offset);
                DivergencePair p;
                p.a = readIsaTag(require(jp, "a", source), "a", source);
                p.b = readIsaTag(require(jp, "b", source), "b", source);
                p.va = e.values[isaIndex(r.isas, p.a, source, jp.offset)];
                p.vb = e.values[isaIndex(r.isas, p.b, source, jp.offset)];
                p.relDelta = asDouble(require(jp, "rel_delta", source),
                                      "rel_delta", source);
                p.divergent =
                    asString(require(jp, "classification", source),
                             "classification", source) == "divergent";
                p.paperExpectation = asString(
                    require(jp, "paper", source), "paper", source);
                e.maxRelDelta = std::max(e.maxRelDelta, p.relDelta);
                e.pairs.push_back(std::move(p));
            }
        }
        r.entries.push_back(std::move(e));
    }
    return r;
}

} // namespace

DivergenceReport
readDivergenceJson(const std::string &text, const std::string &source)
{
    JsonValue root = jsonin::parseJson(text, source);
    return readOneReport(root, source);
}

std::vector<DivergenceReport>
readDivergenceJsonArray(const std::string &text, const std::string &source)
{
    JsonValue root = jsonin::parseJson(text, source);
    if (root.kind != JsonValue::Kind::Array)
        failReport(source, "top level is not an array", root.offset);
    std::vector<DivergenceReport> out;
    out.reserve(root.items.size());
    for (const JsonValue &jr : root.items)
        out.push_back(readOneReport(jr, source));
    return out;
}

void
writeDivergenceText(std::ostream &os, const DivergenceReport &r)
{
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "== %s (scale %g, threshold %g%%): %u/%zu divergent\n",
                  r.workload.c_str(), r.scale, 100 * r.threshold,
                  r.numDivergent(), r.entries.size());
    os << buf;
    if (r.failed) {
        os << "   FAILED: " << r.error << "\n";
        return;
    }
    std::snprintf(buf, sizeof(buf), "   %-18s %-9s", "stat", "figure");
    os << buf;
    for (IsaKind isa : r.isas) {
        std::snprintf(buf, sizeof(buf), " %14s", isaName(isa));
        os << buf;
    }
    std::snprintf(buf, sizeof(buf), " %8s  %-9s %s\n", "delta%",
                  "class", "paper");
    os << buf;
    for (const DivergenceEntry &e : r.entries) {
        const DivergencePair *paper =
            e.findPair(IsaKind::HSAIL, IsaKind::GCN3);
        std::snprintf(buf, sizeof(buf), "   %-18s %-9s", e.stat.c_str(),
                      e.figure.c_str());
        os << buf;
        for (double v : e.values) {
            std::snprintf(buf, sizeof(buf), " %14.6g", v);
            os << buf;
        }
        std::snprintf(buf, sizeof(buf), " %8.2f  %-9s %s\n",
                      100 * e.maxRelDelta,
                      anyPairDivergent(e) ? "DIVERGENT" : "similar",
                      paper ? paper->paperExpectation.c_str() : "");
        os << buf;
    }
}

} // namespace last::obs
