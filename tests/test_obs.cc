/**
 * @file
 * Observability-layer tests (obs/): the Chrome trace serializer emits
 * well-formed JSON that survives a round-trip through a real parser,
 * the stats exporter matches the in-memory registry exactly, the
 * divergence reporter reproduces the paper's accurate-vs-divergent
 * classification on known statistics, and — the load-bearing invariant
 * — tracing on/off produces bit-identical AppResults.
 */

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <cstring>
#include <random>
#include <sstream>

#include <gtest/gtest.h>

#include "arch/instruction.hh"
#include "common/error.hh"
#include "helpers.hh"
#include "obs/divergence.hh"
#include "obs/json.hh"
#include "obs/stats_export.hh"
#include "obs/trace.hh"
#include "sim/experiment.hh"

using namespace last;

namespace
{

/** Shrunk problem sizes keep the differential runs fast (same factor
 *  the fault suite uses). */
constexpr double TestScale = 0.25;

/** VecAdd's two-level report: the HSAIL/GCN3 comparison the paper
 *  studied, simulated at just those two levels. */
obs::DivergenceReport
hsailGcn3Report()
{
    auto rs = sim::runMany({{"VecAdd", IsaKind::HSAIL, {}, {TestScale}},
                            {"VecAdd", IsaKind::GCN3, {}, {TestScale}}});
    return obs::divergenceReport({&rs[0], &rs[1]},
                                 {IsaKind::HSAIL, IsaKind::GCN3});
}

/**
 * A strict recursive-descent JSON parser (validation only). If this
 * accepts a document, any real JSON consumer (chrome://tracing,
 * Perfetto, python json) will too — that is the round-trip the trace
 * and export writers are tested against.
 */
class JsonChecker
{
  public:
    explicit JsonChecker(const std::string &s)
        : p(s.c_str()), end(s.c_str() + s.size())
    {}

    bool
    valid()
    {
        skipWs();
        if (!value())
            return false;
        skipWs();
        return p == end;
    }

  private:
    const char *p;
    const char *end;

    void
    skipWs()
    {
        while (p < end && (*p == ' ' || *p == '\t' || *p == '\n' ||
                           *p == '\r'))
            ++p;
    }

    bool eat(char c) { return p < end && *p == c ? (++p, true) : false; }

    bool
    literal(const char *s)
    {
        size_t n = std::strlen(s);
        if (size_t(end - p) < n || std::strncmp(p, s, n) != 0)
            return false;
        p += n;
        return true;
    }

    bool
    string()
    {
        if (!eat('"'))
            return false;
        while (p < end && *p != '"') {
            if (*p == '\\') {
                ++p;
                if (p >= end)
                    return false;
                if (*p == 'u') {
                    for (int i = 0; i < 4; ++i) {
                        ++p;
                        if (p >= end || !std::isxdigit((unsigned char)*p))
                            return false;
                    }
                } else if (!std::strchr("\"\\/bfnrt", *p)) {
                    return false;
                }
                ++p;
            } else if ((unsigned char)*p < 0x20) {
                return false; // unescaped control character
            } else {
                ++p;
            }
        }
        return eat('"');
    }

    bool
    number()
    {
        const char *start = p;
        if (p < end && *p == '-')
            ++p;
        if (p >= end || !std::isdigit((unsigned char)*p))
            return false;
        while (p < end && std::isdigit((unsigned char)*p))
            ++p;
        if (p < end && *p == '.') {
            ++p;
            if (p >= end || !std::isdigit((unsigned char)*p))
                return false;
            while (p < end && std::isdigit((unsigned char)*p))
                ++p;
        }
        if (p < end && (*p == 'e' || *p == 'E')) {
            ++p;
            if (p < end && (*p == '+' || *p == '-'))
                ++p;
            if (p >= end || !std::isdigit((unsigned char)*p))
                return false;
            while (p < end && std::isdigit((unsigned char)*p))
                ++p;
        }
        return p > start;
    }

    bool
    value()
    {
        skipWs();
        if (p >= end)
            return false;
        switch (*p) {
          case '{': {
            ++p;
            skipWs();
            if (eat('}'))
                return true;
            do {
                skipWs();
                if (!string())
                    return false;
                skipWs();
                if (!eat(':') || !value())
                    return false;
                skipWs();
            } while (eat(','));
            return eat('}');
          }
          case '[': {
            ++p;
            skipWs();
            if (eat(']'))
                return true;
            do {
                if (!value())
                    return false;
                skipWs();
            } while (eat(','));
            return eat(']');
          }
          case '"':
            return string();
          case 't':
            return literal("true");
          case 'f':
            return literal("false");
          case 'n':
            return literal("null");
          default:
            return number();
        }
    }
};

/** Pull the number following `"key":` after the first occurrence of
 *  `anchor` (writer-format-aware extraction for spot checks). */
double
numberAfter(const std::string &json, const std::string &anchor,
            const std::string &key)
{
    size_t at = json.find(anchor);
    EXPECT_NE(at, std::string::npos) << "missing " << anchor;
    if (at == std::string::npos)
        return -1;
    size_t k = json.find("\"" + key + "\":", at);
    EXPECT_NE(k, std::string::npos) << "missing " << key;
    if (k == std::string::npos)
        return -1;
    return std::strtod(json.c_str() + k + key.size() + 3, nullptr);
}

} // namespace

TEST(ObsJson, EscapeAndNumberFormats)
{
    EXPECT_EQ(obs::jsonEscape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    EXPECT_EQ(obs::jsonEscape(std::string("x\x01y")), "x\\u0001y");
    EXPECT_EQ(obs::jsonNumber(42), "42");
    EXPECT_EQ(obs::jsonNumber(-3), "-3");
    EXPECT_EQ(obs::jsonNumber(0), "0");
    // Round-trip precision for non-integers.
    double v = 0.1 + 0.2;
    EXPECT_DOUBLE_EQ(std::strtod(obs::jsonNumber(v).c_str(), nullptr), v);
    EXPECT_EQ(obs::jsonNumber(1.0 / 0.0), "0"); // non-finite degrades
}

TEST(ObsTrace, StreamBuffersAndCaps)
{
    obs::TraceSink sink(4);
    obs::TraceStream *s = sink.makeStream("cu_0", obs::TidCuBase);
    for (unsigned i = 0; i < 10; ++i)
        s->emit(obs::TraceKind::IbFlush, i, 0, i, 1);
    EXPECT_EQ(s->events().size(), 4u);
    EXPECT_EQ(s->dropped(), 6u);
    EXPECT_EQ(sink.totalEvents(), 4u);
    EXPECT_EQ(sink.totalDropped(), 6u);
    EXPECT_EQ(s->tid(), obs::TidCuBase);
    EXPECT_EQ(s->threadName(), "cu_0");
    // String interning dedups.
    EXPECT_EQ(s->intern("kern"), s->intern("kern"));
    EXPECT_NE(s->intern("kern"), s->intern("other"));
}

TEST(ObsTrace, ChromeJsonIsWellFormed)
{
    obs::TraceSink sink;
    obs::TraceStream *cu = sink.makeStream("cu_0", obs::TidCuBase);
    obs::TraceStream *rt = sink.makeStream("runtime", obs::TidRuntime);
    // One event of every kind, including the string-carrying ones and
    // a name that needs escaping.
    cu->emit(obs::TraceKind::InstIssue, 100, 4, 3,
             (0x40u << 4) | uint64_t(arch::InstClass::VAlu));
    cu->emit(obs::TraceKind::IbFlush, 101, 0, 3, 2);
    cu->emit(obs::TraceKind::RsPush, 102, 0, 3, 1);
    cu->emit(obs::TraceKind::RsPop, 103, 0, 3, 0);
    cu->emit(obs::TraceKind::DepStall, 104, 7, 3, 1);
    cu->emit(obs::TraceKind::WfStart, 105, 0, 3, 9);
    cu->emit(obs::TraceKind::WfEnd, 106, 0, 3, 9);
    cu->emit(obs::TraceKind::CacheMiss, 107, 160, 0xdeadbeef, 1);
    cu->emit(obs::TraceKind::IdleSkip, 108, 50, 50);
    rt->emit(obs::TraceKind::KernelDispatch, 0, 500,
             rt->intern("vec\"add"));
    rt->emit(obs::TraceKind::Watchdog, 600, 0, rt->intern("stalled"));

    obs::TraceMeta meta;
    meta.workload = "VecAdd";
    meta.isa = "HSAIL";
    meta.scale = 0.25;
    std::ostringstream os;
    sink.writeChromeTrace(os, meta);
    std::string json = os.str();

    EXPECT_TRUE(JsonChecker(json).valid()) << json;
    // Structural spot checks a JSON validator cannot make.
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"process_name\""), std::string::npos);
    EXPECT_NE(json.find("\"VecAdd/HSAIL\""), std::string::npos);
    EXPECT_NE(json.find("\"waitcnt_stall\""), std::string::npos);
    EXPECT_NE(json.find("kernel vec\\\"add"), std::string::npos);
    EXPECT_NE(json.find("\"valu\""), std::string::npos);
    EXPECT_EQ(numberAfter(json, "\"name\":\"valu\"", "pc"), 0x40);
}

TEST(ObsTrace, TracedRunProducesEventsAndValidJson)
{
    obs::TraceSink sink;
    GpuConfig cfg;
    cfg.trace = &sink;
    sim::AppResult r =
        sim::runApp("VecAdd", IsaKind::GCN3, cfg, {TestScale});
    ASSERT_TRUE(r.verified);

    // Every issued instruction got an InstIssue span (stream caps not
    // hit at this scale), plus dispatch/WF events.
    uint64_t instEvents = 0, wfStarts = 0, dispatches = 0;
    for (size_t i = 0; i < sink.numStreams(); ++i) {
        for (const obs::TraceEvent &e : sink.stream(i).events()) {
            instEvents += e.kind == obs::TraceKind::InstIssue;
            wfStarts += e.kind == obs::TraceKind::WfStart;
            dispatches += e.kind == obs::TraceKind::KernelDispatch;
        }
    }
    EXPECT_EQ(sink.totalDropped(), 0u);
    EXPECT_EQ(instEvents, r.dynInsts);
    EXPECT_GT(wfStarts, 0u);
    EXPECT_EQ(dispatches, r.launches.size());

    obs::TraceMeta meta;
    meta.workload = r.workload;
    meta.isa = "GCN3";
    meta.scale = TestScale;
    std::ostringstream os;
    sink.writeChromeTrace(os, meta);
    EXPECT_TRUE(JsonChecker(os.str()).valid());
}

TEST(ObsTrace, TracingOnOffIsStatisticIdentical)
{
    for (IsaKind isa : {IsaKind::HSAIL, IsaKind::GCN3}) {
        sim::AppResult plain =
            sim::runApp("VecAdd", isa, GpuConfig{}, {TestScale});
        obs::TraceSink sink;
        GpuConfig cfg;
        cfg.trace = &sink;
        sim::AppResult traced =
            sim::runApp("VecAdd", isa, cfg, {TestScale});
        EXPECT_GT(sink.totalEvents(), 0u);
        test::expectSameResult(plain, traced);
    }
}

TEST(ObsTrace, FastForwardKeepsEveryEvent)
{
    // Fast-forward charges a skipped window through the wait rule a
    // ticked cycle takes, so its trace is the fully ticked one plus
    // IdleSkip spans. In these three specs dependency stalls begin
    // inside skipped windows: an s_nop wait ends, or a unit frees.
    const std::pair<const char *, IsaKind> specs[] = {
        {"LULESH", IsaKind::HSAIL},
        {"MD", IsaKind::PTXL},
        {"HPGMG", IsaKind::GCN3},
    };
    auto kept = [](const obs::TraceStream &s) {
        std::vector<obs::TraceEvent> ev;
        for (const obs::TraceEvent &e : s.events())
            if (e.kind != obs::TraceKind::IdleSkip)
                ev.push_back(e);
        return ev;
    };
    for (const auto &[workload, isa] : specs) {
        SCOPED_TRACE(std::string(workload) + "/" + isaName(isa));
        obs::TraceSink ticked, skipped;
        for (obs::TraceSink *sink : {&ticked, &skipped}) {
            GpuConfig cfg;
            cfg.trace = sink;
            cfg.fastForwardIdle = sink == &skipped;
            ASSERT_TRUE(
                sim::runApp(workload, isa, cfg, {TestScale}).verified);
            EXPECT_EQ(sink->totalDropped(), 0u);
        }
        ASSERT_EQ(ticked.numStreams(), skipped.numStreams());
        for (size_t i = 0; i < ticked.numStreams(); ++i) {
            const std::vector<obs::TraceEvent> a = kept(ticked.stream(i));
            const std::vector<obs::TraceEvent> b = kept(skipped.stream(i));
            const std::string &track = ticked.stream(i).threadName();
            EXPECT_EQ(a.size(), b.size()) << track;
            for (size_t k = 0; k < std::min(a.size(), b.size()); ++k) {
                if (a[k].kind != b[k].kind || a[k].ts != b[k].ts ||
                    a[k].dur != b[k].dur || a[k].arg0 != b[k].arg0 ||
                    a[k].arg1 != b[k].arg1) {
                    ADD_FAILURE()
                        << track << " event " << k << ": ticked kind "
                        << int(a[k].kind) << " [" << a[k].ts << ", +"
                        << a[k].dur << "), fast-forwarded kind "
                        << int(b[k].kind) << " [" << b[k].ts << ", +"
                        << b[k].dur << ")";
                    break;
                }
            }
        }
    }
}

TEST(ObsStatsExport, JsonMatchesRegistryExactly)
{
    std::string json;
    std::vector<std::pair<std::string, double>> expected;
    sim::runApp("VecAdd", IsaKind::HSAIL, GpuConfig{}, {TestScale},
                [&](runtime::Runtime &rt) {
                    obs::ExportMeta meta;
                    meta.workload = "VecAdd";
                    meta.isa = "HSAIL";
                    meta.scale = TestScale;
                    std::ostringstream os;
                    obs::writeStatsJson(os, rt, meta);
                    json = os.str();
                    for (const obs::StatRow &row : obs::flattenStats(rt))
                        expected.emplace_back(row.path,
                                              row.stat->value());
                });

    ASSERT_FALSE(json.empty());
    ASSERT_FALSE(expected.empty());
    EXPECT_TRUE(JsonChecker(json).valid());

    // Every stat in the registry appears with exactly its in-memory
    // value (jsonNumber round-trips doubles bit-exactly).
    for (const auto &[path, value] : expected) {
        double got =
            numberAfter(json, "\"path\":\"" + path + "\"", "value");
        EXPECT_DOUBLE_EQ(got, value) << path;
    }
    // The tree includes the root, the GPU, CU and cache groups.
    EXPECT_NE(json.find("sim.gpu.totalCycles"), std::string::npos);
    EXPECT_NE(json.find("sim.gpu.cu_0.dynInsts"), std::string::npos);
    EXPECT_NE(json.find("sim.gpu.l1d_0.misses"), std::string::npos);
    EXPECT_NE(json.find("\"kind\":\"histogram\""), std::string::npos);
    EXPECT_NE(json.find("\"kind\":\"average\""), std::string::npos);
}

TEST(ObsStatsExport, CsvHasOneRowPerStat)
{
    std::string csv;
    size_t nstats = 0;
    sim::runApp("VecAdd", IsaKind::GCN3, GpuConfig{}, {TestScale},
                [&](runtime::Runtime &rt) {
                    obs::ExportMeta meta;
                    meta.workload = "VecAdd";
                    meta.isa = "GCN3";
                    std::ostringstream os;
                    obs::writeStatsCsv(os, rt, meta);
                    csv = os.str();
                    nstats = obs::flattenStats(rt).size();
                });
    ASSERT_GT(nstats, 0u);
    size_t lines = 0;
    for (char c : csv)
        lines += c == '\n';
    EXPECT_EQ(lines, nstats + 1); // header + one row per stat
    EXPECT_EQ(csv.rfind("workload,isa,scale,seed,fault_plan,path", 0),
              0u);
    EXPECT_NE(csv.find("sim.gpu.cu_0.dynInsts,scalar,"),
              std::string::npos);
}

TEST(ObsDivergence, RelDeltaRules)
{
    EXPECT_DOUBLE_EQ(obs::relDelta(0, 0), 0);     // both-zero never ranks
    EXPECT_DOUBLE_EQ(obs::relDelta(100, 100), 0);
    EXPECT_DOUBLE_EQ(obs::relDelta(100, 150), 1.0 / 3.0);
    EXPECT_DOUBLE_EQ(obs::relDelta(0, 5), 1.0);   // appears-from-nothing
    EXPECT_DOUBLE_EQ(obs::relDelta(5, 0), 1.0);
    EXPECT_DOUBLE_EQ(obs::relDelta(-2, 2), 2.0);
}

TEST(ObsDivergence, FlagsKnownDivergentAndAccurateStats)
{
    obs::DivergenceReport r = hsailGcn3Report();
    ASSERT_FALSE(r.failed) << r.error;
    ASSERT_FALSE(r.entries.empty());

    // The paper's headline divergent statistic: the GCN3 dynamic
    // instruction stream carries waitcnt/nop/scalar overhead the IL
    // never sees (Figure 5).
    const obs::DivergenceEntry *dyn = r.find("dynInsts");
    ASSERT_NE(dyn, nullptr);
    const obs::DivergencePair *d =
        dyn->findPair(IsaKind::HSAIL, IsaKind::GCN3);
    ASSERT_NE(d, nullptr);
    EXPECT_TRUE(d->divergent) << "hsail=" << d->va << " gcn3=" << d->vb;
    EXPECT_GT(d->vb, d->va);
    EXPECT_EQ(d->paperExpectation, "divergent");

    // The paper's headline accurate statistic: SIMD utilization is a
    // property of the algorithm's control flow, not the encoding
    // (Table 6).
    const obs::DivergenceEntry *simd = r.find("simdUtil");
    ASSERT_NE(simd, nullptr);
    const obs::DivergencePair *u =
        simd->findPair(IsaKind::HSAIL, IsaKind::GCN3);
    ASSERT_NE(u, nullptr);
    EXPECT_FALSE(u->divergent) << "hsail=" << u->va << " gcn3=" << u->vb;
    EXPECT_EQ(u->paperExpectation, "similar");

    // Ranking: descending relDelta, so dynInsts outranks simdUtil.
    size_t dynPos = size_t(dyn - r.entries.data());
    size_t simdPos = size_t(simd - r.entries.data());
    EXPECT_LT(dynPos, simdPos);
    for (size_t i = 1; i < r.entries.size(); ++i)
        EXPECT_GE(r.entries[i - 1].maxRelDelta, r.entries[i].maxRelDelta);

    // Serialized forms are well-formed.
    std::ostringstream js, txt;
    obs::writeDivergenceJson(js, r);
    obs::writeDivergenceText(txt, r);
    EXPECT_TRUE(JsonChecker(js.str()).valid()) << js.str();
    EXPECT_NE(txt.str().find("DIVERGENT"), std::string::npos);
    EXPECT_NE(txt.str().find("dynInsts"), std::string::npos);
}

TEST(ObsDivergence, SweepDriverBatchesWorkloads)
{
    // The runShard + divergenceFromCache batch path answers one report
    // per argument, in argument order (canonical cache order would put
    // ArrayBW first), a repeated workload included; an unknown name
    // fails only its own report.
    auto reports = obs::divergenceReports(
        {"VecAdd", "ArrayBW", "VecAdd", "NoSuchWorkload"}, {TestScale});
    ASSERT_EQ(reports.size(), 4u);
    EXPECT_EQ(reports[0].workload, "VecAdd");
    EXPECT_EQ(reports[1].workload, "ArrayBW");
    EXPECT_EQ(reports[2].workload, "VecAdd");
    EXPECT_EQ(reports[3].workload, "NoSuchWorkload");
    for (size_t i = 0; i < 3; ++i) {
        const obs::DivergenceReport &r = reports[i];
        EXPECT_FALSE(r.failed) << r.error;
        EXPECT_FALSE(r.entries.empty());
        const obs::DivergenceEntry *dyn = r.find("dynInsts");
        ASSERT_NE(dyn, nullptr);
        const obs::DivergencePair *d =
            dyn->findPair(IsaKind::HSAIL, IsaKind::GCN3);
        ASSERT_NE(d, nullptr);
        EXPECT_TRUE(d->divergent);
    }
    std::ostringstream first, repeat;
    obs::writeDivergenceJson(first, reports[0]);
    obs::writeDivergenceJson(repeat, reports[2]);
    EXPECT_EQ(first.str(), repeat.str());

    const obs::DivergenceReport &unknown = reports[3];
    EXPECT_TRUE(unknown.failed);
    EXPECT_TRUE(unknown.entries.empty());
    EXPECT_EQ(unknown.error, "fatal: unknown workload 'NoSuchWorkload'");
}

TEST(ObsDivergence, QuarantinedRunFailsOnlyItsReport)
{
    sim::AppResult ok =
        sim::runApp("VecAdd", IsaKind::HSAIL, GpuConfig{}, {TestScale});
    sim::AppResult bad;
    bad.workload = "VecAdd";
    bad.isa = IsaKind::GCN3;
    bad.quarantined = true;
    bad.errorKind = "deadlock";
    bad.errorMessage = "watchdog";
    obs::DivergenceReport r = obs::divergenceReport(
        {&ok, &bad}, {IsaKind::HSAIL, IsaKind::GCN3});
    EXPECT_TRUE(r.failed);
    EXPECT_TRUE(r.entries.empty());
    EXPECT_NE(r.error.find("deadlock"), std::string::npos);
    std::ostringstream js;
    obs::writeDivergenceJson(js, r);
    EXPECT_TRUE(JsonChecker(js.str()).valid());
}

// ---------------------------------------------------------------------
// last-divergence-v2 schema: round-trip, v1 compat, torn input.
// ---------------------------------------------------------------------

namespace
{

/** Field-for-field equality of a report and its parsed round-trip.
 *  %.17g serialization must reproduce every double bit-exactly. */
void
expectReportsEqual(const obs::DivergenceReport &a,
                   const obs::DivergenceReport &b)
{
    EXPECT_EQ(a.workload, b.workload);
    EXPECT_EQ(a.scale, b.scale);
    EXPECT_EQ(a.threshold, b.threshold);
    EXPECT_EQ(a.failed, b.failed);
    EXPECT_EQ(a.error, b.error);
    ASSERT_EQ(a.isas, b.isas);
    ASSERT_EQ(a.entries.size(), b.entries.size());
    for (size_t i = 0; i < a.entries.size(); ++i) {
        const obs::DivergenceEntry &x = a.entries[i];
        const obs::DivergenceEntry &y = b.entries[i];
        SCOPED_TRACE(x.stat);
        EXPECT_EQ(x.stat, y.stat);
        EXPECT_EQ(x.figure, y.figure);
        ASSERT_EQ(x.values.size(), y.values.size());
        for (size_t k = 0; k < x.values.size(); ++k)
            EXPECT_EQ(x.values[k], y.values[k]);
        EXPECT_EQ(x.maxRelDelta, y.maxRelDelta);
        ASSERT_EQ(x.pairs.size(), y.pairs.size());
        for (size_t k = 0; k < x.pairs.size(); ++k) {
            const obs::DivergencePair &p = x.pairs[k];
            const obs::DivergencePair &q = y.pairs[k];
            EXPECT_EQ(p.a, q.a);
            EXPECT_EQ(p.b, q.b);
            EXPECT_EQ(p.va, q.va);
            EXPECT_EQ(p.vb, q.vb);
            EXPECT_EQ(p.relDelta, q.relDelta);
            EXPECT_EQ(p.divergent, q.divergent);
            EXPECT_EQ(p.direction(), q.direction());
            EXPECT_EQ(p.paperExpectation, q.paperExpectation);
        }
    }
}

/** One real N×N report, shared by the schema tests (built once: the
 *  differential run is the expensive part, the parses are cheap). */
const obs::DivergenceReport &
nxnReport()
{
    static const obs::DivergenceReport r =
        obs::divergenceReports({"VecAdd"}, {TestScale})[0];
    return r;
}

std::string
serialized(const obs::DivergenceReport &r)
{
    std::ostringstream os;
    obs::writeDivergenceJson(os, r);
    return os.str();
}

} // namespace

TEST(DivergenceSchemaV2, RoundTripPreservesEveryField)
{
    const obs::DivergenceReport &r = nxnReport();
    ASSERT_FALSE(r.failed) << r.error;
    ASSERT_EQ(r.isas.size(), NumIsas);
    std::string js = serialized(r);
    EXPECT_NE(js.find("\"schema\":\"last-divergence-v2\""),
              std::string::npos);
    EXPECT_TRUE(JsonChecker(js).valid()) << js;
    obs::DivergenceReport back = obs::readDivergenceJson(js, "<test>");
    expectReportsEqual(r, back);
    // Writing the parsed report again is byte-identical: the schema
    // has one canonical serialization.
    EXPECT_EQ(js, serialized(back));
}

TEST(DivergenceSchemaV2, ArrayFormRoundTripsIncludingFailedReports)
{
    obs::DivergenceReport bad;
    bad.workload = "VecAdd";
    bad.failed = true;
    bad.error = "GCN3: deadlock \"watchdog\"\n";
    bad.isas = {IsaKind::HSAIL, IsaKind::GCN3, IsaKind::PTXL};
    std::vector<obs::DivergenceReport> rs = {nxnReport(), bad};
    std::ostringstream os;
    obs::writeDivergenceJsonArray(os, rs);
    ASSERT_TRUE(JsonChecker(os.str()).valid()) << os.str();
    auto back = obs::readDivergenceJsonArray(os.str(), "<test>");
    ASSERT_EQ(back.size(), 2u);
    expectReportsEqual(rs[0], back[0]);
    expectReportsEqual(rs[1], back[1]);
    EXPECT_TRUE(back[1].failed);
    EXPECT_TRUE(back[1].entries.empty());
}

TEST(DivergenceSchemaV2, TwoIsaReportKeepsV1LegacyView)
{
    // A two-level (HSAIL, GCN3) report must round-trip as a two-level
    // report whose values and single pair agree exactly, its one pair
    // carrying the ranking key as v1's flat fields did.
    obs::DivergenceReport r = hsailGcn3Report();
    ASSERT_FALSE(r.failed) << r.error;
    std::vector<IsaKind> want = {IsaKind::HSAIL, IsaKind::GCN3};
    EXPECT_EQ(r.isas, want);
    obs::DivergenceReport back =
        obs::readDivergenceJson(serialized(r), "<test>");
    expectReportsEqual(r, back);
    for (const obs::DivergenceEntry &e : back.entries) {
        ASSERT_EQ(e.pairs.size(), 1u) << e.stat;
        ASSERT_EQ(e.values.size(), 2u) << e.stat;
        EXPECT_EQ(e.maxRelDelta, e.pairs[0].relDelta) << e.stat;
        EXPECT_EQ(e.pairs[0].va, e.values[0]) << e.stat;
        EXPECT_EQ(e.pairs[0].vb, e.values[1]) << e.stat;
    }
}

TEST(DivergenceSchemaV2, V1PayloadReadsAsTwoLevelReport)
{
    // A legacy last-divergence-v1 file (shape per SCHEMAS.md) must
    // read back as the {HSAIL, GCN3} report it always meant, with the
    // pair triangle synthesized from the flat v1 fields.
    const std::string v1 =
        "{\n\"schema\":\"last-divergence-v1\",\n"
        "\"workload\":\"atomicred\",\"scale\":0.25,"
        "\"threshold\":0.10000000000000001,"
        "\"failed\":false,\"error\":\"\",\n"
        "\"entries\":[\n"
        "{\"stat\":\"salu\",\"figure\":\"Figure 5\",\"hsail\":0,"
        "\"gcn3\":112,\"rel_delta\":1,\"classification\":\"divergent\","
        "\"paper\":\"divergent\"},\n"
        "{\"stat\":\"simdUtil\",\"figure\":\"Table 6\",\"hsail\":1,"
        "\"gcn3\":1,\"rel_delta\":0,\"classification\":\"similar\","
        "\"paper\":\"similar\"}\n"
        "]}\n";
    obs::DivergenceReport r = obs::readDivergenceJson(v1, "<v1>");
    EXPECT_EQ(r.workload, "atomicred");
    EXPECT_EQ(r.scale, 0.25);
    std::vector<IsaKind> want = {IsaKind::HSAIL, IsaKind::GCN3};
    EXPECT_EQ(r.isas, want);
    ASSERT_EQ(r.entries.size(), 2u);
    const obs::DivergenceEntry &salu = r.entries[0];
    EXPECT_EQ(salu.stat, "salu");
    ASSERT_EQ(salu.values.size(), 2u);
    EXPECT_EQ(salu.values[0], 0);
    EXPECT_EQ(salu.values[1], 112);
    ASSERT_EQ(salu.pairs.size(), 1u);
    const obs::DivergencePair *p =
        salu.findPair(IsaKind::HSAIL, IsaKind::GCN3);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(p->va, 0);
    EXPECT_EQ(p->vb, 112);
    EXPECT_EQ(p->relDelta, 1);
    EXPECT_TRUE(p->divergent);
    EXPECT_EQ(salu.maxRelDelta, p->relDelta);
    EXPECT_EQ(p->direction(), "<");
    EXPECT_EQ(p->paperExpectation, "divergent");
    ASSERT_EQ(r.entries[1].pairs.size(), 1u);
    EXPECT_FALSE(r.entries[1].pairs[0].divergent);
    // Re-serializing upgrades the payload to v2 in place.
    std::string upgraded = serialized(r);
    EXPECT_NE(upgraded.find("\"schema\":\"last-divergence-v2\""),
              std::string::npos);
    expectReportsEqual(r, obs::readDivergenceJson(upgraded, "<up>"));
}

TEST(DivergenceSchemaV2, UnknownSchemaAndBadIsaAreRefused)
{
    // Per SCHEMAS.md: readers refuse unknown schema ids rather than
    // guessing, and every refusal names the source and a byte offset.
    std::string v3 = serialized(nxnReport());
    size_t at = v3.find("last-divergence-v2");
    ASSERT_NE(at, std::string::npos);
    v3.replace(at, 18, "last-divergence-v3");
    try {
        obs::readDivergenceJson(v3, "<v3>");
        FAIL() << "unknown schema id accepted";
    } catch (const ConfigError &e) {
        EXPECT_NE(std::string(e.what()).find("<v3>"), std::string::npos)
            << e.what();
        EXPECT_NE(std::string(e.what()).find("at byte"),
                  std::string::npos)
            << e.what();
    }

    std::string badIsa = serialized(nxnReport());
    at = badIsa.find("\"PTXL\"");
    ASSERT_NE(at, std::string::npos);
    badIsa.replace(at, 6, "\"VEGA\"");
    EXPECT_THROW(obs::readDivergenceJson(badIsa, "<isa>"), ConfigError);

    // A pair referencing an ISA absent from the report's own isa list
    // is refused too (the triangle must be internally consistent).
    std::string orphan = serialized(nxnReport());
    at = orphan.find("\"isas\":[\"HSAIL\",\"GCN3\",\"PTXL\"]");
    ASSERT_NE(at, std::string::npos);
    orphan.replace(at, 31, "\"isas\":[\"HSAIL\",\"GCN3\"]");
    EXPECT_THROW(obs::readDivergenceJson(orphan, "<orphan>"),
                 ConfigError);
}

TEST(DivergenceSchemaV2, TornInputFailsLoudlyAtEveryTruncation)
{
    // A crashed writer (the shard/journal suites simulate SIGKILL
    // mid-write) leaves a prefix. Every proper prefix must throw
    // ConfigError — never crash, never parse to a partial report.
    // The only exception: trailing-newline-only truncation, which is
    // still a complete document.
    std::string js = serialized(nxnReport());
    ASSERT_EQ(js.back(), '\n');
    for (size_t len = 0; len + 1 < js.size(); ++len) {
        try {
            obs::readDivergenceJson(js.substr(0, len), "<torn>");
            FAIL() << "torn prefix of " << len << " bytes parsed";
        } catch (const ConfigError &) {
            // expected
        }
    }
    expectReportsEqual(
        nxnReport(),
        obs::readDivergenceJson(js.substr(0, js.size() - 1), "<t>"));
}

TEST(DivergenceSchemaV2, GarbageMutationsNeverCrashTheReader)
{
    // Single-byte corruption fuzz: the reader either throws ConfigError
    // or parses (a mutation can land in a value and still be valid
    // JSON) — anything else (crash, other exception) fails the test.
    std::string base = serialized(nxnReport());
    std::mt19937_64 rng(0xD1F5EEDull);
    unsigned parsed = 0, refused = 0;
    for (int trial = 0; trial < 400; ++trial) {
        std::string s = base;
        size_t pos = rng() % s.size();
        s[pos] = char(rng() & 0xFF);
        try {
            obs::readDivergenceJson(s, "<fuzz>");
            ++parsed;
        } catch (const ConfigError &) {
            ++refused;
        }
    }
    EXPECT_EQ(parsed + refused, 400u);
    // Corrupting structural bytes must actually refuse: a reader that
    // "accepts" most mutations is not strict.
    EXPECT_GT(refused, 200u);
}
