/**
 * @file
 * Host-time benchmark driver for the `last` simulator.
 *
 *   hostbench --workload W --seed N --seconds S --trace 0|1
 *             [--root DIR] [--commit ID]
 *
 * Runs one named workload in this process through the simulator's
 * public API (canonicalMatrix, runShard, runApp, parallelInvokeCollect,
 * the bench-cache reader and writer, divergenceFromCache and
 * writeDivergenceJsonArray), checks every output against the committed
 * last_bench_cache.csv under DIR, and prints one metric per line
 * followed by a single JSON result line:
 *
 *   {"correct":..,"attempted":..,"failed":..,"metrics":{..}}
 *
 * `attempted` counts specs (one workload at one ISA level) run or
 * served; `failed` counts specs that were quarantined, did not verify,
 * disagreed across levels, produced a row (or report) that is not
 * byte-identical to the reference, or — on warm-reuse — were simulated
 * instead of reused.
 *
 * --trace 0 reports the end-to-end metrics from iterations with tracing
 * off: wall_s, cpu_s and winst_per_s from the run's best times (the
 * best iteration; on serial sweeps, the sum of each spec's best), with
 * the median and the tail percentile printed beside them; the median
 * set-up time and the peak resident memory. --trace 1 reports per-layer metrics: spans the driver
 * records around calls into each module, simulated-event counts read
 * through a RuntimeInspector and obs::flattenStats, and the tracing
 * overhead against untraced iterations of the same run.
 *
 * Seeds: seed 0 is the committed canonical matrix. A nonzero seed
 * reseeds the four stress workloads (WorkloadScale::seed); their rows
 * are then checked for verification, cross-level agreement and
 * byte-identity across the iterations of the run, while the Table 5
 * rows stay byte-compared against the committed cache.
 */

#include <sched.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "obs/divergence.hh"
#include "obs/json.hh"
#include "obs/stats_export.hh"
#include "runtime/runtime.hh"
#include "sim/artifact_cache.hh"
#include "sim/bench_cache.hh"
#include "sim/parallel.hh"
#include "sim/shard.hh"
#include "workloads/workload.hh"

namespace
{

using namespace last;
using Clock = std::chrono::steady_clock;

// ---------------------------------------------------------------------
// Clocks and process figures.

double
since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** User + system CPU seconds of the whole process (all threads). */
double
processCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return double(ts.tv_sec) + double(ts.tv_nsec) * 1e-9;
}

double
peakRssMb()
{
    // VmHWM, not getrusage's ru_maxrss: Linux carries ru_maxrss across
    // execve, so it would report the launching process's peak.
    std::ifstream in("/proc/self/status");
    std::string key;
    double kib = 0;
    while (in >> key) {
        if (key == "VmHWM:") {
            in >> kib;
            break;
        }
        in.ignore(1 << 20, '\n');
    }
    return kib / 1024.0;
}

unsigned
onlineCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0)
        return unsigned(std::max(1, CPU_COUNT(&set)));
    return std::max(1u, std::thread::hardware_concurrency());
}

/** The 1-minute load average as a JSON value. */
std::string
loadAverage1m()
{
    std::ifstream in("/proc/loadavg");
    std::string first;
    if (!(in >> first))
        return "null";
    return first;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/** The highest of a few standard percentiles with at least ten samples
 *  beyond it (nearest rank), or {0, 0} when there are too few samples. */
std::pair<double, double>
tailPercentile(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const double n = double(v.size());
    for (double p : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0}) {
        if (n * (1.0 - p / 100.0) < 10.0)
            continue;
        size_t rank = size_t(std::ceil(p / 100.0 * n));
        return {p, v[std::max<size_t>(rank, 1) - 1]};
    }
    return {0, 0};
}

// ---------------------------------------------------------------------
// Command line.

const std::vector<std::string> WorkloadNames = {
    "sweep-serial", "sweep-parallel", "alu-resident", "warm-reuse"};

struct Args
{
    std::string workload;
    uint64_t seed = 0;
    double seconds = 10;
    bool trace = false;
    std::string root = ".";
    std::string commit = "unknown";
};

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "hostbench: " << why << "\n"
              << "usage: hostbench --workload "
                 "{sweep-serial|sweep-parallel|alu-resident|warm-reuse}"
                 " --seed N --seconds S --trace 0|1 [--root DIR]"
                 " [--commit ID]\n";
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + flag);
        std::string val = argv[++i];
        try {
            if (flag == "--workload")
                a.workload = val;
            else if (flag == "--seed")
                a.seed = std::stoull(val);
            else if (flag == "--seconds")
                a.seconds = std::stod(val);
            else if (flag == "--trace")
                a.trace = std::stoi(val) != 0;
            else if (flag == "--root")
                a.root = val;
            else if (flag == "--commit")
                a.commit = val;
            else
                usage("unknown flag " + flag);
        } catch (const std::logic_error &) {
            usage("bad value '" + val + "' for " + flag);
        }
    }
    if (std::find(WorkloadNames.begin(), WorkloadNames.end(),
                  a.workload) == WorkloadNames.end())
        usage("unknown workload '" + a.workload + "'");
    if (!(a.seconds > 0))
        usage("--seconds must be positive");
    return a;
}

// ---------------------------------------------------------------------
// The correctness gate.

std::string
cacheBytes(const sim::BenchCacheFile &cache)
{
    std::ostringstream os;
    sim::writeBenchCache(os, cache);
    return os.str();
}

/** One row as the cache file holds it (header and trailer included). */
std::string
rowBytes(const sim::CachedRun &row, double scale)
{
    sim::BenchCacheFile one;
    one.scale = scale;
    one.rows = {row};
    return cacheBytes(one);
}

std::string
rowKey(const sim::CacheKey &k)
{
    return k.workload + "|" + isaName(k.isa) + "|" +
           std::to_string(k.seed) + "|" + std::to_string(k.knobDigest);
}

/**
 * Decides which specs of a produced cache failed. Expectations are the
 * reference cache's rows and divergence reports; a row or report the
 * reference does not hold (a stress workload at a nonzero seed) is
 * expected to repeat the first healthy copy seen in this process.
 */
class Gate
{
  public:
    explicit Gate(const sim::BenchCacheFile &ref) : scale(ref.scale)
    {
        for (const sim::CachedRun &row : ref.rows)
            if (!row.result.quarantined)
                rows.emplace(rowKey(row.key), rowBytes(row, scale));
        for (const obs::DivergenceReport &r : sim::divergenceFromCache(ref))
            if (!r.failed)
                reports.emplace(reportKey(r, ref), reportBytes(r));
    }

    /** Expect this exact file; otherwise the first clean one is kept. */
    void expectFile(std::string bytes) { file = std::move(bytes); }

    /** @return indices of the failed rows of `got`. */
    std::set<size_t>
    check(const sim::BenchCacheFile &got, const std::string &gotBytes,
          const std::vector<obs::DivergenceReport> &gotReports)
    {
        std::set<size_t> bad;
        for (size_t i = 0; i < got.rows.size(); ++i) {
            const sim::CachedRun &row = got.rows[i];
            bool ok = !row.result.quarantined && row.result.verified;
            if (ok)
                ok = matches(rows, rowKey(row.key), rowBytes(row, scale));
            if (!ok)
                bad.insert(i);
        }
        for (const obs::DivergenceReport &r : gotReports) {
            bool ok = !r.failed &&
                      matches(reports, reportKey(r, got), reportBytes(r));
            if (ok)
                continue;
            for (size_t i = 0; i < got.rows.size(); ++i)
                if (got.rows[i].key.workload == r.workload)
                    bad.insert(i);
        }
        if (bad.empty() && file.empty())
            file = gotBytes;
        else if (bad.empty() && gotBytes != file)
            for (size_t i = 0; i < got.rows.size(); ++i)
                bad.insert(i);
        return bad;
    }

  private:
    static bool
    matches(std::map<std::string, std::string> &expect,
            const std::string &key, const std::string &bytes)
    {
        auto [it, fresh] = expect.emplace(key, bytes);
        return fresh || it->second == bytes;
    }

    static std::string
    reportBytes(const obs::DivergenceReport &r)
    {
        std::ostringstream os;
        obs::writeDivergenceJson(os, r);
        return os.str();
    }

    /** Reports carry no seed; take it from the workload's rows. */
    static std::string
    reportKey(const obs::DivergenceReport &r,
              const sim::BenchCacheFile &cache)
    {
        for (const sim::CachedRun &row : cache.rows)
            if (row.key.workload == r.workload)
                return r.workload + "|" + std::to_string(row.key.seed);
        return r.workload;
    }

    double scale;
    std::map<std::string, std::string> rows;
    std::map<std::string, std::string> reports;
    std::string file;
};

/**
 * Negative and positive control of the gate: the committed cache must
 * pass, and the same cache with one altered statistic and one
 * quarantined row must fail both of those specs. A gate that let either
 * through would accept a statistic-changing "speed-up".
 */
bool
selfTest(const sim::BenchCacheFile &ref, const std::string &refBytes)
{
    Gate gate(ref);
    gate.expectFile(refBytes);
    if (!gate.check(ref, refBytes, sim::divergenceFromCache(ref)).empty()) {
        std::cout << "self-test: the committed cache fails its own gate\n";
        return false;
    }

    auto firstRowOf = [&ref](const std::string &w) {
        for (size_t i = 0; i < ref.rows.size(); ++i)
            if (ref.rows[i].key.workload == w)
                return i;
        throw std::runtime_error("self-test: no " + w + " row");
    };
    sim::BenchCacheFile altered = ref;
    const size_t changed = firstRowOf("BitonicSort");
    const size_t dropped = firstRowOf("LULESH");
    altered.rows[changed].result.cycles += 1;
    sim::AppResult q;
    q.workload = altered.rows[dropped].result.workload;
    q.isa = altered.rows[dropped].result.isa;
    q.quarantined = true;
    q.errorKind = "exception";
    q.errorMessage = "negative control";
    altered.rows[dropped].result = q;

    std::set<size_t> bad =
        gate.check(altered, cacheBytes(altered),
                   sim::divergenceFromCache(altered));
    double frac = double(bad.size()) / double(altered.rows.size());
    std::cout << "self-test: negative control flagged " << bad.size()
              << " of " << altered.rows.size()
              << " specs (failed_frac " << frac << ")\n";
    return frac > 0 && bad.count(changed) && bad.count(dropped);
}

// ---------------------------------------------------------------------
// Workload set-up.

bool
isStress(const std::string &w)
{
    const auto s = workloads::stressWorkloadNames();
    return std::find(s.begin(), s.end(), w) != s.end();
}

/** The canonical 42-spec matrix at scale 1 with the stress workloads
 *  reseeded; seed 0 is exactly the matrix the committed cache holds. */
std::vector<sim::RunSpec>
seededMatrix(uint64_t seed)
{
    std::vector<sim::RunSpec> specs = sim::canonicalMatrix(1.0, 0);
    for (sim::RunSpec &s : specs)
        if (isStress(s.workload))
            s.scale.seed = seed;
    return specs;
}

struct Plan
{
    bool warm = false;
    unsigned jobs = 1;
    sim::BenchCacheFile ref;  ///< the committed cache, strictly parsed
    std::string refBytes;
    std::vector<sim::RunSpec> specs;
    sim::ShardManifest manifest;
    std::string reuseBytes; ///< warm-reuse: what each iteration loads
    std::optional<Gate> gate; ///< expectations derived from `ref`
};

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw std::runtime_error("cannot read " + path);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

/** Everything a run needs before its first simulation or reuse lookup. */
Plan
setUp(const Args &a)
{
    sim::ArtifactCache::instance().clear();
    Plan p;
    const std::string refPath = a.root + "/last_bench_cache.csv";
    p.refBytes = readFile(refPath);
    std::istringstream is(p.refBytes);
    sim::readBenchCacheStrict(is, p.ref, refPath);

    p.specs = seededMatrix(a.seed);
    if (a.workload == "alu-resident") {
        // VALU-heavy, L1D-resident: probes and handlers, few victims.
        const std::set<std::string> keep = {"BitonicSort", "HPGMG", "FFT"};
        std::erase_if(p.specs, [&keep](const sim::RunSpec &s) {
            return !keep.count(s.workload);
        });
    }
    if (a.workload == "sweep-parallel")
        p.jobs = std::min(4u, onlineCpus());
    p.manifest = sim::makeShardManifests(p.specs, 1)[0];

    p.warm = a.workload == "warm-reuse";
    if (p.warm) {
        sim::BenchCacheFile reuse = p.ref;
        if (a.seed != 0) {
            // The reseeded stress rows are not committed: simulate them
            // once so that every iteration can be served from cache.
            std::vector<sim::RunSpec> stress;
            for (const sim::RunSpec &s : p.specs)
                if (isStress(s.workload))
                    stress.push_back(s);
            sim::ShardRunOptions opts;
            opts.jobs = 1;
            sim::ShardRunOutcome fresh =
                sim::runShard(sim::makeShardManifests(stress, 1)[0], opts);
            reuse = sim::mergeBenchCaches({p.ref, fresh.cache});
        }
        p.reuseBytes = cacheBytes(reuse);
    }

    p.gate.emplace(p.ref);
    if (a.seed == 0 && p.specs.size() == p.ref.rows.size())
        p.gate->expectFile(p.refBytes); // the committed file, byte for byte
    return p;
}

// ---------------------------------------------------------------------
// Spans and simulated-event counts (traced runs).

/** In-memory spans: name, start, end, and the span that caused it. */
class SpanLog
{
  public:
    /** Records one span for its lifetime; a no-op without a log, which
     *  is how the untraced iterations share the traced code. */
    class Scope
    {
      public:
        Scope(SpanLog *log, std::string name, int parent = -1)
            : log(log), id(log ? log->open(std::move(name), parent) : -1)
        {}
        ~Scope()
        {
            if (log)
                log->close(id);
        }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

        SpanLog *const log;
        const int id;
    };

    /** Total seconds per span name. */
    std::map<std::string, double>
    totals() const
    {
        std::lock_guard<std::mutex> g(mu);
        std::map<std::string, double> out;
        for (const Span &s : spans)
            out[s.name] += s.seconds();
        return out;
    }

    /** Share of the root spans' time that their children do not cover:
     *  host time this trace leaves unattributed. */
    double
    unattributedShare() const
    {
        std::lock_guard<std::mutex> g(mu);
        double roots = 0, covered = 0;
        for (const Span &s : spans) {
            if (s.parent < 0)
                roots += s.seconds();
            else if (spans[size_t(s.parent)].parent < 0)
                covered += s.seconds();
        }
        return roots > 0 ? (roots - covered) / roots : 0;
    }

    /** One "span" line per name: count, total and self milliseconds
     *  (self = duration minus the time its child spans cover; children
     *  running concurrently on pool workers can exceed their parent). */
    void
    print(std::ostream &os) const
    {
        std::lock_guard<std::mutex> g(mu);
        std::vector<double> childSum(spans.size(), 0);
        for (const Span &s : spans)
            if (s.parent >= 0)
                childSum[size_t(s.parent)] += s.seconds();
        std::map<std::string, std::array<double, 3>> agg;
        for (size_t i = 0; i < spans.size(); ++i) {
            auto &a = agg[spans[i].name];
            a[0] += 1;
            a[1] += spans[i].seconds() * 1e3;
            a[2] += (spans[i].seconds() - childSum[i]) * 1e3;
        }
        for (const auto &[name, a] : agg)
            os << "span " << name << " count=" << a[0]
               << " total_ms=" << a[1] << " self_ms=" << a[2] << "\n";
    }

  private:
    struct Span
    {
        std::string name;
        int parent;
        Clock::time_point start, end;
        double seconds() const
        {
            return std::chrono::duration<double>(end - start).count();
        }
    };

    int
    open(std::string name, int parent)
    {
        std::lock_guard<std::mutex> g(mu);
        spans.push_back({std::move(name), parent, Clock::now(), {}});
        return int(spans.size() - 1);
    }

    void
    close(int id)
    {
        std::lock_guard<std::mutex> g(mu);
        spans[size_t(id)].end = Clock::now();
    }

    mutable std::mutex mu;
    std::vector<Span> spans;
};

/** Simulated-event counts of one spec, summed over the stats tree. */
struct Counts
{
    uint64_t dynInsts = 0, valuInsts = 0, vmemInsts = 0, ldsInsts = 0;
    uint64_t vrfReadProbes = 0, vrfWriteProbes = 0, vrfBankConflicts = 0;
    uint64_t coalescedLines = 0, busyCycles = 0;
    uint64_t l1dHits = 0, l1dMisses = 0, l1dMerges = 0, l2Misses = 0;
    uint64_t dramAccesses = 0, mshrMerges = 0, dataFootprint = 0;
    uint64_t gpuCycles = 0, kernelLaunches = 0;

    bool operator==(const Counts &) const = default;

    Counts &
    operator+=(const Counts &o)
    {
        dynInsts += o.dynInsts, valuInsts += o.valuInsts;
        vmemInsts += o.vmemInsts, ldsInsts += o.ldsInsts;
        vrfReadProbes += o.vrfReadProbes;
        vrfWriteProbes += o.vrfWriteProbes;
        vrfBankConflicts += o.vrfBankConflicts;
        coalescedLines += o.coalescedLines, busyCycles += o.busyCycles;
        l1dHits += o.l1dHits, l1dMisses += o.l1dMisses;
        l1dMerges += o.l1dMerges, l2Misses += o.l2Misses;
        dramAccesses += o.dramAccesses, mshrMerges += o.mshrMerges;
        dataFootprint += o.dataFootprint, gpuCycles += o.gpuCycles;
        kernelLaunches += o.kernelLaunches;
        return *this;
    }
};

/** Read a finished simulation's counts through the stats export. */
Counts
countsOf(runtime::Runtime &rt)
{
    Counts c;
    for (const obs::StatRow &row : obs::flattenStats(rt)) {
        // Paths look like sim.gpu.cu_3.dynInsts or sim.gpu.l1d_0.misses.
        const size_t dot = row.path.rfind('.');
        const size_t gdot = row.path.rfind('.', dot - 1);
        if (dot == std::string::npos || gdot == std::string::npos)
            continue;
        const std::string stat = row.path.substr(dot + 1);
        const std::string group = row.path.substr(gdot + 1, dot - gdot - 1);
        const auto v = uint64_t(row.stat->value());
        auto samples = [&row]() -> uint64_t {
            auto *avg = dynamic_cast<const stats::Average *>(row.stat);
            return avg ? avg->samples() : 0;
        };
        auto in = [&group](const char *prefix) {
            return group.rfind(prefix, 0) == 0;
        };
        if (in("cu_")) {
            if (stat == "dynInsts") c.dynInsts += v;
            else if (stat == "valuInsts") c.valuInsts += v;
            else if (stat == "vmemInsts") c.vmemInsts += v;
            else if (stat == "ldsInsts") c.ldsInsts += v;
            else if (stat == "vrfReadUniq") c.vrfReadProbes += samples();
            else if (stat == "vrfWriteUniq") c.vrfWriteProbes += samples();
            else if (stat == "vrfBankConflicts") c.vrfBankConflicts += v;
            else if (stat == "coalescedLines") c.coalescedLines += v;
            else if (stat == "busyCycles") c.busyCycles += v;
        } else if (in("l1d_") || in("l1i_") || in("sqc_") || in("l2_")) {
            if (stat == "mshrMerges")
                c.mshrMerges += v;
            if (in("l1d_") && stat == "hits") c.l1dHits += v;
            if (in("l1d_") && stat == "misses") c.l1dMisses += v;
            if (in("l1d_") && stat == "mshrMerges") c.l1dMerges += v;
            if (in("l2_") && stat == "misses") c.l2Misses += v;
        } else if (group == "dram") {
            if (stat == "reads" || stat == "writes") c.dramAccesses += v;
        } else if (group == "gpu") {
            if (stat == "totalCycles") c.gpuCycles += v;
            else if (stat == "kernelLaunches") c.kernelLaunches += v;
        }
    }
    c.dataFootprint = rt.dataFootprintBytes();
    return c;
}

// ---------------------------------------------------------------------
// One iteration of a workload.

/** What one iteration measured and how its specs fared. */
struct Iteration
{
    double wall = 0, cpu = 0;
    uint64_t winst = 0; ///< wavefront instructions simulated or served
    size_t attempted = 0, failed = 0;
    /** Consecutive parts of the iteration as {wall, cpu} seconds: one
     *  per spec, then the writes, on the serial sweeps; else the whole
     *  iteration. */
    std::vector<std::array<double, 2>> parts;

    std::map<std::string, double> spans; ///< traced: seconds per name
    double unattributed = 0;             ///< traced: share of wall
    std::vector<Counts> counts;          ///< traced sweeps: per spec
    sim::PoolStats pool;                 ///< traced sweeps
    double busy = 0, specMax = 0;        ///< traced sweeps: seconds
};

/**
 * Run a simulated sweep as runShard would, but one runApp call per spec
 * on parallelInvokeCollect, so each spec gets a span and an inspector
 * that reads its simulated-event counts.
 */
sim::BenchCacheFile
tracedSweep(const Plan &p, SpanLog &log, int parent, Iteration &it)
{
    const size_t n = p.manifest.entries.size();
    sim::BenchCacheFile cache;
    cache.scale = p.ref.scale;
    cache.rows.resize(n);
    it.counts.resize(n);
    std::vector<double> specSeconds(n, 0);
    SpanLog::Scope sweep(&log, "sim.sweep", parent);
    std::vector<std::function<void()>> tasks;
    for (size_t i = 0; i < n; ++i)
        tasks.push_back([&, i] {
            const sim::RunSpec s = sim::specFromEntry(p.manifest.entries[i]);
            const auto t0 = Clock::now();
            SpanLog::Scope span(&log, "sim.run_app", sweep.id);
            sim::CachedRun &row = cache.rows[i];
            row.key = sim::specCacheKey(s);
            row.result = sim::runApp(
                s.workload, s.isa, s.cfg, s.scale, [&](runtime::Runtime &rt) {
                    SpanLog::Scope f(&log, "obs.flatten_stats", span.id);
                    it.counts[i] = countsOf(rt);
                });
            specSeconds[i] = since(t0);
        });
    auto errors = sim::parallelInvokeCollect(tasks, p.jobs, &it.pool);
    for (size_t i = 0; i < n; ++i) {
        if (errors[i]) {
            sim::AppResult &r = cache.rows[i].result;
            r.quarantined = true;
            r.errorKind = "exception";
        }
        it.busy += specSeconds[i];
        it.specMax = std::max(it.specMax, specSeconds[i]);
    }
    return cache;
}

/**
 * One iteration: simulate (or, on warm-reuse, load and reuse) every
 * spec of the plan, write the cache and the divergence report to
 * memory, then check them. Untraced (`log` null) it is exactly what
 * `last_sweep run --out --diverge` does; traced it records spans.
 */
Iteration
iterate(const Plan &p, Gate &gate, SpanLog *log)
{
    Iteration it;
    if (!p.warm)
        sim::ArtifactCache::instance().clear(); // every sweep is fresh
    const double cpu0 = processCpuSeconds();
    const auto t0 = Clock::now();

    sim::BenchCacheFile cache;
    size_t simulated = 0; // warm-reuse: specs runShard had to simulate
    std::string bytes;
    std::vector<obs::DivergenceReport> reports;
    {
        SpanLog::Scope root(log, "bench.iteration");
        if (p.warm) {
            sim::BenchCacheFile reuse;
            {
                SpanLog::Scope s(log, "sim.bench_cache.read", root.id);
                std::istringstream is(p.reuseBytes);
                sim::readBenchCacheStrict(is, reuse, "warm cache");
            }
            SpanLog::Scope s(log, "sim.shard.reuse", root.id);
            sim::ShardRunOptions opts;
            opts.jobs = 1;
            opts.reuse = &reuse;
            sim::ShardRunOutcome o = sim::runShard(p.manifest, opts);
            cache = std::move(o.cache);
            simulated = o.simulated;
        } else if (log) {
            cache = tracedSweep(p, *log, root.id, it);
        } else if (p.jobs == 1) {
            // One runShard per spec: the same serial sequence of runApp
            // calls as a single runShard over the manifest, timed spec
            // by spec.
            cache.scale = p.ref.scale;
            for (const sim::ShardEntry &e : p.manifest.entries) {
                sim::ShardManifest one;
                one.totalSpecs = p.manifest.totalSpecs;
                one.entries = {e};
                const double c0 = processCpuSeconds();
                const auto s0 = Clock::now();
                sim::ShardRunOptions opts;
                opts.jobs = 1;
                cache.rows.push_back(sim::runShard(one, opts).cache.rows[0]);
                it.parts.push_back({since(s0), processCpuSeconds() - c0});
            }
        } else {
            sim::ShardRunOptions opts;
            opts.jobs = p.jobs;
            cache = sim::runShard(p.manifest, opts).cache;
        }
        {
            SpanLog::Scope s(log, "sim.bench_cache.write", root.id);
            bytes = cacheBytes(cache);
        }
        {
            SpanLog::Scope s(log, "obs.divergence", root.id);
            reports = sim::divergenceFromCache(cache);
        }
        SpanLog::Scope s(log, "obs.divergence_json", root.id);
        std::ostringstream os;
        obs::writeDivergenceJsonArray(os, reports);
    }
    it.wall = since(t0);
    it.cpu = processCpuSeconds() - cpu0;
    std::array<double, 2> rest = {it.wall, it.cpu};
    for (const auto &part : it.parts)
        rest[0] -= part[0], rest[1] -= part[1];
    it.parts.push_back(rest);
    if (log) {
        it.spans = log->totals();
        it.unattributed = log->unattributedShare();
    }

    it.attempted = cache.rows.size();
    it.failed = gate.check(cache, bytes, reports).size();
    if (p.warm) // the warm path must serve every spec from the cache
        it.failed = std::min(it.attempted, it.failed + simulated);
    for (const sim::CachedRun &row : cache.rows)
        it.winst += row.result.dynInsts;
    return it;
}

/** Host time of each module on the way into a fresh spec, from calls
 *  the driver makes itself (one serial pass over the specs). */
struct Attribution
{
    double constructMs = 0, makeMs = 0, runColdMs = 0, runWarmMs = 0;
    double harnessMs = 0;
    size_t failed = 0;
    std::vector<Counts> counts; ///< per spec
};

Attribution
attribute(const Plan &p)
{
    using Ms = std::chrono::duration<double, std::milli>;
    Attribution a;
    for (const sim::ShardEntry &e : p.manifest.entries) {
        const sim::RunSpec s = sim::specFromEntry(e);
        sim::ArtifactCache::instance().clear();
        bool ok;
        {
            const auto t0 = Clock::now();
            runtime::Runtime rt(s.cfg);
            const auto t1 = Clock::now();
            auto wl = workloads::makeWorkload(s.workload, s.scale);
            const auto t2 = Clock::now();
            ok = wl->run(rt, s.isa); // builds and finalizes its kernels
            a.constructMs += Ms(t1 - t0).count();
            a.makeMs += Ms(t2 - t1).count();
            a.runColdMs += Ms(Clock::now() - t2).count();
        }
        // The same calls again with the artifacts cached, destruction
        // included, as runApp makes them.
        const auto w0 = Clock::now();
        {
            runtime::Runtime rt(s.cfg);
            auto wl = workloads::makeWorkload(s.workload, s.scale);
            const auto t1 = Clock::now();
            ok = wl->run(rt, s.isa) && ok;
            a.runWarmMs += Ms(Clock::now() - t1).count();
        }
        const double warmMs = Ms(Clock::now() - w0).count();

        double inspectMs = 0;
        const auto t0 = Clock::now();
        sim::AppResult r = sim::runApp(
            s.workload, s.isa, s.cfg, s.scale, [&](runtime::Runtime &rt) {
                const auto ti = Clock::now();
                a.counts.push_back(countsOf(rt));
                inspectMs = Ms(Clock::now() - ti).count();
            });
        // runApp minus its parts: the harness's own stat collection.
        a.harnessMs += Ms(Clock::now() - t0).count() - inspectMs - warmMs;
        a.failed += !(ok && r.verified);
    }
    return a;
}

// ---------------------------------------------------------------------
// Reporting.

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

void
printResult(bool correct, size_t attempted, size_t failed,
            const std::vector<Metric> &metrics)
{
    std::cout << "{\"correct\": " << (correct ? "true" : "false")
              << ", \"attempted\": " << attempted
              << ", \"failed\": " << failed << ", \"metrics\": {";
    for (size_t i = 0; i < metrics.size(); ++i)
        std::cout << (i ? ", " : "") << "\"" << metrics[i].name
                  << "\": {\"value\": " << obs::jsonNumber(metrics[i].value)
                  << ", \"unit\": \"" << metrics[i].unit << "\"}";
    std::cout << "}}" << std::endl;
}

/** Iterate until the next iteration would end past the deadline, and
 *  at least `minIters` times. */
template <typename F>
void
loopFor(double seconds, size_t minIters, F &&body)
{
    const auto start = Clock::now();
    double last = 0;
    for (size_t n = 0; n < minIters || since(start) + last <= seconds;
         ++n) {
        const auto t = Clock::now();
        body();
        last = since(t);
    }
}

/** Per-iteration figures of the untraced iterations (kept small: a
 *  millisecond workload runs tens of thousands of them, and their
 *  storage would otherwise show in peak_rss_mb). */
struct Samples
{
    std::vector<double> wall, cpu;
    std::vector<std::array<double, 2>> best; ///< per part, over the run
    uint64_t winst = 0;

    void
    add(const Iteration &it)
    {
        wall.push_back(it.wall);
        cpu.push_back(it.cpu);
        winst = it.winst;
        if (best.empty())
            best = it.parts;
        for (size_t k = 0; k < best.size() && k < it.parts.size(); ++k)
            for (size_t j = 0; j < 2; ++j)
                best[k][j] = std::min(best[k][j], it.parts[k][j]);
    }

    /** The iteration as fast as each of its parts has run: the sum of
     *  the parts' best times. */
    std::array<double, 2>
    bestIteration() const
    {
        std::array<double, 2> sum = {0, 0};
        for (const auto &part : best)
            sum[0] += part[0], sum[1] += part[1];
        return sum;
    }
};

std::vector<Metric>
endToEnd(const Samples &s, double setupSeconds)
{
    const std::vector<double> &wall = s.wall;
    auto [pct, tail] = tailPercentile(wall);
    std::cout << "samples " << wall.size() << " iterations; wall_s tail ";
    if (pct > 0)
        std::cout << "p" << pct << " = " << obs::jsonNumber(tail) << " s\n";
    else
        std::cout << "n/a (fewer than 20 samples)\n";
    if (wall.size() <= 64) {
        std::cout << "iteration wall_s";
        for (double w : wall)
            std::cout << " " << w;
        std::cout << "\n";
    }
    std::cout << "median wall_s " << obs::jsonNumber(median(wall))
              << " s, cpu_s " << obs::jsonNumber(median(s.cpu)) << " s\n";
    // The best times, not the median: on a shared host other tenants
    // slow a varying share of each run's iterations, and across runs
    // the fastest iteration repeats far more closely (ten runs of
    // warm-reuse: 1.8% spread against 18% for the median). Serial
    // sweeps are seconds long, so they take each spec's best.
    const auto [bestWall, bestCpu] = s.bestIteration();
    return {{"wall_s", bestWall, "s"},
            {"cpu_s", bestCpu, "s"},
            {"winst_per_s", double(s.winst) / bestWall, "1/s"},
            {"setup_s", setupSeconds, "s"},
            {"peak_rss_mb", peakRssMb(), "MB"}};
}

std::vector<Metric>
perLayer(const Plan &p, const Attribution &at,
         const Samples &untraced, const std::vector<Iteration> &traced,
         const Counts &c)
{
    auto over = [&traced](auto f) {
        std::vector<double> v;
        for (const Iteration &t : traced)
            v.push_back(f(t));
        return median(v);
    };
    auto spanMs = [&over](const char *name) {
        return over([name](const Iteration &t) {
            auto it = t.spans.find(name);
            return it == t.spans.end() ? 0.0 : it->second * 1e3;
        });
    };
    auto ratio = [](double num, double den) {
        return den > 0 ? num / den : 0.0;
    };
    const double untracedWall = median(untraced.wall);
    const double tracedWall = over([](const Iteration &t) { return t.wall; });
    const double jobs = double(p.jobs);
    const uint64_t l1dAccesses = c.l1dHits + c.l1dMisses + c.l1dMerges;
    const bool sims = !p.warm;
    return {
        {"runtime.construct_ms", at.constructMs, "ms"},
        {"workloads.make_ms", at.makeMs, "ms"},
        {"workloads.run_cold_ms", at.runColdMs, "ms"},
        {"workloads.run_warm_ms", at.runWarmMs, "ms"},
        {"sim.artifact_prep_ms", at.runColdMs - at.runWarmMs, "ms"},
        {"sim.harness_ms", at.harnessMs, "ms"},
        {"sim.bench_cache.read_ms", spanMs("sim.bench_cache.read"), "ms"},
        {"sim.bench_cache.write_ms", spanMs("sim.bench_cache.write"), "ms"},
        {"sim.shard.reuse_ms", spanMs("sim.shard.reuse"), "ms"},
        {"obs.divergence_ms", spanMs("obs.divergence"), "ms"},
        {"obs.divergence_json_ms", spanMs("obs.divergence_json"), "ms"},
        {"obs.flatten_stats_ms", spanMs("obs.flatten_stats"), "ms"},
        {"sim.parallel.steals",
         over([](const Iteration &t) { return double(t.pool.steals); }),
         "count"},
        {"sim.parallel.stolen_tasks",
         over([](const Iteration &t) { return double(t.pool.stolenTasks); }),
         "count"},
        {"sim.parallel.idle_frac",
         sims ? over([jobs](const Iteration &t) {
             auto s = t.spans.find("sim.sweep");
             double sweep = s == t.spans.end() ? 0 : s->second;
             return sweep > 0 ? 1.0 - t.busy / (jobs * sweep) : 0.0;
         })
              : 0.0,
         "ratio"},
        {"sim.parallel.critical_path_s",
         over([](const Iteration &t) { return t.specMax; }), "s"},
        {"sim.spec_ms_max",
         over([](const Iteration &t) { return t.specMax * 1e3; }), "ms"},
        {"cu.dyn_insts", double(c.dynInsts), "count"},
        {"cu.valu_insts", double(c.valuInsts), "count"},
        {"cu.vmem_insts", double(c.vmemInsts), "count"},
        {"cu.lds_insts", double(c.ldsInsts), "count"},
        {"cu.vrf_read_probes", double(c.vrfReadProbes), "count"},
        {"cu.vrf_write_probes", double(c.vrfWriteProbes), "count"},
        {"cu.vrf_bank_conflicts", double(c.vrfBankConflicts), "count"},
        {"cu.coalesced_lines", double(c.coalescedLines), "count"},
        {"cu.busy_cycles", double(c.busyCycles), "count"},
        {"memory.l1d.accesses", double(l1dAccesses), "count"},
        {"memory.l1d.misses", double(c.l1dMisses), "count"},
        {"memory.l1d.hit_ratio",
         ratio(double(c.l1dHits), double(l1dAccesses)), "ratio"},
        {"memory.l2.misses", double(c.l2Misses), "count"},
        {"memory.dram.accesses", double(c.dramAccesses), "count"},
        {"memory.mshr_merges", double(c.mshrMerges), "count"},
        {"memory.data_footprint_bytes", double(c.dataFootprint), "bytes"},
        {"gpu.cycles", double(c.gpuCycles), "count"},
        {"gpu.kernel_launches", double(c.kernelLaunches), "count"},
        {"gpu.cycles_per_s", ratio(double(c.gpuCycles), untracedWall),
         "1/s"},
        {"sim.host_ns_per_winst",
         ratio(untracedWall * 1e9, double(c.dynInsts)), "ns"},
        {"trace.wall_s", tracedWall, "s"},
        {"trace.untraced_wall_s", untracedWall, "s"},
        {"trace.overhead_s", tracedWall - untracedWall, "s"},
        {"trace.unattributed_frac",
         over([](const Iteration &t) { return t.unattributed; }), "ratio"},
    };
}

int
run(const Args &a)
{
    const auto start = Clock::now();
    const std::string loadStart = loadAverage1m();

    // Set-up runs once from process start, then again (results
    // discarded) at even intervals between the measured iterations, so
    // the median, setup_s, samples the whole run and not one moment of
    // a shared host's load.
    constexpr size_t SetupReps = 9;
    Plan p = setUp(a);
    std::vector<double> setupSeconds = {since(start)};
    auto lastSetUp = Clock::now();
    auto setUpAgain = [&] {
        if (setupSeconds.size() >= SetupReps ||
            since(lastSetUp) < a.seconds / SetupReps)
            return;
        lastSetUp = Clock::now();
        setUp(a);
        setupSeconds.push_back(since(lastSetUp));
    };

    Gate &gate = *p.gate;
    size_t attempted = 0, failed = 0;
    Samples untraced;
    std::vector<Iteration> traced;
    auto account = [&](const Iteration &it) {
        attempted += it.attempted;
        failed += it.failed;
    };
    auto runUntraced = [&] {
        Iteration it = iterate(p, gate, nullptr);
        account(it);
        untraced.add(it);
    };

    std::vector<Metric> m;
    if (!a.trace) {
        loopFor(a.seconds, 3, [&] {
            runUntraced();
            setUpAgain();
        });
        m = endToEnd(untraced, median(setupSeconds));
        std::cout << "samples " << setupSeconds.size() << " set-ups\n";
    } else {
        Attribution at;
        if (!p.warm) {
            at = attribute(p);
            attempted += at.counts.size();
            failed += at.failed;
        }
        // Untraced and traced iterations alternate, so both see the
        // same machine load; their difference is the tracing overhead.
        // Every traced sweep must repeat the attribution pass's counts.
        std::vector<Counts> expectCounts = at.counts;
        std::unique_ptr<SpanLog> lastLog;
        loopFor(a.seconds, 2, [&] {
            runUntraced();
            lastLog = std::make_unique<SpanLog>();
            Iteration t = iterate(p, gate, lastLog.get());
            if (expectCounts.empty())
                expectCounts = t.counts;
            for (size_t i = 0; i < t.counts.size(); ++i)
                t.failed += !(t.counts[i] == expectCounts[i]);
            t.failed = std::min(t.failed, t.attempted);
            account(t);
            traced.push_back(std::move(t));
        });
        lastLog->print(std::cout);
        Counts sum;
        for (const Counts &x : expectCounts)
            sum += x;
        m = perLayer(p, at, untraced, traced, sum);
        std::cout << "samples " << untraced.wall.size() << " untraced and "
                  << traced.size() << " traced iterations\n";
    }

    const bool controlOk = selfTest(p.ref, p.refBytes);
    const bool correct = controlOk && failed == 0 && attempted > 0;

    std::cout << "provenance {\"commit\": \"" << obs::jsonEscape(a.commit)
              << "\", \"build_type\": \"" << HOSTBENCH_BUILD_TYPE
              << "\", \"compiler\": \"" << __VERSION__
              << "\", \"nproc\": " << onlineCpus() << ", \"jobs\": " << p.jobs
              << ", \"loadavg_1m_start\": " << loadStart
              << ", \"loadavg_1m_end\": " << loadAverage1m()
              << ", \"workload\": \"" << a.workload
              << "\", \"seed\": " << a.seed << ", \"trace\": " << a.trace
              << "}\n";
    // failed_frac is 0 whenever the run is correct, so it is printed
    // here and carried by the result line's failed/attempted.
    const double failedFrac =
        attempted ? double(failed) / double(attempted) : 1;
    std::cout << "metric failed_frac " << obs::jsonNumber(failedFrac)
              << " ratio\n";
    for (const Metric &x : m)
        std::cout << "metric " << x.name << " " << obs::jsonNumber(x.value)
                  << " " << x.unit << "\n";
    printResult(correct, attempted, failed, m);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const Args a = parseArgs(argc, argv);
    try {
        return run(a);
    } catch (const std::exception &e) {
        std::cerr << "hostbench: " << e.what() << "\n";
        return 1;
    }
}
