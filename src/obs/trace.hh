/**
 * @file
 * Structured execute-path tracing.
 *
 * The simulator's hot loops carry trace points (instruction
 * issue/retire, IB flushes, reconvergence-stack pushes and pops,
 * dependency stalls, cache misses and fills, kernel dispatches,
 * idle-cycle skips, watchdog trips). Events are buffered
 * per component in `TraceStream`s owned by one `TraceSink` and are
 * emitted as Chrome `trace_event` JSON, so a capture opens directly in
 * chrome://tracing or https://ui.perfetto.dev. One simulated GPU cycle
 * is mapped to one microsecond of viewer time.
 *
 * Cost model (the execute path is perf-gated by hostbench, see
 * BENCHMARK.json and CI's perf-smoke job):
 *  - disabled (default — `GpuConfig::trace == nullptr`): every trace
 *    point is `if (stream)`, one pointer null-check;
 *  - enabled: one bounds check + a POD append into a pre-reserved
 *    per-component buffer; no strings, no locks, no I/O on the hot
 *    path. Streams are capped (events past the cap are counted as
 *    dropped, never resized into oblivion).
 *
 * Tracing is observational by construction: no statistic, functional
 * result, or timing decision reads tracer state, so a traced run is
 * statistic-identical to an untraced one (asserted by
 * tests/test_obs.cc and by the bench cache byte-identity gate).
 *
 * Threading: a TraceSink is meant to observe ONE simulation. Stream
 * creation is mutex-protected and each component appends only to its
 * own stream, so concurrent simulations sharing a sink are race-free,
 * but their events interleave under a single pid — prefer one sink per
 * run.
 */

#ifndef LAST_OBS_TRACING_HH
#define LAST_OBS_TRACING_HH

#include <cstdint>
#include <deque>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

#include "common/types.hh"

namespace last::obs
{

/** What happened. The kind fixes the Chrome event name and phase and
 *  the meaning of arg0/arg1 (schema in DESIGN.md §5). */
enum class TraceKind : uint8_t
{
    InstIssue,      ///< span issue->result-ready; arg0=slot,
                    ///< arg1=(pc<<4)|arch::InstClass
    IbFlush,        ///< instant; arg0=slot, arg1=flush count
    RsPush,         ///< instant; arg0=slot, arg1=new RS depth
    RsPop,          ///< instant; arg0=slot, arg1=new RS depth
    DepStall,       ///< span; arg0=slot, arg1=0 scoreboard (HSAIL,
                    ///< PTXL) / 1 waitcnt (GCN3)
    WfStart,        ///< instant; arg0=slot, arg1=workgroup id
    WfEnd,          ///< instant; arg0=slot, arg1=workgroup id
    CacheMiss,      ///< span miss->fill; arg0=byte addr, arg1=isWrite
    KernelDispatch, ///< span launch->completion; arg0=name string id
    IdleSkip,       ///< span; arg0=cycles skipped by the fast-forward
    Watchdog,       ///< instant; arg0=reason string id
};

/** One buffered event. POD on purpose: appending must be an O(1)
 *  store, and the buffer must stay cache-dense. */
struct TraceEvent
{
    Cycle ts = 0;
    Cycle dur = 0; ///< 0 = instant event
    uint64_t arg0 = 0;
    uint64_t arg1 = 0;
    TraceKind kind = TraceKind::InstIssue;
};

class TraceSink;

/**
 * One component's event buffer (a CU, a cache, the dispatcher...).
 * Maps to one Chrome thread track; created via TraceSink::makeStream.
 */
class TraceStream
{
  public:
    void
    emit(TraceKind kind, Cycle ts, Cycle dur = 0, uint64_t arg0 = 0,
         uint64_t arg1 = 0)
    {
        if (ev.size() >= cap) {
            ++droppedCount;
            return;
        }
        ev.push_back({ts, dur, arg0, arg1, kind});
    }

    /** Intern a string for kinds that carry one (KernelDispatch,
     *  Watchdog). Rare-path: linear scan over a short table. */
    uint64_t intern(const std::string &s);

    const std::vector<TraceEvent> &events() const { return ev; }
    const std::string &string(uint64_t id) const { return strings[id]; }
    uint64_t dropped() const { return droppedCount; }
    uint32_t tid() const { return tid_; }
    const std::string &threadName() const { return name_; }

  private:
    friend class TraceSink;

    std::vector<TraceEvent> ev;
    std::vector<std::string> strings;
    std::string name_;
    uint32_t tid_ = 0;
    size_t cap = 0;
    uint64_t droppedCount = 0;
};

/** Run provenance recorded into the trace header. */
struct TraceMeta
{
    std::string workload;
    std::string isa;
    double scale = 1.0;
    uint64_t seed = 0;
    std::string faultPlan; ///< empty = no faults injected
};

/** Well-known Chrome thread ids (all under pid 1). */
constexpr uint32_t TidRuntime = 1;   ///< kernel dispatch spans
constexpr uint32_t TidGpu = 2;       ///< idle skips, watchdog events
constexpr uint32_t TidCuBase = 10;   ///< tid = TidCuBase + cu index
constexpr uint32_t TidCacheBase = 100; ///< tid = TidCacheBase + k

/**
 * Owns the per-component streams of one simulation and serializes
 * them. Attach via GpuConfig::trace; the Gpu/Runtime constructors
 * create and wire the component streams.
 */
class TraceSink
{
  public:
    /** @param maxEventsPerStream cap per component buffer; events past
     *  it are dropped (and counted), keeping memory bounded on long
     *  runs. */
    explicit TraceSink(size_t maxEventsPerStream = size_t(1) << 20)
        : cap(maxEventsPerStream)
    {}

    TraceSink(const TraceSink &) = delete;
    TraceSink &operator=(const TraceSink &) = delete;

    /** Create a stream (= one viewer track). Thread-safe; the
     *  returned pointer is stable for the sink's lifetime. */
    TraceStream *makeStream(const std::string &name, uint32_t tid);

    size_t numStreams() const;
    /** Streams in creation order (only meaningful after the run). */
    const TraceStream &stream(size_t i) const { return streams[i]; }
    uint64_t totalEvents() const;
    uint64_t totalDropped() const;

    /** Serialize everything as Chrome trace_event JSON ("JSON object
     *  format": traceEvents + metadata). */
    void writeChromeTrace(std::ostream &os, const TraceMeta &meta) const;

  private:
    mutable std::mutex mu;
    std::deque<TraceStream> streams; ///< deque: stable addresses
    size_t cap;
};

} // namespace last::obs

#endif // LAST_OBS_TRACING_HH
