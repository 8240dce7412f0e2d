/**
 * @file
 * `last_serve` — simulation-as-a-service (DESIGN.md §4g).
 *
 * A long-lived daemon that answers stats and divergence queries over a
 * socket, sharing one warm process across every client instead of
 * forking a fresh simulator per query. Three layers of reuse stand
 * between an incoming request and an actual simulation:
 *
 *  1. **In-flight coalescing** — concurrent requests with the same
 *     (method, workload, isa, scale, seed, knob, threshold, timeout)
 *     key attach to the one execution already running; every waiter
 *     gets its own response envelope built from the shared payload.
 *  2. **Bench-row reuse** — completed results live in an in-memory
 *     bench-cache representation (sim/bench_cache.hh), per scale,
 *     optionally preloaded from a `last_bench_cache.csv`. A divergence
 *     query is one sim::runShard that reuses the stored (workload,
 *     ISA, seed, knob-digest) rows, then sim::divergenceFromCache —
 *     the offline `last_obs diverge` path — so a query whose rows are
 *     all present simulates nothing, and because cache rows
 *     round-trip doubles exactly, the streamed `last-divergence-v2`
 *     payload is byte-identical to the offline artifact.
 *  3. **Warm ArtifactCache** — when a simulation is unavoidable, the
 *     process-wide kernel-artifact cache (sim/artifact_cache.hh) still
 *     amortizes IL build + finalization across requests; the missing
 *     levels run on runShard's work-stealing parallelInvoke pool.
 *
 * Traffic shaping and fault isolation:
 *  - **Admission control**: the pending-request queue is bounded;
 *    a request arriving at a full queue is refused immediately with a
 *    structured `overloaded` error (clients retry with backoff) rather
 *    than queued into unbounded latency.
 *  - **Quarantine degradation**: a simulation failure — including a
 *    per-request `timeout_ms` deadline hit — degrades that request to
 *    a quarantine response via the PR 2/7 runSweep machinery. It never
 *    kills the daemon, never poisons the store (quarantined rows are
 *    not retained, so a later retry re-simulates), and never blocks
 *    other requests.
 *
 * ServeCore is the transport-free heart (tests drive it directly and
 * deterministically with workers=0 + drainOne()); Server wraps it with
 * the accept/reader thread machinery from common/socket.hh.
 */

#ifndef LAST_SERVE_SERVER_HH
#define LAST_SERVE_SERVER_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/socket.hh"
#include "serve/protocol.hh"
#include "sim/bench_cache.hh"

namespace last::serve
{

struct ServeOptions
{
    /** Request-servicing threads. 0 = no threads: requests queue and
     *  tests drain them deterministically with drainOne(). */
    unsigned workers = 2;
    /** parallelInvoke pool size per request's runSweep (0 =
     *  sim::defaultJobs()). */
    unsigned simJobs = 0;
    /** Admission bound: pending (not yet executing) request keys. */
    size_t queueDepth = 64;
    /** Longest accepted request line, in bytes. */
    size_t maxLineBytes = 1 << 20;
    /** runSweep's retry-once-serially behavior for failed specs. */
    bool retryFailed = true;
};

/** Monotonic server counters; `status` serves a snapshot and the test
 *  suite uses them as the hit/coalesce/zero-simulation proofs. */
struct ServeCounters
{
    uint64_t received = 0;     ///< well-formed requests accepted
    uint64_t served = 0;       ///< payload/result responses sent
    uint64_t errors = 0;       ///< error responses sent (all kinds)
    uint64_t overloaded = 0;   ///< refused by admission control
    uint64_t coalesced = 0;    ///< attached to an in-flight twin
    uint64_t cacheRowHits = 0; ///< result halves served from the store
    uint64_t simulatedSpecs = 0;   ///< (workload, isa) sims actually run
    uint64_t quarantinedSpecs = 0; ///< sims that degraded to quarantine
};

/**
 * The transport-free request scheduler: parse-level inputs in,
 * single-line response envelopes out. Thread-safe; one instance per
 * daemon holds the result store and the worker pool.
 */
class ServeCore
{
  public:
    /** Response sink: called exactly once per submitted request with
     *  the envelope line (no trailing newline). May run on a worker
     *  thread; must not block for long or throw. */
    using Respond = std::function<void(const std::string &)>;

    explicit ServeCore(const ServeOptions &opts);
    ~ServeCore();
    ServeCore(const ServeCore &) = delete;
    ServeCore &operator=(const ServeCore &) = delete;

    /**
     * Submit one parsed request. ping/status/shutdown answer inline;
     * stats/diverge either coalesce onto an in-flight twin, enter the
     * bounded queue, or are refused `overloaded`. Invalid requests
     * (unknown method/workload, stats without an isa) answer inline
     * with `bad-request`.
     */
    void submit(const ServeRequest &req, Respond respond);

    /** Execute one queued request inline (test mode / workers == 0).
     *  @return false when the queue was empty. */
    bool drainOne();

    /** Merge rows into the result store (server warm start). Rows keep
     *  their file's scale; quarantined rows are dropped — they must
     *  re-simulate, never satisfy reuse. @return rows retained. */
    size_t preload(const sim::BenchCacheFile &cache);

    ServeCounters counters() const;
    size_t storeRows() const;
    size_t pendingRequests() const;

    /** A `shutdown` request was served (the daemon should stop
     *  accepting). Later submissions answer with kind `shutdown`. */
    bool shutdownRequested() const { return shutdown_.load(); }

    /** Hook invoked once when a shutdown request is served (Server
     *  uses it to interrupt the accept loop). */
    void onShutdown(std::function<void()> hook);

  private:
    struct Pending;

    void workerLoop();
    void execute(Pending &p);
    std::string statusJson() const;

    ServeOptions opts_;
    mutable std::mutex mu_; ///< queue, inflight map, counters
    std::condition_variable cv_;
    std::deque<std::shared_ptr<Pending>> queue_;
    std::unordered_map<std::string, std::shared_ptr<Pending>> inflight_;
    ServeCounters counters_;

    mutable std::mutex storeMu_;
    /** Result store, one bench-cache representation per scale (the
     *  row key is scale-free; scale is file-level, see bench_cache.hh). */
    std::map<double, sim::BenchCacheFile> store_;

    std::atomic<bool> stopping_{false};
    std::atomic<bool> shutdown_{false};
    std::function<void()> shutdownHook_;
    std::vector<std::thread> workers_;
};

/** Socket front-end: accept loop + one reader thread per connection,
 *  all requests funneled into a ServeCore. */
class Server
{
  public:
    Server(const ServeOptions &opts, const net::Endpoint &ep);
    ~Server();
    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /** Bind, listen, and start the accept thread.
     *  @throws ConfigError on bind/listen failure. */
    void start();

    /** Block until a shutdown request (or stop()) lands. */
    void waitStopped();

    /** Stop accepting, unblock every connection, join all threads.
     *  Idempotent; the destructor calls it too. */
    void stop();

    /** Async-signal-safe stop trigger: one shutdown(2) on the listen
     *  fd. The accept loop exits, waitStopped() wakes, and the owner
     *  thread runs the real stop(). For SIGINT/SIGTERM handlers. */
    void interruptAccept() { listener_.interrupt(); }

    ServeCore &core() { return core_; }

    /** Resolved TCP port (after start(); meaningful for port 0). */
    uint16_t boundPort() const { return listener_.boundPort(); }

  private:
    struct Client;

    void acceptLoop();
    void readerLoop(std::shared_ptr<Client> client);

    ServeOptions opts_;
    net::Endpoint endpoint_;
    ServeCore core_;
    net::ListenSocket listener_;
    std::thread acceptThread_;

    std::mutex clientsMu_;
    std::vector<std::weak_ptr<Client>> clients_;
    std::vector<std::thread> readers_;

    std::mutex stopMu_;
    std::condition_variable stopCv_;
    bool stopped_ = false;
    bool acceptDone_ = false; ///< the accept loop has exited
    std::atomic<bool> stopping_{false};
};

} // namespace last::serve

#endif // LAST_SERVE_SERVER_HH
