#include "serve/server.hh"

#include <algorithm>
#include <chrono>
#include <sstream>

#include "common/error.hh"
#include "common/logging.hh"
#include "obs/json.hh"
#include "obs/stats_export.hh"
#include "sim/artifact_cache.hh"
#include "sim/experiment.hh"
#include "sim/parallel.hh"
#include "sim/shard.hh"
#include "workloads/workload.hh"

namespace last::serve
{

namespace
{

/** Internal control-flow for structured error responses. */
struct ServeFailure
{
    std::string kind;
    std::string message;
};

/** What one executed request produced (shared by every waiter). */
struct PayloadOut
{
    std::string servedFrom; ///< "sim" or "cache"
    bool quarantined = false;
    std::string schema;
    std::string bytes;
};

bool
knownWorkload(const std::string &name)
{
    const auto names = workloads::allWorkloadNames();
    return std::find(names.begin(), names.end(), name) != names.end();
}

/** Coalescing identity: every field that can change the payload. The
 *  id is deliberately absent — twin requests differ only in who asked. */
std::string
canonicalKey(const ServeRequest &r)
{
    std::ostringstream os;
    os << r.method << '|' << r.workload << '|'
       << (r.hasIsa ? isaName(r.isa) : "-") << '|'
       << obs::jsonNumber(r.scale) << '|' << r.seed << '|'
       << r.ldsStrideWords << '|' << r.ldsPadWords << '|'
       << obs::jsonNumber(r.threshold) << '|' << r.timeoutMs;
    return os.str();
}

workloads::WorkloadScale
scaleOf(const ServeRequest &r)
{
    workloads::WorkloadScale ws{r.scale};
    ws.seed = r.seed;
    ws.ldsStrideWords = r.ldsStrideWords;
    ws.ldsPadWords = r.ldsPadWords;
    return ws;
}

GpuConfig
configOf(const ServeRequest &r)
{
    GpuConfig cfg;
    if (r.timeoutMs)
        cfg.wallDeadline = std::chrono::steady_clock::now() +
                           std::chrono::milliseconds(r.timeoutMs);
    return cfg;
}

} // namespace

/** One admitted request key with every client waiting on it. */
struct ServeCore::Pending
{
    std::string key;
    ServeRequest req; ///< representative (first arrival)
    struct Waiter
    {
        uint64_t id;
        Respond respond;
    };
    std::vector<Waiter> waiters;
};

ServeCore::ServeCore(const ServeOptions &opts) : opts_(opts)
{
    workers_.reserve(opts_.workers);
    for (unsigned i = 0; i < opts_.workers; ++i)
        workers_.emplace_back(&ServeCore::workerLoop, this);
}

ServeCore::~ServeCore()
{
    {
        std::lock_guard<std::mutex> g(mu_);
        stopping_.store(true);
    }
    cv_.notify_all();
    for (std::thread &t : workers_)
        t.join();
    // Whatever is still queued can never run: tell every waiter.
    std::deque<std::shared_ptr<Pending>> leftover;
    {
        std::lock_guard<std::mutex> g(mu_);
        leftover.swap(queue_);
        inflight_.clear();
        for (const auto &p : leftover)
            counters_.errors += p->waiters.size();
    }
    for (const auto &p : leftover)
        for (const auto &w : p->waiters)
            w.respond(errorEnvelope(w.id, "shutdown",
                                    "server stopped before this "
                                    "request ran"));
}

void
ServeCore::onShutdown(std::function<void()> hook)
{
    shutdownHook_ = std::move(hook);
}

size_t
ServeCore::preload(const sim::BenchCacheFile &cache)
{
    std::lock_guard<std::mutex> g(storeMu_);
    sim::BenchCacheFile &file = store_[cache.scale];
    file.scale = cache.scale;
    size_t kept = 0;
    for (const sim::CachedRun &row : cache.rows) {
        if (row.result.quarantined)
            continue; // must re-simulate, never satisfy reuse
        if (!file.find(row.key)) {
            file.rows.push_back(row);
            ++kept;
        }
    }
    return kept;
}

ServeCounters
ServeCore::counters() const
{
    std::lock_guard<std::mutex> g(mu_);
    return counters_;
}

size_t
ServeCore::storeRows() const
{
    std::lock_guard<std::mutex> g(storeMu_);
    size_t n = 0;
    for (const auto &[scale, file] : store_)
        n += file.rows.size();
    return n;
}

size_t
ServeCore::pendingRequests() const
{
    std::lock_guard<std::mutex> g(mu_);
    return queue_.size();
}

std::string
ServeCore::statusJson() const
{
    ServeCounters c = counters();
    const sim::ArtifactCache &ac = sim::ArtifactCache::instance();
    std::ostringstream os;
    os << "{\"protocol\":\"" << ServeSchema << "\""
       << ",\"received\":" << c.received << ",\"served\":" << c.served
       << ",\"errors\":" << c.errors
       << ",\"overloaded\":" << c.overloaded
       << ",\"coalesced\":" << c.coalesced
       << ",\"cache_row_hits\":" << c.cacheRowHits
       << ",\"simulated_specs\":" << c.simulatedSpecs
       << ",\"quarantined_specs\":" << c.quarantinedSpecs
       << ",\"store_rows\":" << storeRows()
       << ",\"pending\":" << pendingRequests()
       << ",\"artifact_hits\":" << ac.hits()
       << ",\"artifact_misses\":" << ac.misses()
       << ",\"workers\":" << opts_.workers
       << ",\"queue_depth\":" << opts_.queueDepth << "}";
    return os.str();
}

void
ServeCore::submit(const ServeRequest &req, Respond respond)
{
    // Control methods answer inline — they must work even when every
    // worker is busy and the queue is full (that is their point).
    if (req.method == "ping") {
        std::lock_guard<std::mutex> g(mu_);
        ++counters_.received;
        ++counters_.served;
        respond(resultEnvelope(req.id, "ping",
                               std::string("{\"protocol\":\"") +
                                   ServeSchema + "\"}"));
        return;
    }
    if (req.method == "status") {
        {
            std::lock_guard<std::mutex> g(mu_);
            ++counters_.received;
            ++counters_.served;
        }
        respond(resultEnvelope(req.id, "status", statusJson()));
        return;
    }
    if (req.method == "shutdown") {
        {
            std::lock_guard<std::mutex> g(mu_);
            ++counters_.received;
            ++counters_.served;
        }
        respond(resultEnvelope(req.id, "shutdown",
                               "{\"stopping\":true}"));
        shutdown_.store(true);
        if (shutdownHook_)
            shutdownHook_();
        return;
    }

    auto refuse = [&](const char *kind, const std::string &msg) {
        {
            std::lock_guard<std::mutex> g(mu_);
            ++counters_.received;
            ++counters_.errors;
        }
        respond(errorEnvelope(req.id, kind, msg));
    };

    if (shutdown_.load()) {
        refuse("shutdown", "server is stopping");
        return;
    }
    if (req.method != "stats" && req.method != "diverge") {
        refuse("bad-request", "unknown method '" + req.method + "'");
        return;
    }
    if (req.workload.empty()) {
        refuse("bad-request",
               "method '" + req.method + "' needs a 'workload'");
        return;
    }
    if (!knownWorkload(req.workload)) {
        refuse("bad-request", "unknown workload '" + req.workload + "'");
        return;
    }
    if (req.method == "stats" && !req.hasIsa) {
        refuse("bad-request", "method 'stats' needs an 'isa' "
                              "(\"hsail\", \"gcn3\", or \"ptxl\")");
        return;
    }

    const std::string key = canonicalKey(req);
    {
        std::lock_guard<std::mutex> g(mu_);
        ++counters_.received;
        auto it = inflight_.find(key);
        if (it != inflight_.end()) {
            // An identical request is queued or running: share its one
            // execution, answer from the same payload.
            it->second->waiters.push_back({req.id, std::move(respond)});
            ++counters_.coalesced;
            return;
        }
        if (queue_.size() >= opts_.queueDepth) {
            ++counters_.overloaded;
            ++counters_.errors;
            respond(errorEnvelope(
                req.id, "overloaded",
                "request queue full (" +
                    std::to_string(opts_.queueDepth) +
                    " pending); retry with backoff"));
            return;
        }
        auto p = std::make_shared<Pending>();
        p->key = key;
        p->req = req;
        p->waiters.push_back({req.id, std::move(respond)});
        inflight_.emplace(key, p);
        queue_.push_back(std::move(p));
    }
    cv_.notify_one();
}

bool
ServeCore::drainOne()
{
    std::shared_ptr<Pending> p;
    {
        std::lock_guard<std::mutex> g(mu_);
        if (queue_.empty())
            return false;
        p = std::move(queue_.front());
        queue_.pop_front();
    }
    execute(*p);
    return true;
}

void
ServeCore::workerLoop()
{
    while (true) {
        std::shared_ptr<Pending> p;
        {
            std::unique_lock<std::mutex> l(mu_);
            cv_.wait(l, [&] {
                return stopping_.load() || !queue_.empty();
            });
            if (stopping_.load())
                return;
            p = std::move(queue_.front());
            queue_.pop_front();
        }
        execute(*p);
    }
}

namespace
{

/** Serve a divergence query from the store, simulating only the
 *  missing (workload, ISA) levels: one runShard reusing the stored
 *  rows, then divergenceFromCache — the offline `last_obs diverge`
 *  path, which is what makes the payload byte-identical to the
 *  offline artifact. */
PayloadOut
doDiverge(const ServeRequest &req, const ServeOptions &opts,
          std::mutex &storeMu, std::map<double, sim::BenchCacheFile> &store,
          ServeCounters &counters, std::mutex &countersMu)
{
    std::vector<sim::RunSpec> specs;
    for (IsaKind isa : AllIsas)
        specs.push_back({req.workload, isa, GpuConfig{}, scaleOf(req)});
    sim::BenchCacheFile stored;
    {
        std::lock_guard<std::mutex> g(storeMu);
        auto it = store.find(req.scale);
        if (it != store.end())
            for (const sim::RunSpec &s : specs)
                if (const sim::CachedRun *hit =
                        it->second.find(sim::specCacheKey(s)))
                    stored.rows.push_back(*hit);
    }

    sim::ShardRunOptions so;
    so.jobs = opts.simJobs;
    so.retryFailed = opts.retryFailed;
    so.reuse = &stored;
    so.timeoutMs = req.timeoutMs;
    sim::ShardRunOutcome run =
        sim::runShard(sim::makeShardManifests(specs, 1)[0], so);
    if (run.simulated) {
        std::lock_guard<std::mutex> g(storeMu);
        sim::BenchCacheFile &file = store[req.scale];
        file.scale = req.scale;
        // Quarantined results are degraded responses, never reusable
        // rows: the next identical request retries.
        for (const sim::CachedRun &row : run.cache.rows)
            if (!row.result.quarantined && !file.find(row.key))
                file.rows.push_back(row);
    }
    {
        std::lock_guard<std::mutex> g(countersMu);
        counters.cacheRowHits += run.reused;
        counters.simulatedSpecs += run.simulated;
        counters.quarantinedSpecs += run.quarantined;
    }

    PayloadOut out;
    out.servedFrom = run.simulated ? "sim" : "cache";
    out.quarantined = run.quarantined > 0;
    out.schema = "last-divergence-v2";
    std::ostringstream os;
    obs::writeDivergenceJsonArray(
        os, sim::divergenceFromCache(run.cache, req.threshold));
    out.bytes = os.str();
    return out;
}

/** Serve a stats query: one simulation with the export hook attached
 *  (the full stats tree exists only while the Runtime is alive, so
 *  stats always simulate — the warm ArtifactCache and the store
 *  side-effect are the reuse here). */
PayloadOut
doStats(const ServeRequest &req, const ServeOptions &opts,
        std::mutex &storeMu, std::map<double, sim::BenchCacheFile> &store,
        ServeCounters &counters, std::mutex &countersMu)
{
    (void)opts;
    const workloads::WorkloadScale ws = scaleOf(req);
    obs::ExportMeta meta;
    meta.workload = req.workload;
    meta.isa = isaName(req.isa);
    meta.scale = req.scale;
    meta.seed = req.seed;

    PayloadOut out;
    out.servedFrom = "sim";
    out.schema = "last-stats-v1";
    sim::AppResult result;
    try {
        result = sim::runApp(req.workload, req.isa, configOf(req), ws,
                             [&](runtime::Runtime &rt) {
                                 std::ostringstream os;
                                 obs::writeStatsJson(os, rt, meta);
                                 out.bytes = os.str();
                             });
    } catch (const SimError &e) {
        {
            std::lock_guard<std::mutex> g(countersMu);
            ++counters.simulatedSpecs;
            ++counters.quarantinedSpecs;
        }
        throw ServeFailure{"quarantine",
                           std::string(e.kindName()) + ": " +
                               e.message()};
    }
    {
        std::lock_guard<std::mutex> g(countersMu);
        ++counters.simulatedSpecs;
    }

    // A healthy stats run is also a valid bench row: keep it so a
    // later diverge on the same spec has this half for free.
    sim::RunSpec spec{req.workload, req.isa, GpuConfig{}, ws};
    sim::CachedRun row;
    row.key = sim::specCacheKey(spec);
    row.result = std::move(result);
    std::lock_guard<std::mutex> g(storeMu);
    sim::BenchCacheFile &file = store[req.scale];
    file.scale = req.scale;
    if (!file.find(row.key))
        file.rows.push_back(std::move(row));
    return out;
}

} // namespace

void
ServeCore::execute(Pending &p)
{
    PayloadOut out;
    bool failed = false;
    std::string errKind, errMsg;
    try {
        if (p.req.method == "diverge")
            out = doDiverge(p.req, opts_, storeMu_, store_, counters_,
                            mu_);
        else
            out = doStats(p.req, opts_, storeMu_, store_, counters_,
                          mu_);
    } catch (const ServeFailure &f) {
        failed = true;
        errKind = f.kind;
        errMsg = f.message;
    } catch (const SimError &e) {
        failed = true;
        errKind = "internal";
        errMsg = e.message();
    } catch (const std::exception &e) {
        failed = true;
        errKind = "internal";
        errMsg = e.what();
    }

    std::vector<Pending::Waiter> waiters;
    {
        std::lock_guard<std::mutex> g(mu_);
        waiters = std::move(p.waiters);
        inflight_.erase(p.key);
        if (failed)
            counters_.errors += waiters.size();
        else
            counters_.served += waiters.size();
    }
    for (const auto &w : waiters) {
        if (failed)
            w.respond(errorEnvelope(w.id, errKind, errMsg));
        else
            w.respond(payloadEnvelope(w.id, p.req.method,
                                      out.servedFrom, out.quarantined,
                                      out.schema, out.bytes));
    }
}

// --------------------------------------------------------------------
// Socket front-end
// --------------------------------------------------------------------

struct Server::Client
{
    net::LineConn conn;
    std::mutex writeMu;

    explicit Client(int fd) : conn(fd) {}
};

Server::Server(const ServeOptions &opts, const net::Endpoint &ep)
    : opts_(opts), endpoint_(ep), core_(opts)
{
}

Server::~Server()
{
    stop();
}

void
Server::start()
{
    core_.onShutdown([this] {
        // Runs on the worker that served the shutdown request: wake
        // the accept loop and anyone blocked in waitStopped(); the
        // heavyweight teardown happens in stop() on the owner thread.
        listener_.interrupt();
        stopCv_.notify_all();
    });
    listener_.listenOn(endpoint_);
    acceptThread_ = std::thread(&Server::acceptLoop, this);
}

void
Server::acceptLoop()
{
    while (!stopping_.load()) {
        int fd = listener_.acceptConn();
        if (fd < 0)
            break;
        auto client = std::make_shared<Client>(fd);
        std::lock_guard<std::mutex> g(clientsMu_);
        clients_.push_back(client);
        readers_.emplace_back(&Server::readerLoop, this, client);
    }
    {
        std::lock_guard<std::mutex> g(stopMu_);
        acceptDone_ = true;
    }
    stopCv_.notify_all();
}

void
Server::readerLoop(std::shared_ptr<Client> client)
{
    auto writeLine = [&](const std::string &line) {
        std::lock_guard<std::mutex> g(client->writeMu);
        client->conn.writeAll(line + "\n");
    };

    std::string line;
    while (true) {
        auto st = client->conn.readLine(line, opts_.maxLineBytes);
        if (st == net::LineConn::ReadStatus::Eof)
            break;
        if (st == net::LineConn::ReadStatus::Oversized) {
            writeLine(errorEnvelope(
                0, "oversized",
                "request line exceeds " +
                    std::to_string(opts_.maxLineBytes) + " bytes"));
            continue;
        }
        if (line.find_first_not_of(" \t\r") == std::string::npos)
            continue; // blank keep-alive line
        ServeRequest req;
        try {
            req = parseServeRequest(line, "<request>");
        } catch (const SimError &e) {
            writeLine(errorEnvelope(0, "parse", e.message()));
            continue;
        }
        // The respond callback may fire on a worker thread long after
        // this loop moved on (or even exited): the shared_ptr keeps
        // the connection alive until the last response lands.
        core_.submit(req, [client](const std::string &resp) {
            std::lock_guard<std::mutex> g(client->writeMu);
            client->conn.writeAll(resp + "\n");
        });
    }
}

void
Server::waitStopped()
{
    std::unique_lock<std::mutex> l(stopMu_);
    stopCv_.wait(l, [&] {
        return stopped_ || acceptDone_ || core_.shutdownRequested() ||
               stopping_.load();
    });
}

void
Server::stop()
{
    {
        std::lock_guard<std::mutex> g(stopMu_);
        if (stopped_)
            return;
        stopping_.store(true);
    }
    listener_.interrupt();
    if (acceptThread_.joinable())
        acceptThread_.join();
    {
        std::lock_guard<std::mutex> g(clientsMu_);
        for (const auto &w : clients_)
            if (auto c = w.lock())
                c->conn.shutdownConn();
    }
    for (std::thread &t : readers_)
        if (t.joinable())
            t.join();
    listener_.closeAndUnlink();
    {
        std::lock_guard<std::mutex> g(stopMu_);
        stopped_ = true;
    }
    stopCv_.notify_all();
}

} // namespace last::serve
