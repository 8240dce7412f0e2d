/**
 * @file
 * Tests for the multi-tenant sweep server (src/serve, common/socket):
 *  - the `last-serve-v1` protocol: request parsing (with byte-offset
 *    errors), single-line envelopes, exact payload round-trip through
 *    the escaped-string embedding;
 *  - in-flight coalescing: N concurrent identical requests cost one
 *    simulation pair, proven by the scheduler counters;
 *  - served divergence payloads are byte-identical to what the offline
 *    `last_obs diverge` path produces, cold and warm — and a warm
 *    server answers a repeat query with zero new simulations;
 *  - admission control refuses at a full queue with a structured
 *    `overloaded` error instead of queueing unbounded work;
 *  - quarantine degradation: a per-request deadline trip degrades the
 *    response (and is never retained in the store, so a retry
 *    re-simulates) without killing the daemon;
 *  - the socket front-end: ephemeral-port TCP, malformed and oversized
 *    lines answered with structured errors on a still-usable
 *    connection, concurrent real clients, clean unix-socket unlink.
 *
 * ServeCore tests run with workers=0 (submissions queue; drainOne()
 * executes inline) so every counter assertion is deterministic.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <sys/stat.h>
#include <thread>
#include <vector>

#include "common/error.hh"
#include "common/json_in.hh"
#include "common/socket.hh"
#include "obs/divergence.hh"
#include "obs/stats_export.hh"
#include "serve/protocol.hh"
#include "serve/server.hh"
#include "sim/bench_cache.hh"
#include "sim/experiment.hh"
#include "sim/parallel.hh"

using namespace last;

namespace
{

/** workers=0: submissions only queue; tests drain deterministically. */
serve::ServeOptions
inlineOpts()
{
    serve::ServeOptions opts;
    opts.workers = 0;
    return opts;
}

serve::ServeRequest
divergeRequest(const std::string &workload, double scale,
               uint64_t id = 1)
{
    serve::ServeRequest req;
    req.id = id;
    req.method = "diverge";
    req.workload = workload;
    req.scale = scale;
    return req;
}

/** Parse a response envelope (it must be one line of valid JSON). */
jsonin::JsonValue
parseEnvelope(const std::string &line)
{
    EXPECT_EQ(line.find('\n'), std::string::npos) << line;
    return jsonin::parseJson(line, "<envelope>");
}

std::string
field(const jsonin::JsonValue &env, const std::string &key)
{
    const jsonin::JsonValue *v = env.find(key);
    EXPECT_NE(v, nullptr) << "missing field " << key;
    return v ? v->text : "";
}

bool
boolField(const jsonin::JsonValue &env, const std::string &key)
{
    const jsonin::JsonValue *v = env.find(key);
    EXPECT_NE(v, nullptr) << "missing field " << key;
    return v && v->boolean;
}

/** The offline reference: what `last_obs diverge <w> --json` writes. */
std::string
offlineDivergenceBytes(const std::string &workload, double scale)
{
    workloads::WorkloadScale ws{scale};
    auto reports = obs::divergenceReports(
        {workload}, ws, obs::DefaultDivergenceThreshold, 1);
    std::ostringstream os;
    obs::writeDivergenceJsonArray(os, reports);
    return os.str();
}

} // namespace

// --------------------------------------------------------------------
// Protocol
// --------------------------------------------------------------------

TEST(ServeProtocol, ParsesFullRequestLine)
{
    serve::ServeRequest req = serve::parseServeRequest(
        R"({"id":7,"method":"diverge","workload":"SpMV","isa":"gcn3",)"
        R"("scale":0.5,"seed":3,"lds_stride":2,"lds_pad":1,)"
        R"("threshold":0.2,"timeout_ms":100,"future_field":true})",
        "<test>");
    EXPECT_EQ(req.id, 7u);
    EXPECT_EQ(req.method, "diverge");
    EXPECT_EQ(req.workload, "SpMV");
    EXPECT_TRUE(req.hasIsa);
    EXPECT_EQ(req.isa, IsaKind::GCN3);
    EXPECT_DOUBLE_EQ(req.scale, 0.5);
    EXPECT_EQ(req.seed, 3u);
    EXPECT_EQ(req.ldsStrideWords, 2);
    EXPECT_EQ(req.ldsPadWords, 1);
    EXPECT_DOUBLE_EQ(req.threshold, 0.2);
    EXPECT_EQ(req.timeoutMs, 100u);
}

TEST(ServeProtocol, DefaultsMirrorTheOfflineCli)
{
    serve::ServeRequest req =
        serve::parseServeRequest(R"({"method":"ping"})", "<test>");
    EXPECT_EQ(req.id, 0u);
    EXPECT_FALSE(req.hasIsa);
    EXPECT_DOUBLE_EQ(req.scale, 1.0);
    EXPECT_EQ(req.seed, 0u);
    EXPECT_EQ(req.ldsStrideWords, -1);
    EXPECT_EQ(req.ldsPadWords, -1);
    EXPECT_DOUBLE_EQ(req.threshold, obs::DefaultDivergenceThreshold);
    EXPECT_EQ(req.timeoutMs, 0u);
}

TEST(ServeProtocol, RejectsMalformedLinesWithOffset)
{
    // Missing method, non-object, bad isa, trailing garbage: all must
    // throw ConfigError naming the source — never crash or half-parse.
    for (const char *bad :
         {R"({"workload":"SpMV"})", R"([1,2,3])", "not json at all",
          R"({"method":"stats","isa":"ptx"})",
          R"({"method":"ping"} trailing)", R"({"method":)", ""}) {
        EXPECT_THROW(serve::parseServeRequest(bad, "<bad>"),
                     ConfigError)
            << bad;
    }
}

TEST(ServeProtocol, EnvelopePayloadRoundTripsExactly)
{
    // Multi-line artifact bytes with quotes and backslashes must
    // survive the escaped-string embedding byte for byte.
    const std::string artifact =
        "{\n  \"x\": \"a\\\"b\\\\c\",\n  \"y\": [1, 2]\n}\n";
    std::string line = serve::payloadEnvelope(
        9, "diverge", "cache", false, "last-divergence-v1", artifact);
    jsonin::JsonValue env = parseEnvelope(line);
    EXPECT_EQ(field(env, "schema"), "last-serve-v1");
    EXPECT_EQ(field(env, "id"), "9");
    EXPECT_TRUE(boolField(env, "ok"));
    EXPECT_EQ(field(env, "served"), "cache");
    EXPECT_FALSE(boolField(env, "quarantined"));
    EXPECT_EQ(field(env, "payload_schema"), "last-divergence-v1");
    EXPECT_EQ(field(env, "payload"), artifact);
}

TEST(ServeProtocol, ErrorEnvelopeCarriesMachineReadableKind)
{
    jsonin::JsonValue env = parseEnvelope(
        serve::errorEnvelope(3, "overloaded", "queue full"));
    EXPECT_FALSE(boolField(env, "ok"));
    EXPECT_EQ(field(env, "error_kind"), "overloaded");
    EXPECT_EQ(field(env, "error"), "queue full");
}

// --------------------------------------------------------------------
// ServeCore: coalescing, reuse, byte identity
// --------------------------------------------------------------------

TEST(ServeCore, CoalescesConcurrentIdenticalRequestsIntoOneSimulation)
{
    serve::ServeCore core(inlineOpts());
    std::vector<std::string> responses(3);
    for (uint64_t id = 1; id <= 3; ++id)
        core.submit(divergeRequest("atomicred", 0.25, id),
                    [&responses, id](const std::string &r) {
                        responses[id - 1] = r;
                    });

    // Three submissions, one queue entry, two coalesced waiters.
    serve::ServeCounters c = core.counters();
    EXPECT_EQ(c.received, 3u);
    EXPECT_EQ(c.coalesced, 2u);
    EXPECT_EQ(core.pendingRequests(), 1u);

    EXPECT_TRUE(core.drainOne());
    EXPECT_FALSE(core.drainOne()); // nothing else was queued

    c = core.counters();
    EXPECT_EQ(c.served, 3u);            // every waiter got its answer
    EXPECT_EQ(c.simulatedSpecs, NumIsas); // exactly one ISA group
    EXPECT_EQ(c.cacheRowHits, 0u);
    for (const std::string &r : responses)
        ASSERT_FALSE(r.empty());

    // Identical payloads; only the echoed id differs.
    jsonin::JsonValue e1 = parseEnvelope(responses[0]);
    jsonin::JsonValue e3 = parseEnvelope(responses[2]);
    EXPECT_EQ(field(e1, "id"), "1");
    EXPECT_EQ(field(e3, "id"), "3");
    EXPECT_EQ(field(e1, "payload"), field(e3, "payload"));
    EXPECT_EQ(field(e1, "served"), "sim");
}

TEST(ServeCore, ServedDivergenceIsByteIdenticalToOfflineColdAndWarm)
{
    serve::ServeCore core(inlineOpts());
    const std::string offline = offlineDivergenceBytes("atomicred", 0.25);

    std::string cold, warm;
    core.submit(divergeRequest("atomicred", 0.25, 1),
                [&](const std::string &r) { cold = r; });
    EXPECT_TRUE(core.drainOne());
    core.submit(divergeRequest("atomicred", 0.25, 2),
                [&](const std::string &r) { warm = r; });
    EXPECT_TRUE(core.drainOne());

    jsonin::JsonValue coldEnv = parseEnvelope(cold);
    jsonin::JsonValue warmEnv = parseEnvelope(warm);

    // The acceptance bar: served payloads equal the offline artifact
    // byte for byte, and the warm answer simulated nothing.
    EXPECT_EQ(field(coldEnv, "payload"), offline);
    EXPECT_EQ(field(warmEnv, "payload"), offline);
    EXPECT_EQ(field(coldEnv, "served"), "sim");
    EXPECT_EQ(field(warmEnv, "served"), "cache");

    serve::ServeCounters c = core.counters();
    EXPECT_EQ(c.simulatedSpecs, NumIsas); // the warm query added none
    EXPECT_EQ(c.cacheRowHits, NumIsas);   // every row from the store
    EXPECT_EQ(core.storeRows(), NumIsas);
}

TEST(ServeCore, PreloadedCacheAnswersWithZeroSimulations)
{
    // Build the rows the way a bench sweep would.
    workloads::WorkloadScale ws{0.25};
    std::vector<sim::RunSpec> specs;
    for (IsaKind isa : AllIsas)
        specs.push_back({"atomicred", isa, GpuConfig{}, ws});
    sim::SweepReport sweep = sim::runSweep(specs, {1, false});
    ASSERT_TRUE(sweep.allOk());

    sim::BenchCacheFile cache;
    cache.scale = 0.25;
    for (size_t i = 0; i < specs.size(); ++i)
        cache.rows.push_back(
            {sim::specCacheKey(specs[i]), sweep.results[i]});
    // A quarantined row must NOT be retained by preload.
    sim::CachedRun poisoned;
    poisoned.key = sim::specCacheKey(
        {"pipeline", IsaKind::HSAIL, GpuConfig{}, ws});
    poisoned.result.quarantined = true;
    cache.rows.push_back(poisoned);

    serve::ServeCore core(inlineOpts());
    EXPECT_EQ(core.preload(cache), NumIsas);
    EXPECT_EQ(core.storeRows(), NumIsas);

    std::string resp;
    core.submit(divergeRequest("atomicred", 0.25),
                [&](const std::string &r) { resp = r; });
    EXPECT_TRUE(core.drainOne());

    jsonin::JsonValue env = parseEnvelope(resp);
    EXPECT_EQ(field(env, "served"), "cache");
    EXPECT_EQ(field(env, "payload"),
              offlineDivergenceBytes("atomicred", 0.25));
    EXPECT_EQ(core.counters().simulatedSpecs, 0u);
}

TEST(ServeCore, StatsPayloadMatchesOfflineExport)
{
    serve::ServeRequest req;
    req.id = 1;
    req.method = "stats";
    req.workload = "atomicred";
    req.isa = IsaKind::GCN3;
    req.hasIsa = true;
    req.scale = 0.25;

    serve::ServeCore core(inlineOpts());
    std::string resp;
    core.submit(req, [&](const std::string &r) { resp = r; });
    EXPECT_TRUE(core.drainOne());

    // Offline reference: `last_obs stats atomicred gcn3 --scale 0.25`.
    obs::ExportMeta meta;
    meta.workload = "atomicred";
    meta.isa = isaName(IsaKind::GCN3);
    meta.scale = 0.25;
    std::string offline;
    sim::runApp("atomicred", IsaKind::GCN3, GpuConfig{}, {0.25},
                [&](runtime::Runtime &rt) {
                    std::ostringstream os;
                    obs::writeStatsJson(os, rt, meta);
                    offline = os.str();
                });

    jsonin::JsonValue env = parseEnvelope(resp);
    EXPECT_EQ(field(env, "payload_schema"), "last-stats-v1");
    EXPECT_EQ(field(env, "payload"), offline);

    // The healthy stats run was kept as a bench row, so a later
    // diverge on the same spec only owes the missing ISAs.
    EXPECT_EQ(core.storeRows(), 1u);
}

TEST(ServeCore, AdmissionControlRefusesWhenQueueIsFull)
{
    serve::ServeOptions opts = inlineOpts();
    opts.queueDepth = 1;
    serve::ServeCore core(opts);

    std::string first, second, coalesced;
    core.submit(divergeRequest("atomicred", 0.25, 1),
                [&](const std::string &r) { first = r; });
    // Different key at a full queue: refused immediately.
    core.submit(divergeRequest("ArrayBW", 0.25, 2),
                [&](const std::string &r) { second = r; });
    ASSERT_FALSE(second.empty());
    jsonin::JsonValue env = parseEnvelope(second);
    EXPECT_FALSE(boolField(env, "ok"));
    EXPECT_EQ(field(env, "error_kind"), "overloaded");

    // An identical twin still coalesces: it costs no queue slot.
    core.submit(divergeRequest("atomicred", 0.25, 3),
                [&](const std::string &r) { coalesced = r; });
    EXPECT_TRUE(coalesced.empty());

    serve::ServeCounters c = core.counters();
    EXPECT_EQ(c.overloaded, 1u);
    EXPECT_EQ(c.coalesced, 1u);
    EXPECT_TRUE(core.drainOne());
    EXPECT_FALSE(first.empty());
    EXPECT_FALSE(coalesced.empty());
}

TEST(ServeCore, BadRequestsGetStructuredErrorsNotCrashes)
{
    serve::ServeCore core(inlineOpts());
    auto expectError = [&](serve::ServeRequest req,
                           const std::string &kind) {
        std::string resp;
        core.submit(req, [&](const std::string &r) { resp = r; });
        ASSERT_FALSE(resp.empty());
        jsonin::JsonValue env = parseEnvelope(resp);
        EXPECT_FALSE(boolField(env, "ok"));
        EXPECT_EQ(field(env, "error_kind"), kind);
    };

    serve::ServeRequest req;
    req.method = "explode";
    expectError(req, "bad-request"); // unknown method

    req = divergeRequest("NoSuchWorkload", 1.0);
    expectError(req, "bad-request");

    req = serve::ServeRequest{};
    req.method = "stats";
    req.workload = "atomicred";
    expectError(req, "bad-request"); // stats without an isa

    req = serve::ServeRequest{};
    req.method = "diverge";
    expectError(req, "bad-request"); // no workload

    EXPECT_EQ(core.pendingRequests(), 0u); // none of those queued
}

TEST(ServeCore, ShutdownAcksThenRefusesNewWork)
{
    serve::ServeCore core(inlineOpts());
    bool hookRan = false;
    core.onShutdown([&] { hookRan = true; });

    std::string ack;
    serve::ServeRequest req;
    req.method = "shutdown";
    core.submit(req, [&](const std::string &r) { ack = r; });
    jsonin::JsonValue env = parseEnvelope(ack);
    EXPECT_TRUE(boolField(env, "ok"));
    EXPECT_TRUE(hookRan);
    EXPECT_TRUE(core.shutdownRequested());

    std::string late;
    core.submit(divergeRequest("atomicred", 0.25),
                [&](const std::string &r) { late = r; });
    jsonin::JsonValue lateEnv = parseEnvelope(late);
    EXPECT_FALSE(boolField(lateEnv, "ok"));
    EXPECT_EQ(field(lateEnv, "error_kind"), "shutdown");
}

// --------------------------------------------------------------------
// Quarantine degradation
// --------------------------------------------------------------------

TEST(ServeQuarantine, DeadlineTripDegradesResponseAndIsNeverStored)
{
    serve::ServeOptions opts = inlineOpts();
    opts.retryFailed = false; // deterministic single attempt
    serve::ServeCore core(opts);

    serve::ServeRequest req = divergeRequest("pipeline", 1.0);
    req.timeoutMs = 1; // a full pipeline sim cannot finish in 1ms

    std::string resp;
    core.submit(req, [&](const std::string &r) { resp = r; });
    EXPECT_TRUE(core.drainOne());

    // Degraded, not dead: a well-formed payload whose reports carry
    // the failure (divergenceFromCache's failed-report shape).
    jsonin::JsonValue env = parseEnvelope(resp);
    EXPECT_TRUE(boolField(env, "ok"));
    EXPECT_TRUE(boolField(env, "quarantined"));
    std::string payload = field(env, "payload");
    EXPECT_NE(payload.find("\"failed\":true"), std::string::npos)
        << payload;

    // Nothing poisoned the store; the retry re-simulates.
    EXPECT_EQ(core.storeRows(), 0u);
    serve::ServeCounters c = core.counters();
    EXPECT_EQ(c.quarantinedSpecs, NumIsas);
    uint64_t simulatedBefore = c.simulatedSpecs;

    std::string retry;
    core.submit(req, [&](const std::string &r) { retry = r; });
    EXPECT_TRUE(core.drainOne());
    EXPECT_GT(core.counters().simulatedSpecs, simulatedBefore);
    EXPECT_EQ(core.counters().cacheRowHits, 0u);
}

TEST(ServeQuarantine, StatsDeadlineTripIsAStructuredQuarantineError)
{
    serve::ServeOptions opts = inlineOpts();
    opts.retryFailed = false;
    serve::ServeCore core(opts);

    serve::ServeRequest req;
    req.method = "stats";
    req.workload = "pipeline";
    req.isa = IsaKind::GCN3;
    req.hasIsa = true;
    req.timeoutMs = 1;

    std::string resp;
    core.submit(req, [&](const std::string &r) { resp = r; });
    EXPECT_TRUE(core.drainOne());

    jsonin::JsonValue env = parseEnvelope(resp);
    EXPECT_FALSE(boolField(env, "ok"));
    EXPECT_EQ(field(env, "error_kind"), "quarantine");
    EXPECT_EQ(core.storeRows(), 0u); // the daemon survives, store clean
}

// --------------------------------------------------------------------
// Socket front-end
// --------------------------------------------------------------------

namespace
{

/** One connected test client over loopback TCP. */
struct TestClient
{
    net::LineConn conn;

    explicit TestClient(uint16_t port)
        : conn(net::connectEndpoint(makeTcp(port)))
    {}

    static net::Endpoint
    makeTcp(uint16_t port)
    {
        net::Endpoint ep;
        ep.kind = net::Endpoint::Kind::Tcp;
        ep.port = port;
        return ep;
    }

    std::string
    roundTrip(const std::string &requestLine)
    {
        EXPECT_TRUE(conn.writeAll(requestLine + "\n"));
        std::string line;
        EXPECT_EQ(conn.readLine(line, size_t(64) << 20),
                  net::LineConn::ReadStatus::Line);
        return line;
    }
};

} // namespace

TEST(ServeSocket, TcpPingOnEphemeralPort)
{
    serve::ServeOptions opts;
    opts.workers = 1;
    serve::Server server(opts, TestClient::makeTcp(0));
    server.start();
    ASSERT_GT(server.boundPort(), 0);

    TestClient client(server.boundPort());
    jsonin::JsonValue env =
        parseEnvelope(client.roundTrip(R"({"id":5,"method":"ping"})"));
    EXPECT_TRUE(boolField(env, "ok"));
    EXPECT_EQ(field(env, "id"), "5");
    server.stop();
}

TEST(ServeSocket, MalformedAndOversizedLinesKeepTheConnectionUsable)
{
    serve::ServeOptions opts;
    opts.workers = 1;
    opts.maxLineBytes = 256;
    serve::Server server(opts, TestClient::makeTcp(0));
    server.start();

    TestClient client(server.boundPort());

    // Garbage line: structured parse error, connection stays up.
    jsonin::JsonValue bad =
        parseEnvelope(client.roundTrip("this is not json"));
    EXPECT_FALSE(boolField(bad, "ok"));
    EXPECT_EQ(field(bad, "error_kind"), "parse");

    // Oversized line: structured error after resync.
    std::string huge = R"({"method":")" + std::string(1024, 'x') +
                       R"("})";
    jsonin::JsonValue over = parseEnvelope(client.roundTrip(huge));
    EXPECT_FALSE(boolField(over, "ok"));
    EXPECT_EQ(field(over, "error_kind"), "oversized");

    // Framing survived both: a normal request still answers.
    jsonin::JsonValue ok =
        parseEnvelope(client.roundTrip(R"({"id":2,"method":"ping"})"));
    EXPECT_TRUE(boolField(ok, "ok"));
    EXPECT_EQ(field(ok, "id"), "2");
    server.stop();
}

TEST(ServeSocket, ConcurrentIdenticalClientsCostOneSimulationPair)
{
    serve::ServeOptions opts;
    opts.workers = 2;
    opts.simJobs = 1;
    serve::Server server(opts, TestClient::makeTcp(0));
    server.start();

    constexpr int N = 4;
    const std::string request =
        R"({"id":1,"method":"diverge","workload":"atomicred",)"
        R"("scale":0.25})";
    std::vector<std::string> responses(N);
    std::vector<std::thread> threads;
    threads.reserve(N);
    for (int i = 0; i < N; ++i)
        threads.emplace_back([&, i] {
            TestClient client(server.boundPort());
            responses[i] = client.roundTrip(request);
        });
    for (std::thread &t : threads)
        t.join();

    // Whether the twins coalesced or hit the warm store, the
    // ISA group was simulated exactly once.
    std::string payload0;
    for (int i = 0; i < N; ++i) {
        jsonin::JsonValue env = parseEnvelope(responses[i]);
        EXPECT_TRUE(boolField(env, "ok"));
        std::string p = field(env, "payload");
        if (i == 0)
            payload0 = p;
        else
            EXPECT_EQ(p, payload0);
    }
    serve::ServeCounters c = server.core().counters();
    EXPECT_EQ(c.simulatedSpecs, NumIsas);
    EXPECT_EQ(c.served, unsigned(N));
    server.stop();
}

TEST(ServeSocket, ShutdownRequestStopsTheServerAndUnlinksUnixSocket)
{
    char buf[] = "/tmp/last_serve_XXXXXX";
    ASSERT_NE(::mkdtemp(buf), nullptr);
    const std::string sockPath = std::string(buf) + "/serve.sock";

    net::Endpoint ep;
    ep.kind = net::Endpoint::Kind::Unix;
    ep.path = sockPath;

    serve::ServeOptions opts;
    opts.workers = 1;
    serve::Server server(opts, ep);
    server.start();

    struct stat st{};
    EXPECT_EQ(::stat(sockPath.c_str(), &st), 0); // socket file exists

    {
        net::LineConn conn(net::connectEndpoint(ep));
        EXPECT_TRUE(
            conn.writeAll(R"({"id":1,"method":"shutdown"})" "\n"));
        std::string line;
        EXPECT_EQ(conn.readLine(line, 1 << 20),
                  net::LineConn::ReadStatus::Line);
        EXPECT_TRUE(boolField(parseEnvelope(line), "ok"));
    }

    server.waitStopped();
    server.stop();
    // The clean-shutdown contract: no leaked socket file.
    EXPECT_NE(::stat(sockPath.c_str(), &st), 0);
    ::rmdir(buf);
}
