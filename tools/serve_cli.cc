/**
 * @file
 * `last_serve` — the multi-tenant sweep server CLI (DESIGN.md §4g).
 *
 *   last_serve serve  (--unix PATH | --tcp [PORT]) [--workers N]
 *                     [--sim-jobs N] [--queue-depth N] [--max-line B]
 *                     [--no-retry] [--preload CACHE.csv]
 *                     [--port-file FILE]
 *   last_serve client (--unix PATH | --tcp PORT [--host H])
 *                     ping | status | shutdown
 *   last_serve client ... diverge <workload> [--scale F] [--seed S]
 *                     [--threshold T] [--lds-stride W] [--lds-pad W]
 *                     [--timeout-ms N] [--out FILE]
 *   last_serve client ... stats <workload> <hsail|gcn3|ptxl> [--scale F]
 *                     [--seed S] [--lds-stride W] [--lds-pad W]
 *                     [--timeout-ms N] [--out FILE]
 *
 * serve:  run the daemon in the foreground until a `shutdown` request
 *         or SIGINT/SIGTERM; `--preload` warm-starts the result store
 *         from a bench cache; `--tcp` with port 0 (the default) binds
 *         an ephemeral port, reported on stderr and via `--port-file`.
 * client: send one request, print the response. Payload responses are
 *         unwrapped: the embedded artifact (`last-stats-v1` /
 *         `last-divergence-v2`) goes to stdout or `--out` byte-for-byte
 *         as the offline CLI would have written it; the envelope
 *         metadata goes to stderr.
 *
 * Client exit codes (scripts branch on these; see README):
 *   0  success
 *   1  usage, connection, or malformed-response failure
 *   2  the request degraded to quarantine (response was well-formed)
 *   3  refused by admission control (`overloaded`) — retry with backoff
 *   4  any other structured server error (parse/bad-request/shutdown/…)
 */

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "cli_args.hh"
#include "common/atomic_file.hh"
#include "common/error.hh"
#include "common/json_in.hh"
#include "common/socket.hh"
#include "obs/json.hh"
#include "serve/protocol.hh"
#include "serve/server.hh"
#include "sim/bench_cache.hh"

using namespace last;
using cli::takeFlag;
using cli::takeOption;

namespace
{

[[noreturn]] void
usage()
{
    std::fprintf(
        stderr,
        "usage: last_serve serve  (--unix PATH | --tcp [PORT]) "
        "[--workers N] [--sim-jobs N]\n"
        "                         [--queue-depth N] [--max-line B] "
        "[--no-retry]\n"
        "                         [--preload CACHE.csv] "
        "[--port-file FILE]\n"
        "       last_serve client (--unix PATH | --tcp PORT [--host H]) "
        "<method> [args]\n"
        "         methods: ping | status | shutdown\n"
        "                  diverge <workload> [--scale F] [--seed S] "
        "[--threshold T]\n"
        "                          [--lds-stride W] [--lds-pad W] "
        "[--timeout-ms N] [--out FILE]\n"
        "                  stats <workload> <hsail|gcn3|ptxl> [--scale F] "
        "[--seed S]\n"
        "                          [--lds-stride W] [--lds-pad W] "
        "[--timeout-ms N] [--out FILE]\n");
    std::exit(1);
}

/** Shared endpoint flags: --unix PATH, or --tcp [PORT] [--host H].
 *  `--tcp` with no port means 0 (ephemeral) for serve and is an error
 *  for client (there is nothing to connect to). */
net::Endpoint
takeEndpoint(std::vector<std::string> &args, bool serving)
{
    net::Endpoint ep;
    std::string unixPath = takeOption(args, "--unix", "");
    std::string host = takeOption(args, "--host", "127.0.0.1");
    bool tcp = false;
    std::string port;
    for (size_t i = 0; i < args.size(); ++i) {
        if (args[i] != "--tcp")
            continue;
        tcp = true;
        // optional numeric operand
        if (i + 1 < args.size() && !args[i + 1].empty() &&
            args[i + 1].find_first_not_of("0123456789") ==
                std::string::npos) {
            port = args[i + 1];
            args.erase(args.begin() + i, args.begin() + i + 2);
        } else {
            args.erase(args.begin() + i);
        }
        break;
    }
    if (unixPath.empty() == !tcp) // exactly one transport, please
        usage();
    if (tcp) {
        if (port.empty() && !serving)
            usage();
        ep.kind = net::Endpoint::Kind::Tcp;
        ep.host = host;
        ep.port = uint16_t(port.empty() ? 0 : std::stoul(port));
    } else {
        ep.kind = net::Endpoint::Kind::Unix;
        ep.path = unixPath;
    }
    return ep;
}

serve::Server *gServer = nullptr;

void
onSignal(int)
{
    if (gServer)
        gServer->interruptAccept(); // one shutdown(2): signal-safe
}

int
cmdServe(std::vector<std::string> args)
{
    net::Endpoint ep = takeEndpoint(args, /*serving=*/true);
    serve::ServeOptions opts;
    opts.workers =
        unsigned(std::stoul(takeOption(args, "--workers", "2")));
    if (opts.workers == 0)
        usage(); // workers=0 is the in-process test mode, not a daemon
    opts.simJobs =
        unsigned(std::stoul(takeOption(args, "--sim-jobs", "0")));
    opts.queueDepth = std::stoul(takeOption(args, "--queue-depth", "64"));
    opts.maxLineBytes =
        std::stoul(takeOption(args, "--max-line",
                              std::to_string(size_t(1) << 20)));
    opts.retryFailed = !takeFlag(args, "--no-retry");
    std::string preload = takeOption(args, "--preload", "");
    std::string portFile = takeOption(args, "--port-file", "");
    if (!args.empty())
        usage();

    serve::Server server(opts, ep);
    if (!preload.empty()) {
        std::ifstream is(preload);
        sim::BenchCacheFile cache;
        if (sim::readBenchCache(is, cache, preload)) {
            size_t kept = server.core().preload(cache);
            std::fprintf(stderr,
                         "last_serve: preloaded %zu row(s) from %s\n",
                         kept, preload.c_str());
        }
        // A bad cache already warned through readBenchCache; a cold
        // start just means the first queries simulate.
    }

    server.start();
    if (ep.kind == net::Endpoint::Kind::Tcp) {
        std::fprintf(stderr, "last_serve: listening on tcp:%s:%u\n",
                     ep.host.c_str(), unsigned(server.boundPort()));
        if (!portFile.empty())
            atomicWriteFile(portFile, [&](std::ostream &os) {
                os << server.boundPort() << "\n";
            });
    } else {
        std::fprintf(stderr, "last_serve: listening on unix:%s\n",
                     ep.path.c_str());
    }

    gServer = &server;
    std::signal(SIGINT, onSignal);
    std::signal(SIGTERM, onSignal);

    server.waitStopped();
    gServer = nullptr;
    server.stop(); // join everything, unlink the unix socket
    std::fprintf(stderr, "last_serve: stopped\n");
    return 0;
}

/** Build the single request line a client invocation sends. */
std::string
buildRequest(const std::string &method, std::vector<std::string> &args,
             std::string &outPath)
{
    std::ostringstream os;
    os << "{\"id\":1,\"method\":\"" << method << "\"";
    if (method == "diverge" || method == "stats") {
        double scale = std::stod(takeOption(args, "--scale", "1.0"));
        uint64_t seed = std::stoull(takeOption(args, "--seed", "0"));
        int stride = std::stoi(takeOption(args, "--lds-stride", "-1"));
        int pad = std::stoi(takeOption(args, "--lds-pad", "-1"));
        uint64_t timeoutMs =
            std::stoull(takeOption(args, "--timeout-ms", "0"));
        outPath = takeOption(args, "--out", "");
        std::string threshold = takeOption(
            args, "--threshold",
            method == "diverge"
                ? std::to_string(obs::DefaultDivergenceThreshold)
                : "");
        size_t positional = method == "stats" ? 2 : 1;
        if (args.size() != positional)
            usage();
        os << ",\"workload\":\"" << obs::jsonEscape(args[0]) << "\"";
        if (method == "stats")
            os << ",\"isa\":\"" << obs::jsonEscape(args[1]) << "\"";
        os << ",\"scale\":" << obs::jsonNumber(scale)
           << ",\"seed\":" << seed << ",\"lds_stride\":" << stride
           << ",\"lds_pad\":" << pad;
        if (method == "diverge")
            os << ",\"threshold\":"
               << obs::jsonNumber(std::stod(threshold));
        if (timeoutMs)
            os << ",\"timeout_ms\":" << timeoutMs;
    } else if (!args.empty()) {
        usage();
    }
    os << "}";
    return os.str();
}

int
cmdClient(std::vector<std::string> args)
{
    net::Endpoint ep = takeEndpoint(args, /*serving=*/false);
    if (args.empty())
        usage();
    std::string method = args[0];
    args.erase(args.begin());
    if (method != "ping" && method != "status" && method != "shutdown" &&
        method != "diverge" && method != "stats")
        usage();
    std::string outPath;
    std::string request = buildRequest(method, args, outPath);

    net::LineConn conn(net::connectEndpoint(ep));
    if (!conn.writeAll(request + "\n")) {
        std::fprintf(stderr, "last_serve: %s: send failed\n",
                     ep.describe().c_str());
        return 1;
    }
    std::string line;
    if (conn.readLine(line, size_t(64) << 20) !=
        net::LineConn::ReadStatus::Line) {
        std::fprintf(stderr,
                     "last_serve: %s: connection closed before a "
                     "response arrived\n",
                     ep.describe().c_str());
        return 1;
    }

    jsonin::JsonValue resp = jsonin::parseJson(line, "<response>");
    const jsonin::JsonValue *ok = resp.find("ok");
    if (resp.kind != jsonin::JsonValue::Kind::Object || !ok ||
        ok->kind != jsonin::JsonValue::Kind::Bool) {
        std::fprintf(stderr, "last_serve: malformed response: %s\n",
                     line.c_str());
        return 1;
    }

    if (!ok->boolean) {
        std::string kind = jsonin::asString(
            jsonin::require(resp, "error_kind", "<response>"),
            "error_kind", "<response>");
        std::string msg = jsonin::asString(
            jsonin::require(resp, "error", "<response>"), "error",
            "<response>");
        std::fprintf(stderr, "last_serve: server error (%s): %s\n",
                     kind.c_str(), msg.c_str());
        if (kind == "quarantine")
            return 2;
        if (kind == "overloaded")
            return 3;
        return 4;
    }

    if (const jsonin::JsonValue *payload = resp.find("payload")) {
        // jsonin already unescaped the string: these are the exact
        // artifact bytes the offline CLI would have written.
        std::string bytes =
            jsonin::asString(*payload, "payload", "<response>");
        bool quarantined = false;
        if (const jsonin::JsonValue *q = resp.find("quarantined"))
            quarantined = q->kind == jsonin::JsonValue::Kind::Bool &&
                          q->boolean;
        std::string schema = jsonin::asString(
            jsonin::require(resp, "payload_schema", "<response>"),
            "payload_schema", "<response>");
        std::string served = jsonin::asString(
            jsonin::require(resp, "served", "<response>"), "served",
            "<response>");
        if (outPath.empty())
            std::cout << bytes;
        else
            atomicWriteFile(outPath, [&](std::ostream &os) {
                os << bytes;
            });
        std::fprintf(stderr,
                     "last_serve: %s served from %s (%s)%s\n",
                     method.c_str(), served.c_str(), schema.c_str(),
                     quarantined ? " [quarantined]" : "");
        return quarantined ? 2 : 0;
    }

    if (const jsonin::JsonValue *result = resp.find("result")) {
        (void)result;
        // Echo the whole envelope: `result` is server-native JSON and
        // the envelope line is itself valid single-line JSON.
        std::cout << line << "\n";
        return 0;
    }
    std::fprintf(stderr, "last_serve: malformed response: %s\n",
                 line.c_str());
    return 1;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        usage();
    std::string cmd = argv[1];
    std::vector<std::string> args(argv + 2, argv + argc);
    try {
        if (cmd == "serve")
            return cmdServe(std::move(args));
        if (cmd == "client")
            return cmdClient(std::move(args));
    } catch (const std::exception &e) {
        std::fprintf(stderr, "last_serve: %s\n", e.what());
        return 1;
    }
    usage();
}
