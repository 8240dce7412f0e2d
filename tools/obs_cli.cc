/**
 * @file
 * `last_obs` — observability CLI (see DESIGN.md §5).
 *
 *   last_obs trace   <workload> <hsail|gcn3|ptxl> [--scale F] [--out FILE]
 *   last_obs stats   <workload> <hsail|gcn3|ptxl> [--scale F] [--json FILE]
 *                    [--csv FILE]
 *   last_obs diverge [workload...] [--scale F] [--threshold T]
 *                    [--json FILE] [--jobs N] [--seed S]
 *                    [--lds-stride W] [--lds-pad W]
 *
 * trace:   run once with a TraceSink attached and emit Chrome
 *          trace_event JSON (open in chrome://tracing or Perfetto).
 * stats:   run once and dump the full stats tree (JSON and/or CSV;
 *          JSON to stdout when neither file is given).
 * diverge: run each workload (default: all Table 5 applications plus
 *          the stress workloads) at every ISA level as one shard
 *          (the `last_sweep run` path) and print the ranked N×N
 *          cross-ISA divergence report, one per argument in argument
 *          order; optional machine-readable copy with --json. --seed
 *          varies the input data; --lds-stride/--lds-pad are the
 *          ldsswizzle bank-conflict knobs (ignored elsewhere). Exit
 *          code 0 even when stats diverge (that is the expected
 *          result); 1 on usage or simulation failure.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "cli_args.hh"
#include "common/atomic_file.hh"
#include "obs/divergence.hh"
#include "obs/stats_export.hh"
#include "obs/trace.hh"
#include "sim/experiment.hh"
#include "workloads/workload.hh"

using namespace last;
using cli::takeOption;

namespace
{

[[noreturn]] void
usage()
{
    std::fprintf(
        stderr,
        "usage: last_obs trace   <workload> <hsail|gcn3|ptxl> [--scale F] "
        "[--out FILE]\n"
        "       last_obs stats   <workload> <hsail|gcn3|ptxl> [--scale F] "
        "[--json FILE] [--csv FILE]\n"
        "       last_obs diverge [workload...] [--scale F] "
        "[--threshold T] [--json FILE] [--jobs N]\n"
        "                        [--seed S] [--lds-stride W] "
        "[--lds-pad W]\n");
    std::exit(1);
}

IsaKind
parseIsa(const std::string &s)
{
    IsaKind isa;
    if (isaFromName(s, isa))
        return isa;
    usage();
}

int
cmdTrace(std::vector<std::string> args)
{
    double scale = std::stod(takeOption(args, "--scale", "1.0"));
    std::string out = takeOption(args, "--out", "");
    if (args.size() != 2)
        usage();
    IsaKind isa = parseIsa(args[1]);

    obs::TraceSink sink;
    GpuConfig cfg;
    cfg.trace = &sink;
    sim::AppResult r = sim::runApp(args[0], isa, cfg, {scale});

    obs::TraceMeta meta;
    meta.workload = r.workload;
    meta.isa = isaName(isa);
    meta.scale = scale;
    if (out.empty()) {
        sink.writeChromeTrace(std::cout, meta);
    } else {
        atomicWriteFile(out, [&](std::ostream &os) {
            sink.writeChromeTrace(os, meta);
        });
        std::fprintf(stderr,
                     "last_obs: %llu events (%llu dropped) across %zu "
                     "tracks -> %s\n",
                     (unsigned long long)sink.totalEvents(),
                     (unsigned long long)sink.totalDropped(),
                     sink.numStreams(), out.c_str());
    }
    return r.verified ? 0 : 1;
}

int
cmdStats(std::vector<std::string> args)
{
    double scale = std::stod(takeOption(args, "--scale", "1.0"));
    std::string jsonPath = takeOption(args, "--json", "");
    std::string csvPath = takeOption(args, "--csv", "");
    if (args.size() != 2)
        usage();
    IsaKind isa = parseIsa(args[1]);

    obs::ExportMeta meta;
    meta.workload = args[0];
    meta.isa = isaName(isa);
    meta.scale = scale;

    bool verified = false;
    sim::AppResult r = sim::runApp(
        args[0], isa, GpuConfig{}, {scale},
        [&](runtime::Runtime &rt) {
            if (!jsonPath.empty()) {
                atomicWriteFile(jsonPath, [&](std::ostream &os) {
                    obs::writeStatsJson(os, rt, meta);
                });
            }
            if (!csvPath.empty()) {
                atomicWriteFile(csvPath, [&](std::ostream &os) {
                    obs::writeStatsCsv(os, rt, meta);
                });
            }
            if (jsonPath.empty() && csvPath.empty())
                obs::writeStatsJson(std::cout, rt, meta);
        });
    verified = r.verified;
    return verified ? 0 : 1;
}

int
cmdDiverge(std::vector<std::string> args)
{
    double scale = std::stod(takeOption(args, "--scale", "1.0"));
    double threshold = std::stod(takeOption(
        args, "--threshold",
        std::to_string(obs::DefaultDivergenceThreshold)));
    std::string jsonPath = takeOption(args, "--json", "");
    unsigned jobs = unsigned(std::stoul(takeOption(args, "--jobs", "0")));

    workloads::WorkloadScale ws{scale};
    ws.seed = std::stoull(takeOption(args, "--seed", "0"));
    ws.ldsStrideWords = std::stoi(takeOption(args, "--lds-stride", "-1"));
    ws.ldsPadWords = std::stoi(takeOption(args, "--lds-pad", "-1"));

    std::vector<std::string> workloads =
        args.empty() ? workloads::allWorkloadNames() : args;

    auto reports = obs::divergenceReports(workloads, ws, threshold, jobs);

    bool anyFailed = false;
    for (const auto &r : reports) {
        obs::writeDivergenceText(std::cout, r);
        anyFailed |= r.failed;
    }

    if (!jsonPath.empty()) {
        atomicWriteFile(jsonPath, [&](std::ostream &os) {
            obs::writeDivergenceJsonArray(os, reports);
        });
    }
    return anyFailed ? 1 : 0;
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
        if (cmd == "trace")
            return cmdTrace(std::move(args));
        if (cmd == "stats")
            return cmdStats(std::move(args));
        if (cmd == "diverge")
            return cmdDiverge(std::move(args));
    } catch (const std::exception &e) {
        std::fprintf(stderr, "last_obs: %s\n", e.what());
        return 1;
    }
    usage();
}
