#!/bin/sh
# Cross-ISA divergence report: run the tier-1 workloads at both
# abstraction levels (HSAIL and GCN3) and print, per workload, the
# ranked relative delta of every per-figure statistic — the automated
# version of the paper's accurate-vs-divergent classification (Table 7
# / Figures 5-12). See DESIGN.md §5 for the ranking rules and
# EXPERIMENTS.md for the figure-by-figure walkthrough.
#
# Usage: scripts/report_divergence.sh [options] [workload...]
#   --scale F      workload scale factor (default 1.0)
#   --threshold T  divergence threshold as a fraction (default 0.10)
#   --json FILE    also write the machine-readable report array
#   --jobs N       parallel simulations (default: all cores; LAST_JOBS
#                  is honored too)
#   workload...    subset to run (default: all Table 5 applications)
#
# Exit status: 0 when every differential run succeeded (divergent
# statistics are the expected *result*, not a failure); non-zero when a
# run was quarantined or the functional cross-ISA invariant broke.
set -u

cd "$(dirname "$0")/.."
repo=$(pwd)

fail() {
    echo "report_divergence: FAILED: $1" >&2
    exit 1
}

# Reuse the Release tree the perf baseline uses: divergence reports
# sweep every workload twice, which is painful at RelWithDebInfo speed.
cmake -B build-perf -S . -DCMAKE_BUILD_TYPE=Release >/dev/null ||
    fail "configure"
cmake --build build-perf -j "$(nproc)" --target last_obs >/dev/null ||
    fail "build"

# --json output is written by last_obs through atomicWriteFile (temp +
# fsync + rename), so killing this script mid-report can never leave a
# torn JSON for a downstream consumer.
exec "$repo/build-perf/tools/last_obs" diverge "$@"
