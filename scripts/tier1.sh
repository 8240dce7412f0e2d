#!/bin/sh
# Tier-1 verification: the full test suite on a regular build, the
# concurrency-sensitive suites again under ThreadSanitizer with a
# multi-worker pool, and the fault-injection/error-path suites under
# AddressSanitizer+UBSan (exception unwinding through the watchdog and
# quarantine machinery is where lifetime bugs hide).
#
# Every sub-suite runs even when an earlier one fails; the script exits
# nonzero if ANY failed, so CI cannot green-light a partial pass.
#
# Usage: scripts/tier1.sh    (from the repo root)
set -u

cd "$(dirname "$0")/.."

status=0
fail() {
    echo "tier1: FAILED: $1" >&2
    status=1
}

# Regular build + full suite. A broken build makes every later stage
# meaningless, so only configuration/build errors abort early.
cmake -B build -S . || exit 1
cmake --build build -j "$(nproc)" || exit 1
(cd build && ctest --output-on-failure -j "$(nproc)") || fail "full suite"

# TSan pass: build only the test binary and run the parallel-driver,
# sweep-quarantine, and differential suites with 4 workers forced via
# LAST_JOBS. The PTXL legs (PtxlExecEngine drives the predecoded
# engine through the sweep pool; the three-way differentials overlap
# HSAIL/GCN3/PTXL runs on the same pool) ride here too, and so does
# the mode matrix, which runs the whole matrix on the pool once per
# mode. CI's tsan job runs the same filter.
if cmake -B build-tsan -S . -DLAST_TSAN=ON &&
    cmake --build build-tsan -j "$(nproc)" --target last_tests; then
    LAST_JOBS=4 ./build-tsan/tests/last_tests \
        --gtest_filter='ParallelDriver.*:SweepQuarantine.*:FastForward.*:ModeMatrix.*:FunctionalMemoryFootprint.*:ExecEngine.*:ServeSocket.*:PtxlExecEngine.*:RandomKernelDifferential.*:Table5/WorkloadDifferential.*' ||
        fail "TSan suite"
else
    fail "TSan build"
fi

# ASan+UBSan pass: the fault-injection, watchdog, and logging/error
# suites, which exercise every throw path in the simulator — plus the
# PTXL legs (warp-split stack, convergence barriers, scoreboard) and
# the stress-differential job (three-way cross-ISA agreement and the
# N×N golden signatures), whose lane-mask/stack manipulation is where
# out-of-bounds bugs would live — plus the IL and GCN3 lane tables,
# the GCN3 VALU and IL value sweeps and the IL's integer corner cases,
# where UBSan flags any signed overflow — plus the golden cache, which regenerates
# all 42 specs and byte-compares them with last_bench_cache.csv under
# the sanitizers' build flags — plus the cache model's recency list
# and way index and the probe memo and hash, index arithmetic over
# per-line, per-slot and per-register arrays — plus functional
# memory, whose inline page-memo path copies lanes straight into a
# page.
# CI's asan job runs the same filter.
if cmake -B build-asan -S . -DLAST_ASAN=ON &&
    cmake --build build-asan -j "$(nproc)" --target last_tests; then
    ./build-asan/tests/last_tests \
        --gtest_filter='FaultPlan.*:Watchdog.*:FaultSensitivity.*:MemoryGuards.*:IsaAgreement.*:SweepQuarantine.*:Logging.*:TornInputFuzz.*:Orchestrate.*:OrchestrateCampaign.*:ExecEngine.*:ServeProtocol.*:ServeCore.*:ServeQuarantine.*:Ptxl*:DivergenceSchemaV2.*:StressWorkloads.*:Ops/IlLaneTable.*:Ops/IlValueSweep.*:IlLaneSemantics.*:GoldenCache.*:Ops/Gcn3LaneTable.*:Ops/Gcn3ValuSweep.*:Cache.*:ProbeFastPaths.*:FunctionalMemory*' ||
        fail "ASan/UBSan suite"
else
    fail "ASan build"
fi

if [ "$status" -eq 0 ]; then
    echo "tier1: OK"
else
    echo "tier1: FAILED (see above)" >&2
fi
exit "$status"
