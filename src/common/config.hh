/**
 * @file
 * Simulation configuration; defaults reproduce Table 4 of the paper.
 */

#ifndef LAST_COMMON_CONFIG_HH
#define LAST_COMMON_CONFIG_HH

#include <chrono>
#include <cstdint>
#include <ostream>
#include <string>

namespace last
{

namespace sim
{
struct FaultPlan; // sim/faultinject.hh
}

namespace obs
{
class TraceSink; // obs/trace.hh
}

/** Which instruction-set abstraction a kernel executes at. */
enum class IsaKind
{
    HSAIL, ///< the SIMT intermediate language
    GCN3,  ///< the AMD-flavored machine ISA
    PTXL,  ///< the NVIDIA-flavored machine ISA (SASS-like)
};

const char *isaName(IsaKind isa);

/** Reverse of isaName, case-insensitive ("hsail" == "HSAIL"); returns
 *  false (out untouched) for unknown names. Shared by every reader
 *  that consumes an ISA tag so the accepted spellings never drift. */
bool isaFromName(const std::string &name, IsaKind &out);

/** All simulated ISAs, in canonical (report/cache) order. */
inline constexpr IsaKind AllIsas[] = {IsaKind::HSAIL, IsaKind::GCN3,
                                      IsaKind::PTXL};
inline constexpr unsigned NumIsas = 3;

/** Cache geometry + latency parameters. */
struct CacheConfig
{
    uint64_t sizeBytes;
    unsigned lineBytes;
    unsigned associativity; ///< 0 means fully associative
    unsigned hitLatency;    ///< cycles
    bool writeBack;         ///< false => write-through
    unsigned mshrs;         ///< outstanding distinct lines
};

/**
 * Table 4 system configuration.
 *
 * 8 CUs at 800 MHz, 4 SIMD units each, 40 WF slots (64 lanes),
 * oldest-job-first scheduling, 16 kB fully-associative L1D per CU,
 * 2,048-entry VRF + 800-entry SRF per CU, shared 32 kB 8-way I$ and
 * 512 kB 16-way write-through L2 per 4 CUs, 32-channel 500 MHz DDR3.
 */
struct GpuConfig
{
    unsigned numCus = 8;
    unsigned simdPerCu = 4;
    unsigned wfSlotsPerCu = 40;
    unsigned wavefrontSize = 64;
    unsigned simdWidth = 16;

    /// Physical vector registers per CU (each 64 lanes x 32 bit).
    unsigned vrfEntriesPerCu = 2048;
    /// Physical scalar registers per CU.
    unsigned srfEntriesPerCu = 800;
    /// VRF banks per SIMD; operands in the same bank conflict.
    unsigned vrfBanks = 4;
    /// Architectural limits per wavefront.
    unsigned maxVgprsPerWfGcn3 = 256;
    unsigned maxSgprsPerWfGcn3 = 102;
    unsigned maxVregsPerWfHsail = 2048;
    /// PTXL general registers per thread (SASS-like: one flat R file,
    /// no scalar registers; predicates are a separate 8-entry file).
    unsigned maxRegsPerWfPtxl = 256;

    /// LDS bytes per CU.
    uint64_t ldsBytesPerCu = 64 * 1024;

    /// Per-WF instruction buffer capacity, in decoded instructions.
    unsigned ibEntries = 12;
    /// Instructions brought in per fetch (one I$ line's worth).
    unsigned fetchWidth = 4;

    CacheConfig l1d = {16 * 1024, 64, 0, 4, true, 16};
    /// The paper's Table 4 lists a 32 kB I$, but the text twice calls
    /// it 16 kB (and LULESH's GCN3 footprint "significantly exceeds
    /// the L1 instruction cache size of 16KB"); we follow the text.
    CacheConfig l1i = {16 * 1024, 64, 8, 4, false, 8};
    CacheConfig scalarD = {16 * 1024, 64, 8, 4, false, 8};
    CacheConfig l2 = {512 * 1024, 64, 16, 24, false, 32};

    /// CUs sharing one L1I/scalar-D$/L2 cluster.
    unsigned cusPerCluster = 4;

    unsigned dramChannels = 32;
    unsigned dramLatency = 160;      ///< core cycles to first beat
    unsigned dramCyclesPerLine = 4;  ///< channel occupancy per 64 B line

    /// Functional-unit latencies (cycles of result availability).
    unsigned valuLatency = 4;   ///< plus the 4-cycle issue over 16 lanes
    unsigned valuLatencyF64 = 8;
    unsigned saluLatency = 1;
    unsigned branchLatency = 1;
    unsigned ldsLatency = 4;

    /// GPU core clock, for reporting only (cycles are the time unit).
    double clockGhz = 0.8;

    /// Deterministic-latency hazard window the finalizer must cover
    /// with independent instructions or s_nop (see DESIGN.md).
    unsigned valuHazardWindow = 2;

    /// Skip cycles where no CU can fetch, issue, or dispatch (e.g. the
    /// whole GPU is stalled on in-flight memory). Statistic-identical
    /// to full per-cycle ticking; disable to cross-check that.
    bool fastForwardIdle = true;

    /// Execute through the legacy virtual-dispatch engine
    /// (Instruction::execute) instead of the predecoded
    /// direct-threaded handlers. Bit-identical results either way —
    /// the differential suite (tests/test_exec_engine.cc) enforces it.
    /// Defaults from the LAST_EXEC_REFERENCE environment variable; see
    /// defaultExecReference().
    bool execReference = defaultExecReference();

    static bool defaultExecReference();

    /** @{ Forward-progress watchdog (see DESIGN.md §"Error model").
     * runToCompletion() throws a DeadlockError carrying a
     * per-wavefront state dump when either limit is exceeded. The
     * stall limit is the deadlock detector proper ("no instruction
     * fetched, issued, or dispatched anywhere on the GPU for N
     * cycles" — any legitimate stall resolves within a DRAM
     * round-trip, orders of magnitude sooner); the cycle budget is a
     * backstop against livelock. Both are fast-forward aware: idle
     * skips never jump past a watchdog deadline. 0 disables. */
    uint64_t watchdogStallCycles = 1000000;
    uint64_t watchdogMaxCycles = 2000000000ull;
    /** @} */

    /** Absolute wall-clock deadline for runToCompletion() (third
     *  watchdog dimension, for schedulers: `last_sweep run
     *  --timeout-ms` and the orchestrator's in-worker belt-and-braces
     *  limit). Checked every 4096 ticks so the steady_clock read never
     *  shows up in profiles; on expiry the run fails like any deadlock
     *  (DeadlockError -> quarantine row), keeping artifacts
     *  deterministic in *content shape* even though which runs time
     *  out is inherently wall-clock dependent. Default (epoch) =
     *  disabled. */
    std::chrono::steady_clock::time_point wallDeadline{};

    /** Deterministic fault-injection plan (not owned; nullptr = no
     *  faults). See sim/faultinject.hh. */
    const sim::FaultPlan *faultPlan = nullptr;

    /** Structured-trace sink (not owned; nullptr = tracing off). The
     *  model wires per-component streams into it at construction and
     *  records execute-path events; see obs/trace.hh. Observational
     *  only — never changes results or statistics. */
    obs::TraceSink *trace = nullptr;

    /** Human-readable one-line summary (printed by bench headers). */
    std::string summary() const;
};

std::ostream &operator<<(std::ostream &os, const GpuConfig &cfg);

} // namespace last

#endif // LAST_COMMON_CONFIG_HH
