/**
 * @file
 * Parallel experiment driver: a fixed-size worker pool for running
 * independent simulations concurrently.
 *
 * Every simulation owns its Runtime, Gpu, and FunctionalMemory and
 * shares no mutable state with its siblings (no globals, no lazy
 * static tables, per-workload Rng instances), so a (workload x ISA x
 * config) sweep is embarrassingly parallel. The driver preserves the
 * serial contract exactly:
 *  - results come back in input order, bit-identical to a serial run
 *    regardless of worker count or scheduling;
 *  - a worker exception is captured and rethrown to the caller (the
 *    lowest-index one, matching what a serial loop would have thrown
 *    first) after all workers have drained — never a hang.
 *
 * Worker count defaults to std::thread::hardware_concurrency() and is
 * overridable with the LAST_JOBS environment variable (LAST_JOBS=1
 * runs inline on the calling thread).
 */

#ifndef LAST_SIM_PARALLEL_HH
#define LAST_SIM_PARALLEL_HH

#include <cstdint>
#include <exception>
#include <functional>
#include <string>
#include <vector>

#include "sim/experiment.hh"

namespace last::sim
{

/** One simulation request for the parallel driver. */
struct RunSpec
{
    std::string workload;
    IsaKind isa = IsaKind::HSAIL;
    GpuConfig cfg{};
    workloads::WorkloadScale scale{};
};

/** Worker-pool size: LAST_JOBS if set (clamped to >= 1), else
 *  hardware_concurrency(), else 1. */
unsigned defaultJobs();

/** Scheduler counters from one parallelInvoke(Collect) call — how much
 *  load-balancing the work-stealing pool actually did. Observational
 *  only: the numbers depend on OS scheduling, never the results. */
struct PoolStats
{
    uint64_t steals = 0;      ///< successful steal transactions
    uint64_t stolenTasks = 0; ///< tasks migrated by those steals
};

/**
 * Run every task on a fixed-size work-stealing worker pool (jobs == 0
 * means defaultJobs()). Each worker starts with a contiguous chunk of
 * the task vector in its local deque and executes it in input order;
 * when a worker's deque runs dry it steals the back half of a victim's
 * remaining tasks (steal-half, scanning victims round-robin from its
 * own index). Long tasks therefore cannot strand the batch on one
 * worker the way static chunking or even a shared claim cursor can
 * (the cursor balances task *counts*, stealing balances *remaining
 * work*). After all workers join, the exception from the lowest-index
 * failed task (if any) is rethrown.
 */
void parallelInvoke(const std::vector<std::function<void()>> &tasks,
                    unsigned jobs = 0);

/**
 * Like parallelInvoke, but graceful: instead of rethrowing, return a
 * vector with slot i holding the exception task i threw (null when it
 * succeeded). Never throws itself — one poisoned task cannot take the
 * rest of the batch down. runSweep builds its quarantine on this.
 * @param stats optional out-param receiving scheduler counters.
 */
std::vector<std::exception_ptr>
parallelInvokeCollect(const std::vector<std::function<void()>> &tasks,
                      unsigned jobs = 0, PoolStats *stats = nullptr);

/** Run every spec concurrently; results in input (spec) order.
 *  Fail-fast contract: the first (lowest-index) worker exception is
 *  rethrown after all workers drain. Use runSweep for the graceful,
 *  quarantining variant. */
std::vector<AppResult> runMany(const std::vector<RunSpec> &specs,
                               unsigned jobs = 0);

/** A sweep entry whose simulation threw — in the parallel pass and
 *  again (when retry is enabled) in a clean serial retry. */
struct QuarantinedRun
{
    size_t index = 0; ///< position in the input spec vector
    RunSpec spec;
    std::string errorKind;    ///< SimError kindName(), or "exception"
    std::string errorMessage; ///< what() of the final failure
    std::string detail;       ///< DeadlockError wavefront dump, if any
    bool retried = false;     ///< a serial retry ran (and also failed)

    /** One-paragraph human-readable record (detail included). */
    std::string format() const;
};

struct SweepOptions
{
    unsigned jobs = 0;       ///< 0 = defaultJobs()
    bool retryFailed = true; ///< retry each failure once, serially
};

/** What runSweep hands back: full results plus the casualty list. */
struct SweepReport
{
    /** One entry per input spec, input order. Quarantined entries have
     *  r.quarantined set and carry no statistics. */
    std::vector<AppResult> results;
    std::vector<QuarantinedRun> quarantined; ///< ascending index order
    unsigned recoveredOnRetry = 0; ///< failed parallel, passed serial

    bool allOk() const { return quarantined.empty(); }
    /** Multi-line end-of-sweep summary (empty string when allOk()). */
    std::string format() const;
};

/**
 * Graceful-degradation sweep: run every spec like runMany, but capture
 * per-spec failures instead of failing the sweep. Each failed spec is
 * retried once serially (a transient — OOM under parallel load, a
 * scheduling-dependent bug — may pass on a quiet machine); specs that
 * fail the retry too come back as quarantined AppResults with the
 * error attached, while every healthy spec's results are identical to
 * what a fault-free serial run would have produced.
 */
SweepReport runSweep(const std::vector<RunSpec> &specs,
                     const SweepOptions &opts = {});

} // namespace last::sim

#endif // LAST_SIM_PARALLEL_HH
