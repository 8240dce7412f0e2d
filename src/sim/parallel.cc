#include "sim/parallel.hh"

#include <atomic>
#include <cstdlib>
#include <mutex>
#include <sstream>
#include <thread>

#include "common/error.hh"

namespace last::sim
{

unsigned
defaultJobs()
{
    if (const char *s = std::getenv("LAST_JOBS")) {
        long v = std::atol(s);
        if (v >= 1)
            return unsigned(v);
    }
    unsigned hw = std::thread::hardware_concurrency();
    return hw ? hw : 1;
}

namespace
{

/**
 * One worker's task deque. The owner pops from the head (executing its
 * initial chunk in input order); thieves take the back half, the work
 * the owner would reach last. Tasks here are whole simulations
 * (milliseconds to seconds), so a plain mutex per deque costs nothing
 * measurable and keeps the scheduler trivially TSan-clean — the
 * lock-free Chase-Lev structure would buy latency this workload cannot
 * observe.
 */
struct StealDeque
{
    std::mutex m;
    std::vector<size_t> buf; ///< live range is [head, buf.size())
    size_t head = 0;

    bool
    pop(size_t &out)
    {
        std::lock_guard<std::mutex> lk(m);
        if (head >= buf.size())
            return false;
        out = buf[head++];
        return true;
    }

    /** Move the back half (ceil) of the live range into `into`;
     *  @return number of tasks stolen (0 = nothing to steal). */
    size_t
    stealHalfInto(std::vector<size_t> &into)
    {
        std::lock_guard<std::mutex> lk(m);
        size_t avail = buf.size() - head;
        if (avail == 0)
            return 0;
        size_t take = (avail + 1) / 2;
        into.insert(into.end(), buf.end() - std::ptrdiff_t(take),
                    buf.end());
        buf.resize(buf.size() - take);
        return take;
    }
};

/** Static contiguous partition: worker w owns [lo, hi). */
void
staticChunk(size_t n, unsigned jobs, unsigned w, size_t &lo, size_t &hi)
{
    lo = n * w / jobs;
    hi = n * (w + 1) / jobs;
}

} // namespace

std::vector<std::exception_ptr>
parallelInvokeCollect(const std::vector<std::function<void()>> &tasks,
                      unsigned jobs, PoolStats *stats)
{
    const size_t n = tasks.size();
    if (jobs == 0)
        jobs = defaultJobs();
    if (jobs > n)
        jobs = unsigned(n);
    if (stats)
        *stats = PoolStats{};

    // Per-task capture slots: each index is written by exactly one
    // worker (the one that claimed it), so no lock is needed. The
    // steal schedule decides only *which worker* runs a task, never
    // which slot its result or error lands in — that is the whole
    // determinism argument for input-order result collection.
    std::vector<std::exception_ptr> errors(n);
    auto runTask = [&](size_t i) {
        try {
            tasks[i]();
        } catch (...) {
            errors[i] = std::current_exception();
        }
    };

    if (jobs <= 1) {
        for (size_t i = 0; i < n; ++i)
            runTask(i);
        return errors;
    }

    // Seed each worker's deque with its static chunk (input order, so
    // an undisturbed worker executes exactly the serial schedule), then
    // let exhausted workers steal half of a victim's remaining work.
    std::vector<StealDeque> deques(jobs);
    for (unsigned w = 0; w < jobs; ++w) {
        size_t lo, hi;
        staticChunk(n, jobs, w, lo, hi);
        deques[w].buf.reserve(hi - lo);
        for (size_t i = lo; i < hi; ++i)
            deques[w].buf.push_back(i);
    }

    std::atomic<size_t> pending{n};
    std::atomic<uint64_t> steals{0}, stolenTasks{0};

    auto worker = [&](unsigned self) {
        std::vector<size_t> loot; // scratch for stolen batches
        while (pending.load(std::memory_order_acquire) > 0) {
            size_t i;
            if (deques[self].pop(i)) {
                runTask(i);
                pending.fetch_sub(1, std::memory_order_release);
                continue;
            }
            // Local deque dry: rob the victims, nearest index first.
            bool got = false;
            for (unsigned k = 1; k < jobs && !got; ++k) {
                unsigned victim = (self + k) % jobs;
                loot.clear();
                size_t taken = deques[victim].stealHalfInto(loot);
                if (!taken)
                    continue;
                steals.fetch_add(1, std::memory_order_relaxed);
                stolenTasks.fetch_add(taken,
                                      std::memory_order_relaxed);
                // The loot (the back of the victim's range, ascending)
                // refills our deque; the next pop takes its lowest
                // index first, preserving as much of the input order
                // as stealing allows.
                std::lock_guard<std::mutex> lk(deques[self].m);
                for (size_t j = 0; j < taken; ++j)
                    deques[self].buf.push_back(loot[j]);
                got = true;
            }
            if (!got) {
                // Nothing to steal anywhere, but tasks may still be in
                // flight on other workers (pending > 0): yield rather
                // than spin hot until they finish or release work.
                std::this_thread::yield();
            }
        }
    };

    std::vector<std::thread> pool;
    pool.reserve(jobs);
    for (unsigned t = 0; t < jobs; ++t)
        pool.emplace_back(worker, t);
    for (auto &th : pool)
        th.join();

    if (stats) {
        stats->steals = steals.load();
        stats->stolenTasks = stolenTasks.load();
    }
    return errors;
}

void
parallelInvoke(const std::vector<std::function<void()>> &tasks,
               unsigned jobs)
{
    for (const auto &e : parallelInvokeCollect(tasks, jobs))
        if (e)
            std::rethrow_exception(e);
}

std::vector<AppResult>
runMany(const std::vector<RunSpec> &specs, unsigned jobs)
{
    std::vector<AppResult> out(specs.size());
    std::vector<std::function<void()>> tasks;
    tasks.reserve(specs.size());
    for (size_t i = 0; i < specs.size(); ++i)
        tasks.push_back([&specs, &out, i] {
            const RunSpec &s = specs[i];
            out[i] = runApp(s.workload, s.isa, s.cfg, s.scale);
        });
    parallelInvoke(tasks, jobs);
    return out;
}

namespace
{

/** Classify a captured exception for the quarantine record. */
void
describeError(const std::exception_ptr &e, std::string &kind,
              std::string &message, std::string &detail)
{
    try {
        std::rethrow_exception(e);
    } catch (const DeadlockError &d) {
        kind = d.kindName();
        message = d.message();
        detail = d.dump();
    } catch (const SimError &s) {
        kind = s.kindName();
        message = s.message();
    } catch (const std::exception &x) {
        kind = "exception";
        message = x.what();
    } catch (...) {
        kind = "unknown";
        message = "non-standard exception";
    }
}

} // namespace

std::string
QuarantinedRun::format() const
{
    std::ostringstream os;
    os << "  [" << index << "] " << spec.workload << "/"
       << isaName(spec.isa) << ": " << errorKind << ": " << errorMessage;
    if (retried)
        os << "\n      (failed again on the serial retry)";
    return os.str();
}

std::string
SweepReport::format() const
{
    if (allOk())
        return "";
    std::ostringstream os;
    os << quarantined.size() << " of " << results.size()
       << " sweep entries quarantined";
    if (recoveredOnRetry)
        os << " (" << recoveredOnRetry
           << " more failed in parallel but passed the serial retry)";
    os << ":\n";
    for (const auto &q : quarantined)
        os << q.format() << "\n";
    return os.str();
}

SweepReport
runSweep(const std::vector<RunSpec> &specs, const SweepOptions &opts)
{
    SweepReport report;
    report.results.resize(specs.size());

    std::vector<std::function<void()>> tasks;
    tasks.reserve(specs.size());
    for (size_t i = 0; i < specs.size(); ++i)
        tasks.push_back([&specs, &report, i] {
            const RunSpec &s = specs[i];
            report.results[i] = runApp(s.workload, s.isa, s.cfg, s.scale);
        });

    auto errors = parallelInvokeCollect(tasks, opts.jobs);

    for (size_t i = 0; i < specs.size(); ++i) {
        if (!errors[i])
            continue;
        bool retried = false;
        if (opts.retryFailed) {
            // One clean serial retry: scheduling-dependent or
            // load-dependent failures (the machine ran out of memory
            // under N concurrent GPUs) may pass on a quiet retry.
            retried = true;
            try {
                const RunSpec &s = specs[i];
                report.results[i] =
                    runApp(s.workload, s.isa, s.cfg, s.scale);
                errors[i] = nullptr;
                ++report.recoveredOnRetry;
                continue;
            } catch (...) {
                errors[i] = std::current_exception();
            }
        }
        QuarantinedRun q;
        q.index = i;
        q.spec = specs[i];
        q.retried = retried;
        describeError(errors[i], q.errorKind, q.errorMessage, q.detail);

        // The quarantined slot keeps its spec identity so downstream
        // consumers can tell *what* is missing, but no statistics.
        AppResult &r = report.results[i];
        r = AppResult{};
        r.workload = specs[i].workload;
        r.isa = specs[i].isa;
        r.quarantined = true;
        r.errorKind = q.errorKind;
        r.errorMessage = q.errorMessage;

        report.quarantined.push_back(std::move(q));
    }
    return report;
}

} // namespace last::sim
