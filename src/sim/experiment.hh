/**
 * @file
 * The experiment harness: run one (workload x ISA) configuration and
 * collect every statistic the paper's tables and figures need.
 */

#ifndef LAST_SIM_EXPERIMENT_HH
#define LAST_SIM_EXPERIMENT_HH

#include <functional>
#include <string>
#include <vector>

#include "common/config.hh"
#include "common/error.hh"
#include "runtime/runtime.hh"
#include "workloads/workload.hh"

namespace last::sim
{

struct AppResult
{
    std::string workload;
    IsaKind isa = IsaKind::HSAIL;
    bool verified = false;
    uint64_t digest = 0;

    /** @{ Quarantine marker: set by runSweep when this spec's
     *  simulation threw (and the serial retry also failed). A
     *  quarantined result carries no statistics — only the spec
     *  identity and the error that killed it — and must never be
     *  persisted to a results cache. */
    bool quarantined = false;
    std::string errorKind;    ///< SimError kindName(), or "exception"
    std::string errorMessage; ///< what() of the captured error
    /** @} */

    /** @{ Figure 5: dynamic instruction counts by class. */
    uint64_t dynInsts = 0;
    uint64_t valu = 0;
    uint64_t salu = 0;
    uint64_t vmem = 0;
    uint64_t smem = 0;
    uint64_t lds = 0;
    uint64_t branch = 0;
    uint64_t waitcnt = 0;
    uint64_t misc = 0;
    /** @} */

    uint64_t cycles = 0;   ///< total GPU cycles across all dispatches
    double ipc = 0;        ///< Figure 11

    uint64_t vrfBankConflicts = 0; ///< Figure 6
    double reuseMedian = 0;        ///< Figure 7
    uint64_t instFootprint = 0;    ///< Figure 8 (bytes)
    uint64_t ibFlushes = 0;        ///< Figure 9
    double readUniq = 0;           ///< Figure 10
    double writeUniq = 0;
    double vrfUniq = 0;            ///< combined reads+writes

    uint64_t dataFootprint = 0; ///< Table 6 (bytes)
    double simdUtil = 0;        ///< Table 6

    uint64_t l1iMisses = 0;
    uint64_t l1iHits = 0;
    uint64_t hazardViolations = 0;
    uint64_t scoreboardStalls = 0;
    uint64_t waitcntStalls = 0;
    uint64_t ibEmptyStalls = 0;
    uint64_t fuConflictStalls = 0;
    uint64_t coalescedLines = 0;
    uint64_t busyCycles = 0;

    std::vector<runtime::LaunchRecord> launches;
};

/** How a statistic is stored (and so written to the bench cache). */
enum class StatKind
{
    U64,
    F64,
    Bool,
};

/**
 * One AppResult statistic: its name (the bench-cache column and the
 * divergence-report `stat`), its kind, its member, and the per-CU
 * counter runApp sums into it (nullptr when it is derived otherwise).
 * The constructor taking the member sets the kind, and exactly the
 * member pointer matching it.
 */
struct StatField
{
    constexpr StatField(const char *n, uint64_t AppResult::*m,
                        const char *cu = nullptr)
        : name(n), kind(StatKind::U64), u64(m), cuStat(cu)
    {}
    constexpr StatField(const char *n, double AppResult::*m)
        : name(n), kind(StatKind::F64), f64(m)
    {}
    constexpr StatField(const char *n, bool AppResult::*m)
        : name(n), kind(StatKind::Bool), flag(m)
    {}

    const char *name;
    StatKind kind;
    uint64_t AppResult::*u64 = nullptr;
    double AppResult::*f64 = nullptr;
    bool AppResult::*flag = nullptr;
    const char *cuStat = nullptr;
};

/**
 * Every AppResult statistic, in bench-cache column order (that order
 * is part of the cache bytes). runApp's CU sums, the cache writer and
 * strict reader, the divergence metrics and the tests' equality check
 * all walk this table, so adding or correcting a statistic is a
 * one-row edit here.
 */
inline constexpr StatField kStatFields[] = {
    {"verified", &AppResult::verified},
    {"digest", &AppResult::digest},
    {"dynInsts", &AppResult::dynInsts, "dynInsts"},
    {"valu", &AppResult::valu, "valuInsts"},
    {"salu", &AppResult::salu, "saluInsts"},
    {"vmem", &AppResult::vmem, "vmemInsts"},
    {"smem", &AppResult::smem, "smemInsts"},
    {"lds", &AppResult::lds, "ldsInsts"},
    {"branch", &AppResult::branch, "branchInsts"},
    {"waitcnt", &AppResult::waitcnt, "waitcntInsts"},
    {"misc", &AppResult::misc, "miscInsts"},
    {"cycles", &AppResult::cycles},
    {"ipc", &AppResult::ipc},
    {"vrfBankConflicts", &AppResult::vrfBankConflicts, "vrfBankConflicts"},
    {"reuseMedian", &AppResult::reuseMedian},
    {"instFootprint", &AppResult::instFootprint},
    {"ibFlushes", &AppResult::ibFlushes, "ibFlushes"},
    {"readUniq", &AppResult::readUniq},
    {"writeUniq", &AppResult::writeUniq},
    {"vrfUniq", &AppResult::vrfUniq},
    {"dataFootprint", &AppResult::dataFootprint},
    {"simdUtil", &AppResult::simdUtil},
    {"l1iMisses", &AppResult::l1iMisses},
    {"l1iHits", &AppResult::l1iHits},
    {"hazardViolations", &AppResult::hazardViolations, "hazardViolations"},
    {"scoreboardStalls", &AppResult::scoreboardStalls, "scoreboardStalls"},
    {"waitcntStalls", &AppResult::waitcntStalls, "waitcntStalls"},
    {"ibEmptyStalls", &AppResult::ibEmptyStalls, "ibEmptyStalls"},
    {"fuConflictStalls", &AppResult::fuConflictStalls, "fuConflictStalls"},
    {"coalescedLines", &AppResult::coalescedLines, "coalescedLines"},
    {"busyCycles", &AppResult::busyCycles, "busyCycles"},
};

/** Call `fn` with field `f` of each of `rs` (uint64_t, double or bool
 *  lvalues, const if the results are), returning what `fn` returns. */
template <class Fn, class... Results>
decltype(auto)
visitStat(const StatField &f, Fn &&fn, Results &...rs)
{
    if (f.kind == StatKind::U64)
        return fn(rs.*f.u64...);
    if (f.kind == StatKind::F64)
        return fn(rs.*f.f64...);
    return fn(rs.*f.flag...);
}

/** Observability hook: called with the live Runtime after a runApp
 *  simulation completes (stats collected, process still alive). Used
 *  by the obs/ exporters to dump the full stats tree — AppResult only
 *  carries the per-figure aggregates. */
using RuntimeInspector = std::function<void(runtime::Runtime &)>;

/** Run a workload at one ISA level on a fresh simulated process.
 *  @param inspect optional hook run just before the Runtime is torn
 *  down (see RuntimeInspector); must not mutate simulation state. */
AppResult runApp(const std::string &workload, IsaKind isa,
                 const GpuConfig &cfg = GpuConfig{},
                 const workloads::WorkloadScale &scale = {},
                 const RuntimeInspector &inspect = {});

/**
 * Structured record of the first cross-ISA disagreement between two
 * runs of the same workload at different abstraction levels. The
 * simulator's core differential invariant is that functional results
 * are abstraction-invariant: every level must verify alike and must
 * produce byte-identical output digests (only timing and
 * microarchitecture statistics may differ). This pinpoints the first
 * field that broke that invariant, and at which two levels, rather
 * than leaving the user to diff 30 statistics by hand.
 */
struct MismatchReport
{
    /** One side of the disagreement: a level and its value there. */
    struct Side
    {
        IsaKind isa = IsaKind::HSAIL;
        std::string value;
    };

    std::string workload;
    std::string field;     ///< first diverging field, e.g. "digest"
    int launchIndex = -1;  ///< launch-level divergence (-1 = app-level)
    Side a;                ///< the reference (first) level
    Side b;                ///< the level that disagrees with it

    std::string format() const;
};

/** Cross-ISA result disagreement (the differential invariant broke). */
class IsaMismatchError : public SimError
{
  public:
    explicit IsaMismatchError(MismatchReport report);

    const MismatchReport &report() const { return report_; }

  private:
    MismatchReport report_;
};

/**
 * Compare the functional-result fields of runs of one workload at any
 * number of levels, each against the first: same workload, same
 * verified flag, equal digests, same launch count, same per-launch
 * kernel sequence. Each run's own `isa` names its side of a mismatch.
 * @throws IsaMismatchError naming the first divergence.
 * Timing fields are deliberately not compared — they legitimately
 * differ between abstraction levels (that is the paper's point).
 */
void checkAgreement(const std::vector<const AppResult *> &levels);

} // namespace last::sim

#endif // LAST_SIM_EXPERIMENT_HH
