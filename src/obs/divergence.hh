/**
 * @file
 * Cross-ISA divergence reports: the paper's headline artifact, as code.
 *
 * The paper's contribution is a quantified comparison of statistics
 * between the HSAIL (intermediate-language) and GCN3 (machine-ISA)
 * abstraction levels: some statistics survive the abstraction
 * ("similar"), others are badly distorted ("divergent"). This module
 * generalizes that to an N×N matrix over every simulated ISA — with
 * the PTXL (NVIDIA-flavored) backend it answers a question the source
 * paper could not: do the IL-level pitfalls persist, shrink, or invert
 * on a second, differently-shaped machine level? Each report runs one
 * workload at every level (via the runShard sweep path), checks that
 * the levels agree functionally, computes the relative delta of every
 * per-figure statistic for every ISA pair, ranks the statistics by
 * their worst pairwise delta, and classifies each pair against a
 * threshold — reproducing the accurate-vs-inaccurate classification
 * of Table 7 / Figures 5–12 automatically, per vendor. Ranking rules
 * are documented in DESIGN.md §5; scripts/report_divergence.sh is the
 * CLI front-end.
 *
 * The HSAIL↔GCN3 pair of a v2 report carries exactly the values the
 * v1 (two-ISA) report carried: adding a column must never perturb the
 * columns the paper studied.
 */

#ifndef LAST_OBS_DIVERGENCE_HH
#define LAST_OBS_DIVERGENCE_HH

#include <ostream>
#include <string>
#include <vector>

#include "sim/parallel.hh"

namespace last::obs
{

/** Stats whose relative delta exceeds this are classified divergent
 *  (10%: well below every paper-divergent effect, comfortably above
 *  the noise on paper-similar ones). */
constexpr double DefaultDivergenceThreshold = 0.10;

/** One ordered ISA pair of one statistic: the (a, b) cell of the
 *  matrix. Pairs are emitted for a before b in AllIsas order, so the
 *  full matrix is the upper triangle (the lower is its mirror). */
struct DivergencePair
{
    IsaKind a = IsaKind::HSAIL;
    IsaKind b = IsaKind::GCN3;
    double va = 0;           ///< the statistic measured at `a`
    double vb = 0;           ///< the statistic measured at `b`
    double relDelta = 0;     ///< |vb - va| / max(|va|, |vb|); 0 if both 0
    bool divergent = false;  ///< relDelta > threshold
    /** Which side measured more: "<" (b higher), ">" (a higher), or
     *  "=". The golden stress signatures pin these, so an inversion
     *  (e.g. the IL overcounting vs GCN3 but undercounting vs PTXL)
     *  is a first-class, diffable observation. */
    std::string direction() const
    {
        return va < vb ? "<" : va > vb ? ">" : "=";
    }
    /** The paper's published classification for this pair, or "" where
     *  it takes no position (every pair involving PTXL: the paper
     *  only studied HSAIL against GCN3). */
    std::string paperExpectation;
};

/** One statistic compared across every simulated abstraction level. */
struct DivergenceEntry
{
    std::string stat;        ///< AppResult field name, e.g. "dynInsts"
    std::string figure;      ///< paper anchor, e.g. "Figure 5"

    /** Per-ISA measured values, parallel to the report's `isas`. */
    std::vector<double> values;
    /** All unordered ISA pairs, upper-triangle order over `isas`. */
    std::vector<DivergencePair> pairs;
    /** Ranking key: the worst pairwise relDelta. A report covering
     *  only HSAIL and GCN3 has one pair, so it ranks exactly as v1
     *  did. */
    double maxRelDelta = 0;

    /** The (a, b) cell in either order, e.g. findPair(HSAIL, GCN3) for
     *  the comparison the paper studied; nullptr if not covered. */
    const DivergencePair *findPair(IsaKind a, IsaKind b) const;
};

/** Ranked cross-ISA comparison of one workload. */
struct DivergenceReport
{
    std::string workload;
    double scale = 1.0;
    double threshold = DefaultDivergenceThreshold;

    /** The compared abstraction levels, in AllIsas (report) order.
     *  Entry `values` and the pair triangle follow this order. */
    std::vector<IsaKind> isas;

    /** The differential run itself failed (e.g. one level was
     *  quarantined by runSweep); entries is empty and error says why. */
    bool failed = false;
    std::string error;

    /** Entries ranked by descending maxRelDelta (ties: input order,
     *  which follows the figure numbering). */
    std::vector<DivergenceEntry> entries;

    const DivergenceEntry *find(const std::string &stat) const;
    unsigned numDivergent() const;
};

/** |b - a| scaled by the larger magnitude; 0 when both are 0, so
 *  legitimately-zero stats (e.g. hazardViolations) never rank. */
double relDelta(double a, double b);

/**
 * Expected classification ("divergent", "similar", or "" for no
 * position) of `stat` when measured under `workload`, for the ISA pair
 * (a, b). Per-workload overrides — the stress workloads beyond Table 5
 * have their own golden signatures — take precedence over the paper's
 * per-figure default from the Table 5 geomean. The paper's tables only
 * cover HSAIL↔GCN3, the default pair, so any pair involving PTXL
 * answers "" (no position) — those cells are the new result, not a
 * reproduction.
 */
std::string expectedDivergence(const std::string &workload,
                               const std::string &stat,
                               IsaKind a = IsaKind::HSAIL,
                               IsaKind b = IsaKind::GCN3);

/**
 * Build a report from already-run results, one per ISA. `results[i]`
 * was measured at `isas[i]`; the vectors must be the same length and
 * hold at least two levels. The report degrades to failed, with no
 * entries, when a result is quarantined (the first quarantined
 * level's error wins) or when the levels disagree functionally
 * (sim::checkAgreement; error `isa-mismatch: <what>`).
 */
DivergenceReport divergenceReport(
    const std::vector<const sim::AppResult *> &results,
    const std::vector<IsaKind> &isas,
    double threshold = DefaultDivergenceThreshold);

/**
 * Reports for many workloads at one scale on the Table 4 machine:
 * every level of every distinct workload runs as one sim::runShard
 * (work-stealing sweep, quarantine, serial retry) and
 * sim::divergenceFromCache builds the reports, the path `last_sweep`
 * and `last_serve` take too. One report per argument, in argument
 * order; a quarantined or disagreeing workload fails only its own
 * report, never the batch.
 */
std::vector<DivergenceReport> divergenceReports(
    const std::vector<std::string> &workloads,
    const workloads::WorkloadScale &scale = {},
    double threshold = DefaultDivergenceThreshold, unsigned jobs = 0);

/** `last-divergence-v2` JSON (one report). */
void writeDivergenceJson(std::ostream &os, const DivergenceReport &r);

/** JSON array of reports — the batch format `last_obs diverge --json`
 *  and the `last_sweep` partial/merged reports share, so shard
 *  equivalence can be checked with a byte diff. */
void writeDivergenceJsonArray(std::ostream &os,
                              const std::vector<DivergenceReport> &rs);

/** @{
 * Strict readers for the divergence artifact: parse one report (or
 * the CLI's array form) back into structs. Both `last-divergence-v2`
 * and legacy `last-divergence-v1` payloads are accepted — a v1 file
 * reads back as a two-level {HSAIL, GCN3} report. Any other schema
 * id, malformed JSON, or torn input throws ConfigError naming
 * `source` and the byte offset (json_in's contract); there is no
 * partial success.
 */
DivergenceReport readDivergenceJson(const std::string &text,
                                    const std::string &source);
std::vector<DivergenceReport>
readDivergenceJsonArray(const std::string &text,
                        const std::string &source);
/** @} */

/** Human-readable ranked table (what report_divergence.sh prints). */
void writeDivergenceText(std::ostream &os, const DivergenceReport &r);

} // namespace last::obs

namespace last::sim
{
/** The reporter lives in obs/ (it layers on top of sim's differential
 *  harness) but is part of sim's public surface by design. */
using obs::DivergenceEntry;
using obs::DivergencePair;
using obs::DivergenceReport;
using obs::divergenceReport;
using obs::divergenceReports;
} // namespace last::sim

#endif // LAST_OBS_DIVERGENCE_HH
