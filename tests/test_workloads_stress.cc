/**
 * @file
 * Differential tests for the stress workloads beyond Table 5
 * (atomicred, ldsswizzle, bfsgraph, pipeline). Per workload x scale x
 * seed they pin down:
 *  - functional cross-ISA agreement at all three abstraction levels
 *    (HSAIL, GCN3, PTXL — runMany / runApp / checkAgreement);
 *  - the golden DIRECTION of every divergence metric against the
 *    per-workload expectation table (obs::expectedDivergence) — e.g.
 *    bfsgraph must diverge on IB flushes well past the threshold while
 *    ldsswizzle diverges on bank conflicts with simdUtil similar;
 *  - the golden N×N direction signatures of the cross-vendor matrix:
 *    which cells of the triangle diverge, and which side measures
 *    more, for the machine-shape stats (scalar pipe, encoding size,
 *    I-cache pressure, VRF banking) on every stress workload;
 *  - determinism across LAST_JOBS settings and artifact-cache on/off;
 *  - the artifact-cache key fix: ldsswizzle's stride/padding knobs are
 *    part of the key, so parameter variants never alias;
 *  - the bfsgraph reconvergence-stack property: the HSAIL RS-depth
 *    histogram is non-degenerate (nested divergence actually nests)
 *    while both machine ISAs retire the identical lane-visible results
 *    with zero hazard violations and never touch the RS.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "finalizer/finalizer.hh"
#include "finalizer/regalloc.hh"
#include "helpers.hh"
#include "hsail/builder.hh"
#include "obs/divergence.hh"
#include "sim/artifact_cache.hh"
#include "sim/experiment.hh"
#include "sim/parallel.hh"
#include "workloads/workload.hh"

using namespace last;

namespace
{

const std::vector<std::string> &
stressNames()
{
    static const std::vector<std::string> names =
        workloads::stressWorkloadNames();
    return names;
}

/** The matrix every stress assertion runs over. Seed 0 selects each
 *  workload's built-in default; the others perturb the input data
 *  (and, for bfsgraph, the graph shape) without touching the IL. */
constexpr double kScales[] = {0.25, 0.5};
constexpr uint64_t kSeeds[] = {0, 0x5EEDFACEull, 7};

workloads::WorkloadScale
at(double factor, uint64_t seed = 0)
{
    workloads::WorkloadScale s{factor};
    s.seed = seed;
    return s;
}

/** Both runs verified, and only the execution harness (jobs, cache)
 *  changed, so every field agrees. */
void
expectVerifiedAndSame(const sim::AppResult &a, const sim::AppResult &b)
{
    EXPECT_TRUE(a.verified);
    EXPECT_TRUE(b.verified);
    test::expectSameResult(a, b);
}

} // namespace

// ---------------------------------------------------------------------
// (a) Functional cross-ISA agreement across the full matrix.
// ---------------------------------------------------------------------

TEST(StressWorkloads, CrossIsaAgreementAcrossScalesAndSeeds)
{
    for (const std::string &w : stressNames()) {
        for (double scale : kScales) {
            for (uint64_t seed : kSeeds) {
                SCOPED_TRACE(w + " scale " + std::to_string(scale) +
                             " seed " + std::to_string(seed));
                const auto s = at(scale, seed);
                auto rs = sim::runMany({{w, IsaKind::HSAIL, {}, s},
                                        {w, IsaKind::GCN3, {}, s},
                                        {w, IsaKind::PTXL, {}, s}});
                const sim::AppResult &hsail = rs[0], &gcn3 = rs[1],
                                     &ptxl = rs[2];
                // Throws IsaMismatchError (failing the test) if the
                // abstraction levels disagree functionally.
                sim::checkAgreement({&hsail, &gcn3, &ptxl});
                EXPECT_TRUE(hsail.verified);
                EXPECT_TRUE(gcn3.verified);
                EXPECT_EQ(hsail.digest, gcn3.digest);
                EXPECT_EQ(gcn3.hazardViolations, 0u)
                    << "finalized code read a not-yet-ready register";
                EXPECT_TRUE(ptxl.verified);
                EXPECT_EQ(hsail.digest, ptxl.digest);
                EXPECT_EQ(ptxl.hazardViolations, 0u)
                    << "PTXL scoreboard let a not-ready register by";
            }
        }
    }
}

// ---------------------------------------------------------------------
// (b) Golden divergence directions.
// ---------------------------------------------------------------------

TEST(StressWorkloads, GoldenDivergenceDirections)
{
    const size_t numPairs = NumIsas * (NumIsas - 1) / 2;
    for (const std::string &w : stressNames()) {
        for (double scale : kScales) {
            SCOPED_TRACE(w + " scale " + std::to_string(scale));
            obs::DivergenceReport r =
                obs::divergenceReports({w}, at(scale))[0];
            ASSERT_FALSE(r.failed) << r.error;
            ASSERT_EQ(r.entries.size(), 17u);
            ASSERT_EQ(r.isas.size(), NumIsas);
            for (unsigned k = 0; k < NumIsas; ++k)
                EXPECT_EQ(r.isas[k], AllIsas[k]);
            for (const obs::DivergenceEntry &e : r.entries) {
                // The full pair triangle is present and the
                // HSAIL<->GCN3 cell carries those levels' values.
                ASSERT_EQ(e.values.size(), NumIsas) << e.stat;
                ASSERT_EQ(e.pairs.size(), numPairs) << e.stat;
                const obs::DivergencePair *hg =
                    e.findPair(IsaKind::HSAIL, IsaKind::GCN3);
                ASSERT_NE(hg, nullptr) << e.stat;
                EXPECT_EQ(hg->va, e.values[0]);
                EXPECT_EQ(hg->vb, e.values[1]);
                double worst = 0;
                for (const obs::DivergencePair &p : e.pairs) {
                    worst = std::max(worst, p.relDelta);
                    // The paper takes no position on PTXL cells.
                    if (p.a == IsaKind::PTXL || p.b == IsaKind::PTXL) {
                        EXPECT_EQ(p.paperExpectation, "") << e.stat;
                    }
                }
                EXPECT_EQ(e.maxRelDelta, worst) << e.stat;

                std::string expect = obs::expectedDivergence(w, e.stat);
                EXPECT_EQ(hg->paperExpectation, expect);
                if (expect.empty())
                    continue; // no position (near-threshold)
                EXPECT_EQ(hg->divergent, expect == "divergent")
                    << e.stat << ": hsail=" << hg->va
                    << " gcn3=" << hg->vb << " delta=" << hg->relDelta;
            }
            // Ranking follows the worst pairwise delta.
            for (size_t i = 1; i < r.entries.size(); ++i)
                EXPECT_GE(r.entries[i - 1].maxRelDelta,
                          r.entries[i].maxRelDelta);
        }
    }
}

TEST(StressWorkloads, GoldenNxNDirectionSignatures)
{
    // The new-result cells of the matrix: per stress workload, which
    // machine-shape statistics diverge in which DIRECTION for each
    // vendor pair. These are golden values — a change here is a
    // finding, not noise.
    auto pinned = [](const obs::DivergenceReport &r,
                     const std::string &stat, IsaKind a, IsaKind b)
        -> const obs::DivergencePair * {
        const obs::DivergenceEntry *e = r.find(stat);
        EXPECT_NE(e, nullptr) << stat;
        if (!e)
            return nullptr;
        const obs::DivergencePair *p = e->findPair(a, b);
        EXPECT_NE(p, nullptr) << stat;
        return p;
    };

    for (const std::string &w : stressNames()) {
        SCOPED_TRACE(w);
        obs::DivergenceReport r =
            obs::divergenceReports({w}, at(0.25))[0];
        ASSERT_FALSE(r.failed) << r.error;

        // Scalar pipe: a GCN3-only machine feature. HSAIL and PTXL
        // both measure exactly zero, so the HSAIL<->PTXL cell is the
        // one place the IL is NOT lying about scalarization.
        if (const auto *p =
                pinned(r, "salu", IsaKind::HSAIL, IsaKind::GCN3)) {
            EXPECT_TRUE(p->divergent);
            EXPECT_EQ(p->direction(), "<");
        }
        if (const auto *p =
                pinned(r, "salu", IsaKind::GCN3, IsaKind::PTXL)) {
            EXPECT_TRUE(p->divergent);
            EXPECT_EQ(p->direction(), ">");
        }
        if (const auto *p =
                pinned(r, "salu", IsaKind::HSAIL, IsaKind::PTXL)) {
            EXPECT_FALSE(p->divergent);
            EXPECT_EQ(p->direction(), "=");
        }

        // Encoding size: PTXL's fixed 16-byte words more than double
        // the footprint of both the IL and GCN3's 4/8-byte stream —
        // the IL-level I-side picture is wrong for BOTH vendors, but
        // in different magnitudes.
        if (const auto *p = pinned(r, "instFootprint", IsaKind::HSAIL,
                                   IsaKind::PTXL)) {
            EXPECT_TRUE(p->divergent);
            EXPECT_EQ(p->direction(), "<");
        }
        if (const auto *p = pinned(r, "instFootprint", IsaKind::GCN3,
                                   IsaKind::PTXL)) {
            EXPECT_TRUE(p->divergent);
            EXPECT_EQ(p->direction(), "<");
        }

        // ... and the footprint inflation reaches the I-cache: PTXL
        // misses more than either other level on every stress kernel.
        if (const auto *p = pinned(r, "l1iMisses", IsaKind::HSAIL,
                                   IsaKind::PTXL)) {
            EXPECT_TRUE(p->divergent);
            EXPECT_EQ(p->direction(), "<");
        }

        // VRF banking: the finalizer's GCN3 allocator packs registers
        // to dodge bank conflicts; the IL's virtual registers and
        // PTXL's 1:1-preserved indices both conflict far more.
        if (const auto *p = pinned(r, "vrfBankConflicts",
                                   IsaKind::HSAIL, IsaKind::GCN3)) {
            EXPECT_TRUE(p->divergent);
            EXPECT_EQ(p->direction(), ">");
        }
        if (const auto *p = pinned(r, "vrfBankConflicts",
                                   IsaKind::GCN3, IsaKind::PTXL)) {
            EXPECT_TRUE(p->divergent);
            EXPECT_EQ(p->direction(), "<");
        }

        // Lane-visible data is abstraction-invariant: the data
        // footprint must be identical in every cell of the triangle.
        const obs::DivergenceEntry *df = r.find("dataFootprint");
        ASSERT_NE(df, nullptr);
        for (const obs::DivergencePair &p : df->pairs) {
            EXPECT_FALSE(p.divergent);
            EXPECT_EQ(p.direction(), "=");
        }
    }
}

TEST(StressWorkloads, BfsGraphIbFlushDivergenceWellPastThreshold)
{
    // The headline bfsgraph signature: nested data-dependent
    // divergence makes the HSAIL reconvergence stack pop discontinuous
    // PCs far more often than GCN3's taken-branch redirects, and the
    // effect must clear the 10% threshold with a wide margin at every
    // seed, not hover at it.
    for (uint64_t seed : kSeeds) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        auto r = obs::divergenceReports({"bfsgraph"}, at(0.25, seed))[0];
        ASSERT_FALSE(r.failed) << r.error;
        const obs::DivergenceEntry *e = r.find("ibFlushes");
        ASSERT_NE(e, nullptr);
        const obs::DivergencePair *hg =
            e->findPair(IsaKind::HSAIL, IsaKind::GCN3);
        ASSERT_NE(hg, nullptr);
        EXPECT_GT(hg->relDelta, 2 * r.threshold);
        EXPECT_GT(hg->va, hg->vb)
            << "RS pops must inflate HSAIL IB flushes, not deflate";
    }
}

TEST(StressWorkloads, LdsSwizzleBankConflictsDivergeSimdUtilSimilar)
{
    auto r = obs::divergenceReports({"ldsswizzle"}, at(0.5))[0];
    ASSERT_FALSE(r.failed) << r.error;
    auto hsailGcn3 = [&r](const char *stat) -> const obs::DivergencePair * {
        const obs::DivergenceEntry *e = r.find(stat);
        return e ? e->findPair(IsaKind::HSAIL, IsaKind::GCN3) : nullptr;
    };
    const obs::DivergencePair *bc = hsailGcn3("vrfBankConflicts");
    const obs::DivergencePair *util = hsailGcn3("simdUtil");
    ASSERT_NE(bc, nullptr);
    ASSERT_NE(util, nullptr);
    EXPECT_GT(bc->relDelta, 2 * r.threshold);
    EXPECT_LE(util->relDelta, r.threshold);
    // The soak is fully converged: every lane live at both levels.
    EXPECT_DOUBLE_EQ(util->va, 1.0);
    EXPECT_DOUBLE_EQ(util->vb, 1.0);
}

TEST(StressWorkloads, ExpectationOverridesLayerOverPaperDefaults)
{
    // Per-workload override wins ...
    EXPECT_EQ(obs::expectedDivergence("bfsgraph", "ibFlushes"),
              "divergent");
    EXPECT_EQ(obs::expectedDivergence("ldsswizzle", "ipc"), "similar");
    EXPECT_EQ(obs::expectedDivergence("atomicred", "ibFlushes"),
              "similar");
    EXPECT_EQ(obs::expectedDivergence("bfsgraph", "vmem"), "");
    // ... the paper's Table 5 defaults are untouched elsewhere ...
    EXPECT_EQ(obs::expectedDivergence("VecAdd", "ipc"), "divergent");
    EXPECT_EQ(obs::expectedDivergence("VecAdd", "ibFlushes"),
              "divergent");
    EXPECT_EQ(obs::expectedDivergence("FFT", "simdUtil"), "similar");
    // ... and unknown stats take no position.
    EXPECT_EQ(obs::expectedDivergence("VecAdd", "noSuchStat"), "");
}

// ---------------------------------------------------------------------
// (c) Determinism across LAST_JOBS and the artifact cache.
// ---------------------------------------------------------------------

TEST(StressWorkloads, DeterministicAcrossJobCounts)
{
    std::vector<sim::RunSpec> specs;
    for (const std::string &w : stressNames())
        for (IsaKind isa : AllIsas)
            specs.push_back({w, isa, GpuConfig{}, at(0.25)});
    auto serial = sim::runMany(specs, 1);
    auto parallel = sim::runMany(specs, 4);
    ASSERT_EQ(serial.size(), parallel.size());
    for (size_t i = 0; i < serial.size(); ++i) {
        SCOPED_TRACE(specs[i].workload + "/" +
                     std::string(isaName(specs[i].isa)));
        expectVerifiedAndSame(serial[i], parallel[i]);
    }
}

TEST(StressWorkloads, DeterministicAcrossArtifactCacheSetting)
{
    for (const std::string &w : stressNames()) {
        for (IsaKind isa : AllIsas) {
            SCOPED_TRACE(w + "/" + std::string(isaName(isa)));
            sim::ArtifactCache::setEnabled(true);
            auto warm = sim::runApp(w, isa, GpuConfig{}, at(0.25));
            auto hit = sim::runApp(w, isa, GpuConfig{}, at(0.25));
            sim::ArtifactCache::setEnabled(false);
            auto cold = sim::runApp(w, isa, GpuConfig{}, at(0.25));
            sim::ArtifactCache::setEnabled(true);
            expectVerifiedAndSame(warm, hit);
            expectVerifiedAndSame(warm, cold);
        }
    }
}

// ---------------------------------------------------------------------
// Artifact-cache key fix: kernel-shaping knobs participate in the key.
// ---------------------------------------------------------------------

TEST(StressWorkloads, LdsSwizzleKnobVariantsDoNotAliasInCache)
{
    // stride/pad are IL immediates: each variant is a DIFFERENT kernel
    // under the SAME (workload, isa, scale, seq). Before the key fix,
    // the second variant would hit the first's entry and trip the
    // cache's digest-soundness panic (or worse, silently reuse the
    // wrong KernelCode). Interleaving variants with the cache hot
    // proves the knobs are part of the key.
    sim::ArtifactCache::setEnabled(true);
    sim::ArtifactCache::instance().clear();

    // One knob variant at HSAIL and GCN3, which must agree.
    auto variant = [](int stride, int pad) {
        workloads::WorkloadScale s{0.25};
        s.ldsStrideWords = stride;
        s.ldsPadWords = pad;
        auto rs = sim::runMany({{"ldsswizzle", IsaKind::HSAIL, {}, s},
                                {"ldsswizzle", IsaKind::GCN3, {}, s}});
        sim::checkAgreement({&rs[0], &rs[1]});
        return rs;
    };

    auto a1 = variant(8, 0);
    auto b1 = variant(9, 1);
    uint64_t missesAfterBuild = sim::ArtifactCache::instance().misses();
    auto a2 = variant(8, 0);
    auto b2 = variant(9, 1);

    // Re-running a variant is a pure cache hit ...
    EXPECT_EQ(sim::ArtifactCache::instance().misses(), missesAfterBuild);
    for (size_t k = 0; k < 2; ++k) {
        expectVerifiedAndSame(a1[k], a2[k]);
        expectVerifiedAndSame(b1[k], b2[k]);
    }

    // ... the variants exchange the same lane values (the swizzle is
    // layout-invariant), so a silent artifact mixup would NOT show up
    // in the digest — but it would show up in the LDS bank-conflict
    // timing: stride 8 serializes 64 lanes over 4 banks, stride 9+1
    // (10 words, coprime to 32) spreads them almost perfectly.
    EXPECT_EQ(a1[0].digest, b1[0].digest);
    EXPECT_GT(a1[0].cycles, b1[0].cycles);
    EXPECT_GT(a1[1].cycles, b1[1].cycles);
}

TEST(StressWorkloads, BackendVariantsDoNotAliasInArtifactCache)
{
    // GCN3 and PTXL lower the SAME IL under the SAME (workload, scale,
    // seq) — only the ISA differs. The artifact-cache key names the
    // ISA (and the content digest folds in finalizeConfigDigest(cfg,
    // isa)), so interleaving vendors with the cache hot must re-serve
    // each ISA its own KernelCode: re-runs are pure hits (miss count
    // frozen) and keep their vendor's machine-shape signature. An
    // aliased entry would hand PTXL a scalarized, waitcnt-carrying
    // GCN3 kernel (or GCN3 a barrier-bracketed PTXL one) — invisible
    // in the digest, loud in the pipe mix.
    sim::ArtifactCache::setEnabled(true);
    sim::ArtifactCache::instance().clear();

    auto g1 =
        sim::runApp("atomicred", IsaKind::GCN3, GpuConfig{}, at(0.25));
    auto p1 =
        sim::runApp("atomicred", IsaKind::PTXL, GpuConfig{}, at(0.25));
    uint64_t missesAfterBuild = sim::ArtifactCache::instance().misses();
    uint64_t hitsBefore = sim::ArtifactCache::instance().hits();
    auto g2 =
        sim::runApp("atomicred", IsaKind::GCN3, GpuConfig{}, at(0.25));
    auto p2 =
        sim::runApp("atomicred", IsaKind::PTXL, GpuConfig{}, at(0.25));
    EXPECT_EQ(sim::ArtifactCache::instance().misses(), missesAfterBuild);
    EXPECT_GT(sim::ArtifactCache::instance().hits(), hitsBefore);
    expectVerifiedAndSame(g1, g2);
    expectVerifiedAndSame(p1, p2);
    EXPECT_EQ(g2.digest, p2.digest);
    EXPECT_GT(g2.salu, 0u);
    EXPECT_EQ(p2.salu, 0u);
    EXPECT_GT(g2.waitcnt, 0u);
    EXPECT_EQ(p2.waitcnt, 0u);
}

// ---------------------------------------------------------------------
// bfsgraph reconvergence-stack property (randomized seeds, both ISAs).
// ---------------------------------------------------------------------

TEST(StressWorkloads, BfsRsDepthHistogramNonDegenerate)
{
    // The kernel nests level-membership, degree, edge-loop, and
    // relaxation conditionals: the HSAIL reconvergence stack must
    // actually reach depth >= 3 (a degenerate single-level histogram
    // would mean the nesting collapsed), and across the run more than
    // one depth must occur. GCN3 has no RS; its side of the property
    // is that exec-masked execution retires the identical lane-visible
    // state — digest equality via checkAgreement — with zero hazard
    // violations, per seed.
    for (uint64_t seed :
         {uint64_t(0), uint64_t(0xC0FFEE), uint64_t(0x12345678)}) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        uint64_t maxDepth = 0, pushes = 0;
        std::array<uint64_t, stats::Histogram::NumBuckets> buckets{};
        auto hsail = sim::runApp(
            "bfsgraph", IsaKind::HSAIL, GpuConfig{}, at(0.25, seed),
            [&](runtime::Runtime &rt) {
                for (unsigned i = 0; i < rt.gpu().numCus(); ++i) {
                    const auto &h = rt.gpu().computeUnit(i).rsDepth;
                    maxDepth = std::max(maxDepth, h.maxSample());
                    pushes += h.samples();
                    for (unsigned b = 0; b < buckets.size(); ++b)
                        buckets[b] += h.bucketCount(b);
                }
            });
        ASSERT_TRUE(hsail.verified);
        EXPECT_GE(maxDepth, 3u);
        EXPECT_GT(pushes, 0u);
        unsigned distinct = 0;
        for (uint64_t c : buckets)
            distinct += c != 0;
        EXPECT_GE(distinct, 2u) << "RS depth never varied";

        // Neither machine ISA has an RS: GCN3 predicates through the
        // exec mask, PTXL reconverges on its hardware warp-split stack
        // via BSSY/BSYNC. Both must retire identical lane-visible
        // state without ever touching the simulator's RS histogram.
        for (IsaKind isa : {IsaKind::GCN3, IsaKind::PTXL}) {
            SCOPED_TRACE(isaName(isa));
            uint64_t machinePushes = 0;
            auto machine = sim::runApp(
                "bfsgraph", isa, GpuConfig{}, at(0.25, seed),
                [&](runtime::Runtime &rt) {
                    for (unsigned i = 0; i < rt.gpu().numCus(); ++i)
                        machinePushes +=
                            rt.gpu().computeUnit(i).rsDepth.samples();
                });
            EXPECT_EQ(machinePushes, 0u)
                << isaName(isa) << " must never touch an RS";
            EXPECT_EQ(machine.hazardViolations, 0u);
            sim::checkAgreement({&hsail, &machine}); // throws on mismatch
        }
    }
}

// ---------------------------------------------------------------------
// pipeline: multi-kernel dispatch records and overlap.
// ---------------------------------------------------------------------

TEST(StressWorkloads, PipelineLaunchRecordsAndOverlap)
{
    auto rs = sim::runMany({{"pipeline", IsaKind::HSAIL, {}, at(0.5)},
                            {"pipeline", IsaKind::GCN3, {}, at(0.5)},
                            {"pipeline", IsaKind::PTXL, {}, at(0.5)}});
    sim::checkAgreement({&rs[0], &rs[1], &rs[2]});
    const sim::AppResult &hsail = rs[0], &gcn3 = rs[1], &ptxl = rs[2];
    ASSERT_TRUE(ptxl.verified);
    const std::vector<std::string> want = {
        "pipe_produce", "pipe_produce", "pipe_transform",
        "pipe_transform", "pipe_reduce", "pipe_reduce",
    };
    for (const sim::AppResult *r : {&hsail, &gcn3, &ptxl}) {
        SCOPED_TRACE(isaName(r->isa));
        ASSERT_EQ(r->launches.size(), want.size());
        uint64_t recorded = 0, spanSum = 0;
        for (size_t i = 0; i < want.size(); ++i) {
            EXPECT_EQ(r->launches[i].kernel, want[i]);
            EXPECT_GT(r->launches[i].cycles, 0u);
            EXPECT_GT(r->launches[i].instsIssued, 0u);
            recorded += r->launches[i].instsIssued;
            spanSum += r->launches[i].cycles;
        }
        // Per-launch instruction attribution is exact: the records
        // partition the app's dynamic instruction count.
        EXPECT_EQ(recorded, r->dynInsts);
        // And AppResult.cycles aggregates exactly these records.
        EXPECT_EQ(spanSum, r->cycles);
    }
}

TEST(StressWorkloads, DispatchAsyncOverlapsIndependentKernels)
{
    // The pipeline workload relies on dispatchAsync()/sync() actually
    // overlapping data-independent kernels. Witness it directly at the
    // Runtime level: two kernels dispatched back-to-back synchronously
    // cost the sum of their wall clocks; the same two in flight
    // together must finish in meaningfully less (their workgroups
    // share the 8 CUs' wavefront slots).
    auto makeKernel = [](const std::string &name, uint32_t mul) {
        hsail::KernelBuilder kb(name);
        kb.setKernargBytes(16);
        hsail::Val in = kb.ldKernarg(hsail::DataType::U64, 0);
        hsail::Val out = kb.ldKernarg(hsail::DataType::U64, 8);
        hsail::Val gid = kb.workitemAbsId();
        hsail::Val off =
            kb.cvt(hsail::DataType::U64, kb.mul(gid, kb.immU32(4)));
        hsail::Val v = kb.ldGlobal(hsail::DataType::U32, kb.add(in, off));
        v = kb.add(kb.mul(v, kb.immU32(mul)), gid);
        kb.stGlobal(v, kb.add(out, off));
        return kb.build();
    };

    constexpr unsigned N = 2048;
    struct Args
    {
        uint64_t in, out;
    };

    auto setup = [&](runtime::Runtime &rt, Args &a, Args &b) {
        a.in = rt.allocGlobal(N * 4);
        a.out = rt.allocGlobal(N * 4);
        b.in = rt.allocGlobal(N * 4);
        b.out = rt.allocGlobal(N * 4);
        for (unsigned i = 0; i < N; ++i) {
            rt.writeGlobal<uint32_t>(a.in + 4 * i, i);
            rt.writeGlobal<uint32_t>(b.in + 4 * i, 2 * i);
        }
    };

    for (IsaKind isa : AllIsas) {
        SCOPED_TRACE(isaName(isa));
        auto il1 = makeKernel("ovl_a", 3);
        auto il2 = makeKernel("ovl_b", 5);
        finalizer::compactIlRegisters(il1);
        finalizer::compactIlRegisters(il2);
        std::unique_ptr<arch::KernelCode> mach1, mach2;
        if (isa != IsaKind::HSAIL) {
            mach1 = finalizer::finalize(il1, isa, GpuConfig{});
            mach2 = finalizer::finalize(il2, isa, GpuConfig{});
        }
        const arch::KernelCode &c1 = mach1 ? *mach1 : *il1.code;
        const arch::KernelCode &c2 = mach2 ? *mach2 : *il2.code;

        Cycle serial = 0, overlapped = 0;
        {
            runtime::Runtime rt;
            Args a, b;
            setup(rt, a, b);
            serial += rt.dispatch(c1, N, 256, &a, sizeof(a));
            serial += rt.dispatch(c2, N, 256, &b, sizeof(b));
        }
        {
            runtime::Runtime rt;
            Args a, b;
            setup(rt, a, b);
            rt.dispatchAsync(c1, N, 256, &a, sizeof(a));
            rt.dispatchAsync(c2, N, 256, &b, sizeof(b));
            overlapped = rt.sync();
            ASSERT_EQ(rt.launchRecords().size(), 2u);
            for (unsigned i = 0; i < N; i += 97) {
                EXPECT_EQ(rt.readGlobal<uint32_t>(a.out + 4 * i),
                          i * 3u + i);
                EXPECT_EQ(rt.readGlobal<uint32_t>(b.out + 4 * i),
                          2 * i * 5u + i);
            }
        }
        // Require a real margin, not a one-cycle technicality.
        EXPECT_LT(overlapped, serial - serial / 10)
            << "overlapped=" << overlapped << " serial=" << serial;
    }
}
