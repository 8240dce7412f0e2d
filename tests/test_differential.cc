/**
 * @file
 * The cross-ISA differential property suite: for randomized kernels
 * and for every Table 5 workload, executing the same source at the
 * HSAIL level and at both machine levels (GCN3, PTXL) must produce
 * byte-identical results — and neither machine-level run may trip the
 * hazard probe (the finalizer's software dependency management and
 * the PTXL hardware scoreboard must both be complete).
 */

#include <gtest/gtest.h>

#include "finalizer/finalizer.hh"
#include "finalizer/regalloc.hh"
#include "helpers.hh"
#include "runtime/runtime.hh"
#include "sim/experiment.hh"
#include "sim/parallel.hh"

using namespace last;

namespace
{

/** Run a random kernel end-to-end on a full Runtime at one ISA and
 *  return the output buffer. */
std::vector<uint32_t>
runRandom(uint64_t seed, IsaKind isa, uint64_t *hazards = nullptr)
{
    runtime::Runtime rt;
    auto il = last::test::randomKernel(seed);
    finalizer::compactIlRegisters(il);
    std::unique_ptr<arch::KernelCode> machine;
    arch::KernelCode *code = il.code.get();
    if (isa != IsaKind::HSAIL) {
        machine = finalizer::finalize(il, isa, rt.config());
        code = machine.get();
    }

    const unsigned grid = 512;
    Addr in = rt.allocGlobal(grid * 4);
    Addr out = rt.allocGlobal(grid * 4);
    Rng rng(seed * 77 + 5);
    std::vector<uint32_t> data(grid);
    for (auto &d : data)
        d = uint32_t(rng.next());
    rt.writeGlobal(in, data.data(), data.size() * 4);

    struct Args
    {
        uint64_t in, out;
    } args{in, out};
    rt.dispatch(*code, grid, 256, &args, sizeof(args));

    if (hazards)
        *hazards = uint64_t(rt.gpu().sumCuStat("hazardViolations"));
    std::vector<uint32_t> got(grid);
    rt.readGlobal(out, got.data(), got.size() * 4);
    return got;
}

} // namespace

class RandomKernelDifferential
    : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(RandomKernelDifferential, IsasProduceIdenticalResults)
{
    uint64_t seed = GetParam();
    uint64_t gcn3Hazards = 0, ptxlHazards = 0;
    // The three ISA-level runs are independent; overlap them on the
    // parallel driver's worker pool.
    std::vector<uint32_t> hsail, gcn3, ptxl;
    sim::parallelInvoke(
        {[&] { hsail = runRandom(seed, IsaKind::HSAIL); },
         [&] { gcn3 = runRandom(seed, IsaKind::GCN3, &gcn3Hazards); },
         [&] { ptxl = runRandom(seed, IsaKind::PTXL, &ptxlHazards); }});
    EXPECT_EQ(hsail, gcn3) << "seed " << seed;
    EXPECT_EQ(hsail, ptxl) << "seed " << seed;
    EXPECT_EQ(gcn3Hazards, 0u)
        << "finalizer dependency management incomplete for seed "
        << seed;
    EXPECT_EQ(ptxlHazards, 0u)
        << "PTXL scoreboard let a not-ready register be read for seed "
        << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomKernelDifferential,
                         ::testing::Range<uint64_t>(1, 33));

struct WorkloadCase
{
    const char *name;
};

class WorkloadDifferential
    : public ::testing::TestWithParam<const char *>
{
};

TEST_P(WorkloadDifferential, VerifiesAndMatchesAcrossIsas)
{
    workloads::WorkloadScale scale{0.5};
    std::vector<sim::RunSpec> specs;
    for (IsaKind isa : AllIsas)
        specs.push_back({GetParam(), isa, GpuConfig{}, scale});
    auto rs = sim::runMany(specs);
    const sim::AppResult &h = rs[0], &g = rs[1], &p = rs[2];
    EXPECT_TRUE(h.verified) << GetParam() << " HSAIL";
    EXPECT_TRUE(g.verified) << GetParam() << " GCN3";
    EXPECT_TRUE(p.verified) << GetParam() << " PTXL";
    EXPECT_EQ(h.digest, g.digest) << GetParam();
    EXPECT_EQ(h.digest, p.digest) << GetParam();
    EXPECT_EQ(g.hazardViolations, 0u) << GetParam();
    // Zero by construction: the CU probes only instructions nothing
    // interlocks, and every PTXL instruction interlocks. This cannot
    // fail and proves nothing about PTXL's scoreboard (ROADMAP item 5).
    EXPECT_EQ(p.hazardViolations, 0u) << GetParam();
    // The abstraction gap the paper quantifies: more dynamic
    // instructions at either machine-ISA level...
    EXPECT_GE(g.dynInsts, h.dynInsts) << GetParam();
    EXPECT_GE(p.dynInsts, h.dynInsts) << GetParam();
    // ...scalar work only under GCN3 (PTXL has no scalar pipeline,
    // only constant-cache kernarg traffic)...
    EXPECT_EQ(h.salu, 0u);
    EXPECT_EQ(h.smem, 0u);
    EXPECT_GT(g.salu, 0u);
    EXPECT_EQ(p.salu, 0u);
    // ...and software dependency management only under GCN3: the PTXL
    // stream carries no waitcnt-class instructions and never stalls on
    // one, it pays fixed-latency scoreboard stalls instead.
    EXPECT_EQ(h.waitcnt, 0u);
    EXPECT_GT(g.waitcnt, 0u);
    EXPECT_EQ(p.waitcnt, 0u);
    EXPECT_EQ(p.waitcntStalls, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Table5, WorkloadDifferential,
    ::testing::Values("ArrayBW", "BitonicSort", "CoMD", "FFT", "HPGMG",
                      "MD", "SNAP", "SpMV", "XSBench"));

// LULESH runs long; keep it in a single dedicated case at small scale.
TEST(WorkloadDifferentialLulesh, VerifiesAndMatches)
{
    workloads::WorkloadScale scale{0.25};
    std::vector<sim::RunSpec> specs;
    for (IsaKind isa : AllIsas)
        specs.push_back({"LULESH", isa, GpuConfig{}, scale});
    auto rs = sim::runMany(specs);
    const sim::AppResult &h = rs[0], &g = rs[1], &p = rs[2];
    EXPECT_TRUE(h.verified);
    EXPECT_TRUE(g.verified);
    EXPECT_TRUE(p.verified);
    EXPECT_EQ(h.digest, g.digest);
    EXPECT_EQ(h.digest, p.digest);
    EXPECT_EQ(g.hazardViolations, 0u);
    // Structural at PTXL, as above: the probe skips interlocked
    // instructions, which every PTXL instruction is.
    EXPECT_EQ(p.hazardViolations, 0u);
    // The Table 6 asymmetry: per-launch private arenas inflate the
    // HSAIL data footprint relative to GCN3, whose register allocator
    // folds the spill traffic into the physical VRF budget. PTXL
    // keeps the IL's register set 1:1 (no repacking), so it inherits
    // the arenas wholesale — its footprint matches the IL exactly,
    // and the GCN3-only reduction is itself a cross-vendor pitfall.
    EXPECT_GT(h.dataFootprint, 2 * g.dataFootprint);
    EXPECT_EQ(p.dataFootprint, h.dataFootprint);
}
