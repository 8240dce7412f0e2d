/**
 * @file
 * PTXL backend test suite, three layers deep:
 *
 *  1. Convergence-barrier reconvergence against the ipdom oracle: the
 *     HSAIL runs in test_ipdom.cc reconverge via the simulator's
 *     immediate-post-dominator stack; the same IL lowered to PTXL must
 *     reproduce every lane-visible value with BSSY/BSYNC instructions
 *     and the hardware warp-split stack alone, ending with the full
 *     mask restored and the split stack empty.
 *  2. The predecode contract (mirroring test_exec_engine.cc): every
 *     ExecMeta record of a lowered PTXL kernel must agree with the
 *     virtual methods it replaces, and every workload run through the
 *     direct-threaded engine must be field-for-field identical to the
 *     virtual-dispatch reference.
 *  3. Machine-level shape: no scalar pipe, no software dependency
 *     management (waitcnt stays zero; the scoreboard stalls instead),
 *     fixed 16-byte encoding, and barrier brackets only around
 *     *divergent* regions.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "arch/exec_meta.hh"
#include "arch/kernel_code.hh"
#include "finalizer/finalizer.hh"
#include "finalizer/regalloc.hh"
#include "helpers.hh"
#include "hsail/ipdom.hh"
#include "ptxl/inst.hh"
#include "runtime/runtime.hh"
#include "sim/bench_cache.hh"
#include "sim/parallel.hh"

using namespace last;
using namespace last::hsail;
using last::test::MiniWf;

namespace
{

std::unique_ptr<arch::KernelCode>
lowerPtxl(const hsail::IlKernel &il)
{
    return finalizer::finalize(il, IsaKind::PTXL, GpuConfig{});
}

/** Count instructions of one PTXL operation class. */
unsigned
countOp(const arch::KernelCode &code, ptxl::PtxlOp op)
{
    unsigned n = 0;
    for (size_t i = 0; i < code.numInsts(); ++i) {
        const auto &pi = static_cast<const ptxl::PtxlInst &>(code.inst(i));
        n += pi.op() == op;
    }
    return n;
}

/** Run the IL (HSAIL oracle) and the PTXL lowering of the same kernel
 *  on one wavefront each; on exit the PTXL side must be reconverged. */
struct BothWf
{
    MiniWf hsail;
    std::unique_ptr<arch::KernelCode> ptxlCode;
    MiniWf ptxl;

    explicit BothWf(const hsail::IlKernel &il)
        : hsail(*il.code), ptxlCode(lowerPtxl(il)), ptxl(*ptxlCode)
    {
    }

    void
    run()
    {
        hsail.run();
        ptxl.run();
        EXPECT_TRUE(ptxl.st.done);
        EXPECT_EQ(ptxl.st.exec, ~0ull)
            << "PTXL left the wavefront partially masked";
        EXPECT_TRUE(ptxl.st.splits.empty())
            << "PTXL left parked warp splits behind";
    }

    /** The lowering keeps IL vreg indices, so the oracle comparison
     *  can read the same register on both sides. */
    void
    expectLanesEqual(const Val &v)
    {
        for (unsigned lane = 0; lane < 64; ++lane)
            EXPECT_EQ(ptxl.st.readVreg(v.reg, lane),
                      hsail.st.readVreg(v.reg, lane))
                << "lane " << lane;
    }
};

} // namespace

// ---------------------------------------------------------------------
// (1) BSSY/BSYNC reconvergence vs the ipdom oracle.
// ---------------------------------------------------------------------

TEST(PtxlReconvergence, DivergentIfMasksLanes)
{
    KernelBuilder kb("div");
    Val gid = kb.workitemAbsId();
    Val r = kb.immU32(0);
    Val c = kb.cmp(CmpOp::Lt, gid, kb.immU32(20));
    kb.ifBegin(c);
    kb.emitAluTo(Opcode::Add, r, r, kb.immU32(100));
    kb.ifElse();
    kb.emitAluTo(Opcode::Add, r, r, kb.immU32(200));
    kb.ifEnd();
    kb.emitAluTo(Opcode::Add, r, r, kb.immU32(1));
    auto il = kb.build();

    BothWf wf(il);
    wf.run();
    wf.expectLanesEqual(r);
    EXPECT_EQ(wf.ptxl.st.readVreg(r.reg, 0), 101u);
    EXPECT_EQ(wf.ptxl.st.readVreg(r.reg, 63), 201u);
}

TEST(PtxlReconvergence, DivergentLoopTripCounts)
{
    // Lane l iterates (l % 4) + 1 times; stragglers ride the split
    // stack until the BSYNC below the backedge collects them.
    KernelBuilder kb("divloop");
    Val gid = kb.workitemAbsId();
    Val j = kb.and_(gid, kb.immU32(3));
    Val cnt = kb.immU32(0);
    Val one = kb.immU32(1);
    kb.doBegin();
    kb.emitAluTo(Opcode::Add, cnt, cnt, one);
    kb.emitAluTo(Opcode::Add, j, j, one);
    kb.doEnd(kb.cmp(CmpOp::Lt, j, kb.immU32(4)));
    auto il = kb.build();

    BothWf wf(il);
    wf.run();
    wf.expectLanesEqual(cnt);
    for (unsigned lane = 0; lane < 64; ++lane)
        EXPECT_EQ(wf.ptxl.st.readVreg(cnt.reg, lane), 4 - (lane % 4));
}

TEST(PtxlReconvergence, NestedDivergenceUsesDistinctBarriers)
{
    KernelBuilder kb("nested");
    Val gid = kb.workitemAbsId();
    Val r = kb.immU32(0);
    Val outer = kb.cmp(CmpOp::Lt, gid, kb.immU32(32));
    kb.ifBegin(outer);
    {
        Val inner = kb.cmp(CmpOp::Lt, gid, kb.immU32(16));
        kb.ifBegin(inner);
        kb.emitAluTo(Opcode::Add, r, r, kb.immU32(10));
        kb.ifEnd();
        kb.emitAluTo(Opcode::Add, r, r, kb.immU32(1));
    }
    kb.ifEnd();
    auto il = kb.build();

    BothWf wf(il);

    // The inner BSYNC must not consume the outer barrier's splits: the
    // two nested divergent regions get distinct barrier indices.
    EXPECT_EQ(countOp(*wf.ptxlCode, ptxl::PtxlOp::Bssy), 2u);
    EXPECT_EQ(countOp(*wf.ptxlCode, ptxl::PtxlOp::Bsync), 2u);
    unsigned distinctBars = 0;
    uint64_t seen = 0;
    for (size_t i = 0; i < wf.ptxlCode->numInsts(); ++i) {
        const auto &pi =
            static_cast<const ptxl::PtxlInst &>(wf.ptxlCode->inst(i));
        if (pi.op() == ptxl::PtxlOp::Bssy && !(seen & (1u << pi.barIdx()))) {
            seen |= 1u << pi.barIdx();
            ++distinctBars;
        }
    }
    EXPECT_EQ(distinctBars, 2u);

    wf.run();
    wf.expectLanesEqual(r);
    EXPECT_EQ(wf.ptxl.st.readVreg(r.reg, 5), 11u);
    EXPECT_EQ(wf.ptxl.st.readVreg(r.reg, 20), 1u);
    EXPECT_EQ(wf.ptxl.st.readVreg(r.reg, 40), 0u);
}

TEST(PtxlReconvergence, Figure3IfElseIf)
{
    // The paper's Figure 3 if/else-if; the oracle is the HSAIL run's
    // memory image, not hardcoded constants, so the two convergence
    // schemes are compared end to end.
    KernelBuilder kb("fig3");
    Val gid = kb.workitemAbsId();
    Val out = kb.immU64(0x8000);
    Val off = kb.cvt(DataType::U64, kb.mul(gid, kb.immU32(4)));
    Val dst = kb.add(out, off);
    Val c1 = kb.cmp(CmpOp::Lt, gid, kb.immU32(2));
    kb.ifBegin(c1);
    kb.stGlobal(kb.immU32(84), dst);
    kb.ifElse();
    {
        Val c2 = kb.cmp(CmpOp::Lt, gid, kb.immU32(4));
        kb.ifBegin(c2);
        kb.stGlobal(kb.immU32(90), dst);
        kb.ifElse();
        kb.stGlobal(kb.immU32(84), dst);
        kb.ifEnd();
    }
    kb.ifEnd();
    auto il = kb.build();

    BothWf wf(il);
    wf.run();
    for (unsigned wi = 0; wi < 64; ++wi)
        EXPECT_EQ(wf.ptxl.mem.read<uint32_t>(0x8000 + wi * 4),
                  wf.hsail.mem.read<uint32_t>(0x8000 + wi * 4))
            << "work-item " << wi;
    EXPECT_EQ(wf.ptxl.mem.read<uint32_t>(0x8000 + 2 * 4), 90u);
    EXPECT_EQ(wf.ptxl.mem.read<uint32_t>(0x8000 + 4 * 4), 84u);
}

TEST(PtxlReconvergence, UniformBranchEmitsNoBarrier)
{
    // Uniformity analysis is shared across backends: a workgroup-
    // uniform condition needs no convergence barrier at all, exactly
    // as GCN3 takes the scalar-branch path for it.
    KernelBuilder kb("uniform");
    Val wg = kb.workgroupId();
    Val r = kb.immU32(0);
    Val c = kb.cmp(CmpOp::Eq, wg, kb.immU32(0));
    kb.ifBegin(c);
    kb.emitAluTo(Opcode::Add, r, r, kb.immU32(7));
    kb.ifEnd();
    auto il = kb.build();

    BothWf wf(il);
    EXPECT_EQ(countOp(*wf.ptxlCode, ptxl::PtxlOp::Bssy), 0u);
    EXPECT_EQ(countOp(*wf.ptxlCode, ptxl::PtxlOp::Bsync), 0u);

    wf.run();
    wf.expectLanesEqual(r);
    EXPECT_EQ(wf.ptxl.st.readVreg(r.reg, 0), 7u);
}

TEST(PtxlReconvergence, BarriersAreBracketedOnRandomKernels)
{
    // Structural well-formedness across the random-kernel corpus:
    // BSSY/BSYNC counts match per barrier index and every BSSY
    // statically precedes its BSYNC (structured lowering invariant).
    for (uint64_t seed = 1; seed <= 16; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        auto il = last::test::randomKernel(seed);
        finalizer::compactIlRegisters(il);
        auto code = lowerPtxl(il);
        int firstSet[arch::WfState::NumPtxlBarriers];
        int sets[arch::WfState::NumPtxlBarriers] = {};
        int syncs[arch::WfState::NumPtxlBarriers] = {};
        for (unsigned b = 0; b < arch::WfState::NumPtxlBarriers; ++b)
            firstSet[b] = -1;
        for (size_t i = 0; i < code->numInsts(); ++i) {
            const auto &pi =
                static_cast<const ptxl::PtxlInst &>(code->inst(i));
            if (pi.op() == ptxl::PtxlOp::Bssy) {
                if (firstSet[pi.barIdx()] < 0)
                    firstSet[pi.barIdx()] = int(i);
                ++sets[pi.barIdx()];
            } else if (pi.op() == ptxl::PtxlOp::Bsync) {
                ASSERT_GT(sets[pi.barIdx()], syncs[pi.barIdx()])
                    << "BSYNC B" << unsigned(pi.barIdx())
                    << " before its BSSY at inst " << i;
                ++syncs[pi.barIdx()];
            }
        }
        for (unsigned b = 0; b < arch::WfState::NumPtxlBarriers; ++b)
            EXPECT_EQ(sets[b], syncs[b]) << "barrier " << b;
    }
}

// ---------------------------------------------------------------------
// (2) The predecode contract.
// ---------------------------------------------------------------------

TEST(PtxlExecEngine, PredecodedMetaAgreesWithInstruction)
{
    // Every ExecMeta field the timing model consumes must agree with
    // the virtual method it replaced, for every instruction of every
    // lowered random kernel, across latency configs.
    const auto cfgs = test::latencyConfigs();

    auto checkKernel = [&](const arch::KernelCode &code) {
        const auto &metas = code.execMetas();
        ASSERT_EQ(metas.size(), code.numInsts());
        for (size_t i = 0; i < metas.size(); ++i) {
            const arch::ExecMeta &m = metas[i];
            const arch::Instruction &in = code.inst(i);
            SCOPED_TRACE(code.name() + ": " + in.disassemble());
            EXPECT_EQ(m.inst, &in);
            EXPECT_NE(m.handler, nullptr);
            EXPECT_EQ(m.flags, in.flags());
            EXPECT_EQ(m.fu, in.fuType());
            EXPECT_EQ(unsigned(m.size), in.sizeBytes());
            EXPECT_EQ(unsigned(m.size), code.sizeOf(i));
            EXPECT_EQ(unsigned(m.size), ptxl::PtxlInst::EncodedBytes)
                << "PTXL encoding is fixed-width";
            for (unsigned c = 0; c < cfgs.size(); ++c)
                EXPECT_EQ(m.latency(cfgs[c]),
                          test::table4Latency(in.fuType(),
                                              in.is(arch::IsF64) ||
                                                  in.is(arch::IsTrans),
                                              c));
            EXPECT_EQ(m.numOps, in.regOps().size());
            for (size_t k = 0; k < in.regOps().size(); ++k) {
                EXPECT_EQ(m.ops[k].idx, in.regOps()[k].idx);
                EXPECT_EQ(m.ops[k].width, in.regOps()[k].width);
                EXPECT_EQ(m.ops[k].cls, in.regOps()[k].cls);
                EXPECT_EQ(m.ops[k].isDef, in.regOps()[k].isDef);
            }
        }
    };

    runtime::Runtime rt;
    for (uint64_t seed = 1; seed <= 8; ++seed) {
        auto il = last::test::randomKernel(seed);
        finalizer::compactIlRegisters(il);
        auto code = finalizer::finalize(il, IsaKind::PTXL, rt.config());
        checkKernel(*code);
    }
}

namespace
{

/** The PTXL engine-differential matrix: Table 5 representatives plus
 *  every stress shape, with `execReference` forced as requested. */
std::vector<sim::RunSpec>
ptxlEngineSweep(bool reference)
{
    workloads::WorkloadScale scale{0.25};
    GpuConfig cfg;
    cfg.execReference = reference;
    std::vector<sim::RunSpec> specs;
    for (const char *w : {"VecAdd", "ArrayBW", "BitonicSort", "atomicred",
                          "ldsswizzle", "bfsgraph", "pipeline"})
        specs.push_back({w, IsaKind::PTXL, cfg, scale});
    return specs;
}

} // namespace

TEST(PtxlExecEngine, MatchesReferenceFieldForField)
{
    auto fast = ptxlEngineSweep(false);
    auto ref = ptxlEngineSweep(true);
    auto fastRes = sim::runMany(fast);
    auto refRes = sim::runMany(ref);
    ASSERT_EQ(fastRes.size(), refRes.size());
    for (size_t i = 0; i < fastRes.size(); ++i) {
        SCOPED_TRACE(fast[i].workload);
        test::expectSameResult(fastRes[i], refRes[i]);
    }
}

TEST(PtxlExecEngine, BenchCacheRowsByteIdentical)
{
    auto fast = ptxlEngineSweep(false);
    auto ref = ptxlEngineSweep(true);
    auto fastRes = sim::runMany(fast);
    auto refRes = sim::runMany(ref);
    ASSERT_EQ(fastRes.size(), refRes.size());

    auto serialize = [](const std::vector<sim::RunSpec> &specs,
                        const std::vector<sim::AppResult> &results) {
        sim::BenchCacheFile cache;
        cache.scale = specs.front().scale.factor;
        for (size_t i = 0; i < specs.size(); ++i)
            cache.rows.push_back(
                {sim::specCacheKey(specs[i]), results[i]});
        std::ostringstream os;
        sim::writeBenchCache(os, cache);
        return os.str();
    };
    EXPECT_EQ(serialize(fast, fastRes), serialize(ref, refRes));
}

// ---------------------------------------------------------------------
// (3) Machine-level shape.
// ---------------------------------------------------------------------

TEST(PtxlMachineShape, NoScalarPipeNoWaitcntScoreboardStallsInstead)
{
    workloads::WorkloadScale scale{0.25};
    sim::AppResult h = sim::runApp("bfsgraph", IsaKind::HSAIL,
                                   GpuConfig{}, scale);
    sim::AppResult p = sim::runApp("bfsgraph", IsaKind::PTXL,
                                   GpuConfig{}, scale);
    EXPECT_TRUE(p.verified);
    EXPECT_EQ(p.digest, h.digest);
    // Zero by construction: the CU probes only instructions nothing
    // interlocks, and every PTXL instruction interlocks, so this cannot
    // catch a scoreboard gap (ROADMAP item 5 plans the check that can).
    EXPECT_EQ(p.hazardViolations, 0u)
        << "the hardware scoreboard let a not-ready register be read";

    // No scalar pipeline and no software dependency management --
    // machine-level properties the GCN3 differential asserts the
    // *presence* of (test_differential.cc). Kernel parameters flow
    // through LDC (the constant cache, counted as smem traffic), so
    // only the ALU and waitcnt buckets must be empty.
    EXPECT_EQ(p.salu, 0u);
    EXPECT_GT(p.smem, 0u);
    EXPECT_EQ(p.waitcnt, 0u);
    EXPECT_EQ(p.waitcntStalls, 0u);
    EXPECT_GT(p.scoreboardStalls, 0u);
    // More machine instructions than IL, like every machine backend.
    EXPECT_GE(p.dynInsts, h.dynInsts);
}

TEST(PtxlMachineShape, ConfigDigestSeparatesBackendsAndKnobs)
{
    GpuConfig cfg;
    const uint64_t base =
        finalizer::finalizeConfigDigest(cfg, IsaKind::PTXL);
    EXPECT_EQ(base, finalizer::finalizeConfigDigest(cfg, IsaKind::PTXL));
    EXPECT_NE(base, finalizer::finalizeConfigDigest(cfg, IsaKind::GCN3));

    GpuConfig knobbed;
    knobbed.maxRegsPerWfPtxl /= 2;
    EXPECT_NE(base, finalizer::finalizeConfigDigest(knobbed,
                                                    IsaKind::PTXL));
}
