/** @file CU timing-model tests (through the full runtime stack). */

#include <gtest/gtest.h>

#include "common/error.hh"
#include "cu/wavefront.hh"
#include "finalizer/finalizer.hh"
#include "finalizer/regalloc.hh"
#include "helpers.hh"
#include "runtime/runtime.hh"

using namespace last;
using namespace last::hsail;

namespace
{

/** Dispatch a builder-made kernel at an ISA level; returns a live
 *  Runtime for stats inspection. */
struct RunResult
{
    std::unique_ptr<runtime::Runtime> rt;
    IlKernel il;
    std::unique_ptr<arch::KernelCode> gcn;
    Cycle cycles = 0;

    double
    cu(const char *stat) const
    {
        return rt->gpu().sumCuStat(stat);
    }
};

RunResult
runKernel(IlKernel &&il, IsaKind isa, unsigned grid, unsigned wg,
          const void *args, size_t arg_bytes)
{
    RunResult r;
    r.rt = std::make_unique<runtime::Runtime>();
    r.il = std::move(il);
    finalizer::compactIlRegisters(r.il);
    arch::KernelCode *code = r.il.code.get();
    if (isa == IsaKind::GCN3) {
        r.gcn = finalizer::finalize(r.il, IsaKind::GCN3, r.rt->config());
        code = r.gcn.get();
    }
    r.cycles = r.rt->dispatch(*code, grid, wg, args, arg_bytes);
    return r;
}

IlKernel
storeGidKernel(Addr out)
{
    KernelBuilder kb("gid");
    Val gid = kb.workitemAbsId();
    Val off = kb.cvt(DataType::U64, kb.mul(gid, kb.immU32(4)));
    kb.stGlobal(gid, kb.add(kb.immU64(out), off));
    return kb.build();
}

} // namespace

TEST(CuTiming, PartialWavefrontMasks)
{
    // 320-wide grid with wg=256: the second workgroup has one full WF
    // and the grid is not a WF multiple... use 256+64 to keep wgSize
    // aligned and exercise a partially filled last workgroup.
    for (auto isa : {IsaKind::HSAIL, IsaKind::GCN3}) {
        auto r = runKernel(storeGidKernel(0x100000), isa, 320, 256,
                           nullptr, 0);
        for (unsigned i = 0; i < 320; ++i)
            EXPECT_EQ(r.rt->readGlobal<uint32_t>(0x100000 + 4 * i), i)
                << isaName(isa) << " idx " << i;
        // Nothing past the grid end was written.
        EXPECT_EQ(r.rt->readGlobal<uint32_t>(0x100000 + 4 * 320), 0u);
    }
}

TEST(CuTiming, InstructionCountsClassified)
{
    auto r = runKernel(storeGidKernel(0x100000), IsaKind::GCN3, 256,
                       256, nullptr, 0);
    double total = r.cu("dynInsts");
    double classified = r.cu("valuInsts") + r.cu("saluInsts") +
                        r.cu("vmemInsts") + r.cu("smemInsts") +
                        r.cu("ldsInsts") + r.cu("branchInsts") +
                        r.cu("waitcntInsts") + r.cu("miscInsts");
    EXPECT_GT(total, 0.0);
    EXPECT_DOUBLE_EQ(total, classified);
}

TEST(CuTiming, LoopCausesIbFlushesOnBothIsas)
{
    auto makeLoop = []() {
        KernelBuilder kb("loop");
        Val i = kb.immU32(0);
        Val one = kb.immU32(1);
        Val acc = kb.immF32(0.0f);
        kb.doBegin();
        kb.emitAluTo(Opcode::Add, acc, acc, kb.immF32(1.0f));
        kb.emitAluTo(Opcode::Add, i, i, one);
        kb.doEnd(kb.cmp(CmpOp::Lt, i, kb.immU32(16)));
        kb.stGlobal(acc, kb.immU64(0x1000));
        return kb.build();
    };
    auto h = runKernel(makeLoop(), IsaKind::HSAIL, 64, 64, nullptr, 0);
    auto g = runKernel(makeLoop(), IsaKind::GCN3, 64, 64, nullptr, 0);
    // 15 taken backedges each.
    EXPECT_GE(h.cu("ibFlushes"), 15.0);
    EXPECT_GE(g.cu("ibFlushes"), 15.0);
}

TEST(CuTiming, DivergenceFlushesOnlyHsail)
{
    // A divergent if-else is straight-line (predicated) under GCN3 but
    // costs reconvergence-stack jumps under HSAIL — Figure 9's
    // mechanism.
    auto makeDiv = []() {
        KernelBuilder kb("div");
        Val gid = kb.workitemAbsId();
        Val r = kb.immU32(0);
        Val c = kb.cmp(CmpOp::Lt, kb.and_(gid, kb.immU32(1)),
                       kb.immU32(1));
        kb.ifBegin(c);
        kb.emitAluTo(Opcode::Add, r, r, kb.immU32(84));
        kb.ifElse();
        kb.emitAluTo(Opcode::Add, r, r, kb.immU32(90));
        kb.ifEnd();
        Val off = kb.cvt(DataType::U64, kb.mul(gid, kb.immU32(4)));
        kb.stGlobal(r, kb.add(kb.immU64(0x4000), off));
        return kb.build();
    };
    auto h = runKernel(makeDiv(), IsaKind::HSAIL, 64, 64, nullptr, 0);
    auto g = runKernel(makeDiv(), IsaKind::GCN3, 64, 64, nullptr, 0);
    EXPECT_GT(h.cu("ibFlushes"), g.cu("ibFlushes"));
    EXPECT_EQ(g.cu("ibFlushes"), 0.0); // no taken branches at all
    // Functional results agree.
    for (unsigned i = 0; i < 64; ++i) {
        uint32_t want = (i & 1) ? 90 : 84;
        EXPECT_EQ(h.rt->readGlobal<uint32_t>(0x4000 + 4 * i), want);
        EXPECT_EQ(g.rt->readGlobal<uint32_t>(0x4000 + 4 * i), want);
    }
}

TEST(CuTiming, BarrierSynchronizesWorkgroup)
{
    // Work-item i writes LDS[i]; after the barrier it reads its
    // neighbour's slot from ANOTHER wavefront of the same workgroup.
    auto makeBar = []() {
        KernelBuilder kb("bar");
        kb.setLdsBytesPerWg(1024);
        Val lid = kb.workitemId();
        kb.stGroup(lid, kb.mul(lid, kb.immU32(4)));
        kb.barrier();
        // Read slot (lid + 64) % 256: always another WF's slot.
        Val peer = kb.and_(kb.add(lid, kb.immU32(64)),
                           kb.immU32(255));
        Val v = kb.ldGroup(DataType::U32, kb.mul(peer, kb.immU32(4)));
        Val off = kb.cvt(DataType::U64,
                         kb.mul(kb.workitemAbsId(), kb.immU32(4)));
        kb.stGlobal(v, kb.add(kb.immU64(0x8000), off));
        return kb.build();
    };
    for (auto isa : {IsaKind::HSAIL, IsaKind::GCN3}) {
        auto r = runKernel(makeBar(), isa, 256, 256, nullptr, 0);
        for (unsigned i = 0; i < 256; ++i)
            EXPECT_EQ(r.rt->readGlobal<uint32_t>(0x8000 + 4 * i),
                      (i + 64) & 255)
                << isaName(isa) << " @" << i;
    }
}

TEST(CuTiming, ScoreboardOnlyForHsail)
{
    auto h = runKernel(storeGidKernel(0x1000), IsaKind::HSAIL, 512,
                       256, nullptr, 0);
    auto g = runKernel(storeGidKernel(0x1000), IsaKind::GCN3, 512, 256,
                       nullptr, 0);
    EXPECT_EQ(h.cu("waitcntStalls"), 0.0);
    EXPECT_EQ(g.cu("scoreboardStalls"), 0.0);
    EXPECT_GT(g.cu("waitcntInsts"), 0.0);
    EXPECT_EQ(h.cu("hazardViolations"), 0.0);
    EXPECT_EQ(g.cu("hazardViolations"), 0.0);
}

TEST(CuTiming, SimdUtilizationTracksActiveLanes)
{
    // Half the lanes take a heavy divergent path.
    auto makeHalf = []() {
        KernelBuilder kb("half");
        Val gid = kb.workitemAbsId();
        Val c = kb.cmp(CmpOp::Lt, kb.and_(gid, kb.immU32(63)),
                       kb.immU32(32));
        Val acc = kb.immF32(0.0f);
        kb.ifBegin(c);
        for (int i = 0; i < 32; ++i)
            kb.emitAluTo(Opcode::Add, acc, acc, kb.immF32(1.0f));
        kb.ifEnd();
        Val off = kb.cvt(DataType::U64, kb.mul(gid, kb.immU32(4)));
        kb.stGlobal(acc, kb.add(kb.immU64(0x9000), off));
        return kb.build();
    };
    auto h = runKernel(makeHalf(), IsaKind::HSAIL, 256, 256, nullptr,
                       0);
    auto g = runKernel(makeHalf(), IsaKind::GCN3, 256, 256, nullptr,
                       0);
    // Utilization well below 1 and close across ISAs (Table 6).
    auto util = [](const RunResult &r) {
        auto &cu0 = r.rt->gpu().computeUnit(0);
        double s = 0, n = 0;
        for (unsigned c = 0; c < r.rt->gpu().numCus(); ++c) {
            auto &cu = r.rt->gpu().computeUnit(c);
            s += cu.valuUtilization.value() *
                 double(cu.valuUtilization.samples());
            n += double(cu.valuUtilization.samples());
        }
        (void)cu0;
        return n ? s / n : 0.0;
    };
    double hu = util(h), gu = util(g);
    EXPECT_LT(hu, 0.9);
    EXPECT_LT(gu, 0.9);
    EXPECT_NEAR(hu, gu, 0.15);
}

TEST(CuTiming, InstFootprintDiffersByEncoding)
{
    auto h = runKernel(storeGidKernel(0x1000), IsaKind::HSAIL, 64, 64,
                       nullptr, 0);
    auto g = runKernel(storeGidKernel(0x1000), IsaKind::GCN3, 64, 64,
                       nullptr, 0);
    EXPECT_GT(h.rt->instFootprintBytes(), 0u);
    EXPECT_GT(g.rt->instFootprintBytes(),
              h.rt->instFootprintBytes());
}

TEST(CuTiming, OldestFirstTieBreakIsExplicit)
{
    // The issue-stage age order must be bit-stable: dispatch sequence
    // first, then slot index as a deterministic tie-break (never
    // implementation-defined sort behaviour).
    cu::Wavefront older(/*slot=*/7, /*simd=*/0);
    cu::Wavefront newer(/*slot=*/1, /*simd=*/0);
    older.dispatchSeq = 10;
    newer.dispatchSeq = 20;
    EXPECT_TRUE(cu::Wavefront::olderThan(older, newer));
    EXPECT_FALSE(cu::Wavefront::olderThan(newer, older));

    // Equal dispatchSeq: the lower slot wins, irreflexively.
    cu::Wavefront slot2(2, 0), slot5(5, 0);
    slot2.dispatchSeq = slot5.dispatchSeq = 42;
    EXPECT_TRUE(cu::Wavefront::olderThan(slot2, slot5));
    EXPECT_FALSE(cu::Wavefront::olderThan(slot5, slot2));
    EXPECT_FALSE(cu::Wavefront::olderThan(slot2, slot2));
}

TEST(CuTiming, WfSlotsOutsideOneMaskWordAreRejected)
{
    // The fetch stage scans a one-word live-slot mask: a GPU with no
    // slots (which could only deadlock) or more than 64 is refused with
    // a ConfigError naming the field.
    for (unsigned slots : {0u, 65u}) {
        GpuConfig cfg;
        cfg.wfSlotsPerCu = slots;
        try {
            runtime::Runtime rt(cfg);
            ADD_FAILURE() << slots << " slots accepted";
        } catch (const ConfigError &e) {
            EXPECT_NE(std::string(e.what()).find("wfSlotsPerCu"),
                      std::string::npos)
                << e.what();
        }
    }
    GpuConfig full;
    full.wfSlotsPerCu = 64;
    EXPECT_NO_THROW(runtime::Runtime rt(full));
}
