/** @file Runtime / command-processor / segment-manager tests. */

#include <gtest/gtest.h>

#include "finalizer/abi.hh"
#include "finalizer/finalizer.hh"
#include "finalizer/regalloc.hh"
#include "helpers.hh"
#include "runtime/runtime.hh"

using namespace last;
using namespace last::hsail;

TEST(Runtime, AllocAligns)
{
    runtime::Runtime rt;
    Addr a = rt.allocGlobal(100, 64);
    Addr b = rt.allocGlobal(4, 4096);
    EXPECT_EQ(a % 64, 0u);
    EXPECT_EQ(b % 4096, 0u);
    EXPECT_GE(b, a + 100);
}

TEST(Runtime, GlobalReadWrite)
{
    runtime::Runtime rt;
    Addr a = rt.allocGlobal(16);
    rt.writeGlobal<uint64_t>(a, 0x1234567890ull);
    EXPECT_EQ(rt.readGlobal<uint64_t>(a), 0x1234567890ull);
}

TEST(Runtime, PacketFieldsMatchAbi)
{
    runtime::Runtime rt;
    KernelBuilder kb("pkt");
    kb.setKernargBytes(8);
    Val p = kb.ldKernarg(DataType::U64, 0);
    kb.stGlobal(kb.workgroupSize(), p);
    kb.stGlobal(kb.gridSize(), p, 4);
    auto il = kb.build();
    finalizer::compactIlRegisters(il);

    Addr out = rt.allocGlobal(64);
    struct Args
    {
        uint64_t out;
    } args{out};
    rt.dispatch(*il.code, 512, 256, &args, sizeof(args));
    EXPECT_EQ(rt.readGlobal<uint32_t>(out), 256u);
    EXPECT_EQ(rt.readGlobal<uint32_t>(out + 4), 512u);
}

TEST(Runtime, Gcn3ReadsPacketThroughMemory)
{
    // The same kernel finalized: workgroupsize comes from an s_load of
    // the real AQL packet the CP wrote into memory.
    runtime::Runtime rt;
    KernelBuilder kb("pkt2");
    kb.setKernargBytes(8);
    Val p = kb.ldKernarg(DataType::U64, 0);
    kb.stGlobal(kb.workgroupSize(), p);
    auto il = kb.build();
    finalizer::compactIlRegisters(il);
    auto gcn = finalizer::finalize(il, IsaKind::GCN3, rt.config());

    Addr out = rt.allocGlobal(64);
    struct Args
    {
        uint64_t out;
    } args{out};
    rt.dispatch(*gcn, 256, 256, &args, sizeof(args));
    EXPECT_EQ(rt.readGlobal<uint32_t>(out), 256u);
    // Scalar memory traffic happened.
    EXPECT_GT(rt.gpu().sumCuStat("smemInsts"), 0.0);
}

TEST(Runtime, LaunchRecordsPerDispatch)
{
    runtime::Runtime rt;
    KernelBuilder kb("rec");
    kb.stGlobal(kb.immU32(1), kb.immU64(0x1000));
    auto il = kb.build();
    finalizer::compactIlRegisters(il);
    rt.dispatch(*il.code, 256, 256, nullptr, 0);
    rt.dispatch(*il.code, 256, 256, nullptr, 0);
    ASSERT_EQ(rt.launchRecords().size(), 2u);
    EXPECT_EQ(rt.launchRecords()[0].kernel, "rec");
    EXPECT_GT(rt.launchRecords()[0].cycles, 0u);
    EXPECT_GT(rt.launchRecords()[1].instsIssued, 0u);
}

TEST(Runtime, InstFootprintChargedOncePerKernel)
{
    runtime::Runtime rt;
    KernelBuilder kb("once");
    kb.stGlobal(kb.immU32(1), kb.immU64(0x1000));
    auto il = kb.build();
    finalizer::compactIlRegisters(il);
    rt.dispatch(*il.code, 256, 256, nullptr, 0);
    uint64_t f1 = rt.instFootprintBytes();
    rt.dispatch(*il.code, 256, 256, nullptr, 0);
    EXPECT_EQ(rt.instFootprintBytes(), f1);
    EXPECT_EQ(f1, il.code->codeBytes());
}

namespace
{

hsail::IlKernel
privateKernel()
{
    KernelBuilder kb("scratch");
    kb.setPrivateBytesPerWi(16);
    Val gid = kb.workitemAbsId();
    kb.stPrivate(gid, Val{}, 0);
    Val v = kb.ldPrivate(DataType::U32, Val{}, 0);
    Val off = kb.cvt(DataType::U64, kb.mul(gid, kb.immU32(4)));
    kb.stGlobal(v, kb.add(kb.immU64(0x200000), off));
    return kb.build();
}

} // namespace

TEST(Runtime, HsailAllocatesScratchPerLaunch)
{
    // Table 6's mechanism: the emulated HSAIL ABI maps new segment
    // arenas on every dynamic launch, so the data footprint grows
    // linearly in launches.
    runtime::Runtime rt;
    auto il = privateKernel();
    finalizer::compactIlRegisters(il);
    rt.dispatch(*il.code, 256, 256, nullptr, 0);
    uint64_t f1 = rt.dataFootprintBytes();
    rt.dispatch(*il.code, 256, 256, nullptr, 0);
    uint64_t f2 = rt.dataFootprintBytes();
    rt.dispatch(*il.code, 256, 256, nullptr, 0);
    uint64_t f3 = rt.dataFootprintBytes();
    EXPECT_GT(f2 - f1, 256u * 16 / 2); // fresh arena touched
    EXPECT_GT(f3 - f2, 256u * 16 / 2);
}

TEST(Runtime, Gcn3ReusesProcessScratch)
{
    runtime::Runtime rt;
    auto il = privateKernel();
    finalizer::compactIlRegisters(il);
    auto gcn = finalizer::finalize(il, IsaKind::GCN3, rt.config());
    rt.dispatch(*gcn, 256, 256, nullptr, 0);
    uint64_t f1 = rt.dataFootprintBytes();
    rt.dispatch(*gcn, 256, 256, nullptr, 0);
    uint64_t f2 = rt.dataFootprintBytes();
    // The second launch reuses the process arena: only the fresh
    // packet/kernarg lines appear, nothing scratch-sized.
    EXPECT_LT(f2 - f1, 1024u);
    EXPECT_LT(f2 - f1, 256u * 16 / 4);
    // And the scratch values were per-work-item correct.
    for (unsigned i = 0; i < 256; i += 37)
        EXPECT_EQ(rt.readGlobal<uint32_t>(0x200000 + 4 * i), i);
}

TEST(Runtime, RejectsBadDispatches)
{
    runtime::Runtime rt;
    KernelBuilder kb("bad");
    kb.stGlobal(kb.immU32(1), kb.immU64(0x1000));
    auto il = kb.build();
    EXPECT_THROW(rt.dispatch(*il.code, 0, 256, nullptr, 0),
                 std::runtime_error);
    EXPECT_THROW(rt.dispatch(*il.code, 256, 100, nullptr, 0),
                 std::runtime_error);
}

TEST(Runtime, RejectsUndispatchableKernels)
{
    // A kernel whose register demand can never fit a CU must fail
    // loudly instead of deadlocking the dispatcher.
    runtime::Runtime rt;
    KernelBuilder kb("huge");
    std::vector<Val> keep;
    Val acc = kb.immF32(0.0f);
    for (int i = 0; i < 700; ++i)
        keep.push_back(kb.immF32(float(i)));
    for (auto &v : keep)
        kb.emitAluTo(Opcode::Add, acc, acc, v);
    kb.stGlobal(acc, kb.immU64(0x1000));
    auto il = kb.build(); // ~700 live registers -> 2,800 per WG
    EXPECT_THROW(rt.dispatch(*il.code, 256, 256, nullptr, 0),
                 std::runtime_error);
}
