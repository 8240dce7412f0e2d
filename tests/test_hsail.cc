/** @file HSAIL ISA semantics tests (functional, one wavefront). */

#include <gtest/gtest.h>

#include <bit>

#include "helpers.hh"
#include "hsail/brig.hh"
#include "hsail/inst.hh"

using namespace last;
using namespace last::hsail;
using last::test::MiniWf;

namespace
{

/** Build a tiny kernel from a body closure and run one WF. */
template <typename Body>
std::pair<std::unique_ptr<arch::KernelCode>, Val>
buildSimple(Body body)
{
    KernelBuilder kb("t");
    Val result = body(kb);
    auto il = kb.build();
    return {std::move(il.code), result};
}

float b2f(uint32_t b) { return std::bit_cast<float>(b); }

} // namespace

TEST(HsailExec, IntArithmetic)
{
    auto [code, r] = buildSimple([](KernelBuilder &kb) {
        Val a = kb.immU32(100);
        Val b = kb.immU32(7);
        return kb.add(kb.mul(a, b), kb.sub(a, b)); // 700 + 93
    });
    MiniWf wf(*code);
    wf.run();
    for (unsigned lane = 0; lane < 64; ++lane)
        EXPECT_EQ(wf.st.readVreg(r.reg, lane), 793u);
}

TEST(HsailExec, MulHi)
{
    auto [code, r] = buildSimple([](KernelBuilder &kb) {
        return kb.mulHi(kb.immU32(0x80000000u), kb.immU32(4));
    });
    MiniWf wf(*code);
    wf.run();
    EXPECT_EQ(wf.st.readVreg(r.reg, 0), 2u);
}

TEST(HsailExec, FloatOps)
{
    auto [code, r] = buildSimple([](KernelBuilder &kb) {
        Val x = kb.immF32(3.0f);
        Val y = kb.immF32(4.0f);
        return kb.sqrt_(kb.fma_(x, x, kb.mul(y, y))); // 5
    });
    MiniWf wf(*code);
    wf.run();
    EXPECT_FLOAT_EQ(b2f(wf.st.readVreg(r.reg, 0)), 5.0f);
}

TEST(HsailExec, F64Pairs)
{
    auto [code, r] = buildSimple([](KernelBuilder &kb) {
        Val x = kb.immF64(1.5);
        Val y = kb.immF64(2.5);
        return kb.div(kb.add(x, y), y); // 1.6
    });
    MiniWf wf(*code);
    wf.run();
    EXPECT_DOUBLE_EQ(
        std::bit_cast<double>(wf.st.readVreg64(r.reg, 0)), 1.6);
}

TEST(HsailExec, IntegerDivRem)
{
    auto [code, r] = buildSimple([](KernelBuilder &kb) {
        Val q = kb.div(kb.immU32(17), kb.immU32(5));
        Val m = kb.emitAlu2(Opcode::Rem, kb.immU32(17), kb.immU32(5));
        return kb.add(kb.shl(q, kb.immU32(8)), m); // 3 << 8 | 2
    });
    MiniWf wf(*code);
    wf.run();
    EXPECT_EQ(wf.st.readVreg(r.reg, 0), (3u << 8) + 2u);
}

TEST(HsailExec, BitOpsAndShifts)
{
    auto [code, r] = buildSimple([](KernelBuilder &kb) {
        Val x = kb.immU32(0xf0f0);
        Val s = kb.shl(x, kb.immU32(4));           // 0xf0f00
        Val t = kb.shr(s, kb.immU32(8));           // 0xf0f
        return kb.xor_(kb.and_(t, kb.immU32(0xff)), // 0x0f
                       kb.or_(x, kb.immU32(1)));    // ^ 0xf0f1
    });
    MiniWf wf(*code);
    wf.run();
    EXPECT_EQ(wf.st.readVreg(r.reg, 0), (0xfu ^ 0xf0f1u));
}

TEST(HsailExec, AShrSigned)
{
    auto [code, r] = buildSimple([](KernelBuilder &kb) {
        return kb.ashr(kb.immS32(-64), kb.immU32(3));
    });
    MiniWf wf(*code);
    wf.run();
    EXPECT_EQ(int32_t(wf.st.readVreg(r.reg, 0)), -8);
}

TEST(HsailExec, BfeExtract)
{
    auto [code, r] = buildSimple([](KernelBuilder &kb) {
        return kb.bfe(kb.immU32(0xabcd1234), kb.immU32(8),
                      kb.immU32(8));
    });
    MiniWf wf(*code);
    wf.run();
    EXPECT_EQ(wf.st.readVreg(r.reg, 0), 0x12u);
}

TEST(HsailExec, CmpAndCmov)
{
    auto [code, r] = buildSimple([](KernelBuilder &kb) {
        Val gid = kb.workitemAbsId();
        Val c = kb.cmp(CmpOp::Lt, gid, kb.immU32(32));
        return kb.cmov(c, kb.immU32(111), kb.immU32(222));
    });
    MiniWf wf(*code);
    wf.run();
    EXPECT_EQ(wf.st.readVreg(r.reg, 0), 111u);
    EXPECT_EQ(wf.st.readVreg(r.reg, 63), 222u);
}

TEST(HsailExec, CvtRoundTrips)
{
    auto [code, r] = buildSimple([](KernelBuilder &kb) {
        Val f = kb.cvt(DataType::F32, kb.immU32(41));
        Val d = kb.cvt(DataType::F64, f);
        return kb.cvt(DataType::U32, kb.cvt(DataType::F32, d));
    });
    MiniWf wf(*code);
    wf.run();
    EXPECT_EQ(wf.st.readVreg(r.reg, 0), 41u);
}

TEST(HsailExec, DispatchIntrinsics)
{
    KernelBuilder kb("intrin");
    Val abs = kb.workitemAbsId();
    Val wid = kb.workitemId();
    Val wg = kb.workgroupId();
    Val sz = kb.workgroupSize();
    Val gs = kb.gridSize();
    auto il = kb.build();
    MiniWf wf(*il.code, 128, 512, 3); // wg 3 of size 128
    wf.st.wfIdInWg = 1;
    wf.st.firstWorkitem = 3 * 128 + 64;
    wf.run();
    EXPECT_EQ(wf.st.readVreg(abs.reg, 0), 3u * 128 + 64);
    EXPECT_EQ(wf.st.readVreg(wid.reg, 5), 64u + 5);
    EXPECT_EQ(wf.st.readVreg(wg.reg, 0), 3u);
    EXPECT_EQ(wf.st.readVreg(sz.reg, 0), 128u);
    EXPECT_EQ(wf.st.readVreg(gs.reg, 0), 512u);
}

TEST(HsailExec, GlobalLoadStore)
{
    KernelBuilder kb("mem");
    Val addr = kb.immU64(0x4000);
    Val v = kb.ldGlobal(DataType::U32, addr);
    Val w = kb.add(v, kb.immU32(5));
    kb.stGlobal(w, addr, 64);
    auto il = kb.build();
    MiniWf wf(*il.code);
    wf.mem.write<uint32_t>(0x4000, 37);
    wf.run();
    EXPECT_EQ(wf.mem.read<uint32_t>(0x4040), 42u);
}

TEST(HsailExec, KernargLoadBroadcasts)
{
    KernelBuilder kb("ka");
    Val a = kb.ldKernarg(DataType::U32, 4);
    kb.stGlobal(a, kb.immU64(0x9000));
    auto il = kb.build();
    MiniWf wf(*il.code);
    wf.st.kernargBase = 0x100;
    wf.mem.write<uint32_t>(0x104, 777);
    wf.run();
    EXPECT_EQ(wf.st.readVreg(a.reg, 0), 777u);
    EXPECT_EQ(wf.st.readVreg(a.reg, 63), 777u);
}

TEST(HsailExec, PrivateSegmentIsPerWorkitem)
{
    KernelBuilder kb("priv");
    kb.setPrivateBytesPerWi(16);
    Val gid = kb.workitemAbsId();
    kb.stPrivate(gid, Val{}, 0);
    Val back = kb.ldPrivate(DataType::U32, Val{}, 0);
    auto il = kb.build();
    Val r = back;
    MiniWf wf(*il.code);
    wf.st.privateBase = 0x100000;
    wf.st.privateStridePerWi = 16;
    wf.run();
    for (unsigned lane = 0; lane < 64; lane += 13)
        EXPECT_EQ(wf.st.readVreg(r.reg, lane), lane);
    // Distinct addresses were touched per work-item.
    EXPECT_EQ(wf.mem.read<uint32_t>(0x100000 + 16 * 9), 9u);
}

TEST(HsailExec, GroupSegmentSharedWithinWg)
{
    KernelBuilder kb("lds");
    Val lid = kb.workitemId();
    kb.stGroup(lid, kb.mul(lid, kb.immU32(4)));
    kb.barrier();
    // Read neighbour (lid ^ 1).
    Val n = kb.ldGroup(DataType::U32,
                       kb.mul(kb.xor_(lid, kb.immU32(1)),
                              kb.immU32(4)));
    auto il = kb.build();
    MiniWf wf(*il.code);
    wf.run();
    EXPECT_EQ(wf.st.readVreg(n.reg, 0), 1u);
    EXPECT_EQ(wf.st.readVreg(n.reg, 1), 0u);
    EXPECT_EQ(wf.st.readVreg(n.reg, 10), 11u);
}

TEST(HsailExec, AtomicAddReturnsOld)
{
    KernelBuilder kb("atomic");
    Val addr = kb.immU64(0x5000);
    Val old = kb.atomicAddGlobal(addr, kb.immU32(1));
    auto il = kb.build();
    MiniWf wf(*il.code);
    wf.run();
    // Lanes execute in lane order within the instruction.
    EXPECT_EQ(wf.st.readVreg(old.reg, 0), 0u);
    EXPECT_EQ(wf.st.readVreg(old.reg, 63), 63u);
    EXPECT_EQ(wf.mem.read<uint32_t>(0x5000), 64u);
}

TEST(HsailExec, FixedEncodingSize)
{
    auto [code, r] = buildSimple([](KernelBuilder &kb) {
        return kb.add(kb.immU32(1), kb.immU32(2));
    });
    (void)r;
    for (size_t i = 0; i < code->numInsts(); ++i)
        EXPECT_EQ(code->inst(i).sizeBytes(), 8u);
    EXPECT_EQ(code->codeBytes(), code->numInsts() * 8);
}

TEST(HsailBrig, RoundTripPreservesDisassembly)
{
    auto il = last::test::randomKernel(42);
    BrigBlob blob = encodeBrig(*il.code);
    EXPECT_EQ(blob.size() % 1, 0u);
    auto decoded = decodeBrig(blob);
    ASSERT_EQ(decoded->numInsts(), il.code->numInsts());
    EXPECT_EQ(decoded->disassemble(), il.code->disassemble());
    EXPECT_EQ(decoded->vregsUsed, il.code->vregsUsed);
    EXPECT_EQ(decoded->kernargBytes, il.code->kernargBytes);
}

TEST(HsailBrig, RecordsAreVerbose)
{
    // The container intentionally spends 64 bytes per instruction —
    // designed for finalizer consumption, not hardware fetch.
    auto il = last::test::randomKernel(1);
    BrigBlob blob = encodeBrig(*il.code);
    EXPECT_GE(blob.size(), il.code->numInsts() * BrigRecordBytes);
    // ... while the fetchable pseudo-encoding is 8 bytes/inst.
    EXPECT_EQ(il.code->codeBytes(), il.code->numInsts() * 8);
}

TEST(HsailBrig, RejectsCorruptBlobs)
{
    auto il = last::test::randomKernel(7);
    BrigBlob blob = encodeBrig(*il.code);
    blob[0] ^= 0xff;
    EXPECT_THROW(decodeBrig(blob), std::runtime_error);
    BrigBlob truncated(blob.begin(), blob.begin() + 8);
    EXPECT_THROW(decodeBrig(truncated), std::runtime_error);

    // A record whose opcode, dtype, srcDtype, segment or cmpOp byte
    // lies outside its enum, here an ALU instruction's (whose types
    // pick its handler), is rejected too.
    const BrigBlob good = encodeBrig(*il.code);
    const size_t n = il.code->numInsts();
    size_t alu = 0;
    while (alu < n &&
           static_cast<const HsailInst &>(il.code->inst(alu)).op() >
               Opcode::Cvt)
        ++alu;
    ASSERT_LT(alu, n);
    const size_t rec = good.size() - (n - alu) * BrigRecordBytes;
    for (size_t field = 0; field < 5; ++field) {
        BrigBlob bad = good;
        bad[rec + field] = 0xff;
        EXPECT_THROW(decodeBrig(bad), std::runtime_error)
            << "record byte " << field;
    }
}
