/** @file Finalizer tests: expansions, ABI, scalarization, waitcnt. */

#include <gtest/gtest.h>

#include "finalizer/abi.hh"
#include "finalizer/finalizer.hh"
#include "finalizer/regalloc.hh"
#include "finalizer/uniformity.hh"
#include "gcn3/inst.hh"
#include "helpers.hh"

using namespace last;
using namespace last::hsail;
using last::finalizer::FinalizeStats;
using last::finalizer::finalize;

namespace
{

std::vector<std::string>
mnemonics(const arch::KernelCode &code)
{
    std::vector<std::string> out;
    for (size_t i = 0; i < code.numInsts(); ++i)
        out.push_back(code.inst(i).mnemonic());
    return out;
}

unsigned
count(const std::vector<std::string> &ms, const std::string &m)
{
    unsigned n = 0;
    for (const auto &s : ms)
        if (s == m)
            ++n;
    return n;
}

bool
containsSeq(const std::vector<std::string> &ms,
            const std::vector<std::string> &seq)
{
    for (size_t i = 0; i + seq.size() <= ms.size(); ++i) {
        bool ok = true;
        for (size_t j = 0; j < seq.size(); ++j)
            ok = ok && ms[i + j] == seq[j];
        if (ok)
            return true;
    }
    return false;
}

} // namespace

TEST(FinalizerAbi, Table1WorkitemAbsIdExpansion)
{
    KernelBuilder kb("t1");
    Val gid = kb.workitemAbsId();
    kb.stGlobal(gid, kb.immU64(0x1000));
    auto il = kb.build();
    auto code = finalize(il, IsaKind::GCN3, GpuConfig{});
    auto ms = mnemonics(*code);
    // The paper's five-instruction sequence (the waitcnt is inserted
    // automatically before the first use of the loaded value).
    EXPECT_TRUE(containsSeq(
        ms, {"s_load_dword", "s_waitcnt", "s_bfe_u32", "s_mul_i32",
             "v_add_u32"}))
        << code->disassemble();
}

TEST(FinalizerAbi, Table2KernargExpansion)
{
    KernelBuilder kb("t2");
    kb.setKernargBytes(8);
    Val p = kb.ldKernarg(DataType::U64, 0);
    Val v = kb.ldGlobal(DataType::U32, p);
    kb.stGlobal(v, p, 64);
    auto il = kb.build();
    auto code = finalize(il, IsaKind::GCN3, GpuConfig{});
    auto ms = mnemonics(*code);
    // Kernarg comes through s[6:7]; the flat address needs the
    // scalar base moved into vector registers (two v_movs).
    EXPECT_GE(count(ms, "s_load_dwordx2"), 1u) << code->disassemble();
    EXPECT_TRUE(containsSeq(ms, {"v_mov_b32", "v_mov_b32",
                                 "flat_load_dword"}))
        << code->disassemble();
}

TEST(FinalizerAbi, Table3DivideExpansion)
{
    KernelBuilder kb("t3");
    Val a = kb.immF64(2.0);
    Val b = kb.immF64(3.0);
    Val q = kb.div(a, b);
    kb.stGlobal(q, kb.immU64(0x1000));
    auto il = kb.build();
    FinalizeStats st;
    auto code = finalize(il, IsaKind::GCN3, GpuConfig{}, &st);
    auto ms = mnemonics(*code);
    EXPECT_EQ(count(ms, "v_div_scale_f64"), 2u);
    EXPECT_EQ(count(ms, "v_rcp_f64"), 1u);
    EXPECT_GE(count(ms, "v_fma_f64"), 5u);
    EXPECT_EQ(count(ms, "v_div_fmas_f64"), 1u);
    EXPECT_EQ(count(ms, "v_div_fixup_f64"), 1u);
    // The expansion is an order of magnitude over the single IL div.
    EXPECT_GE(code->numInsts(), il.code->numInsts() + 10);
}

TEST(FinalizerAbi, F32DivideExpansion)
{
    KernelBuilder kb("t3f");
    Val q = kb.div(kb.immF32(1.0f), kb.immF32(7.0f));
    kb.stGlobal(q, kb.immU64(0x1000));
    auto il = kb.build();
    auto code = finalize(il, IsaKind::GCN3, GpuConfig{});
    auto ms = mnemonics(*code);
    EXPECT_EQ(count(ms, "v_div_scale_f32"), 2u);
    EXPECT_EQ(count(ms, "v_div_fixup_f32"), 1u);
}

TEST(FinalizerAbi, IntegerDivisionRejected)
{
    KernelBuilder kb("idiv");
    Val q = kb.div(kb.immU32(10), kb.immU32(3));
    kb.stGlobal(q, kb.immU64(0x1000));
    auto il = kb.build();
    EXPECT_THROW(finalize(il, IsaKind::GCN3, GpuConfig{}), std::runtime_error);
}

TEST(FinalizerScalar, UniformLoopUsesScalarBranch)
{
    KernelBuilder kb("uloop");
    Val i = kb.immU32(0);
    Val one = kb.immU32(1);
    Val acc = kb.cvt(DataType::F32, kb.workitemAbsId());
    kb.doBegin();
    kb.emitAluTo(Opcode::Add, acc, acc, kb.immF32(1.0f));
    kb.emitAluTo(Opcode::Add, i, i, one);
    kb.doEnd(kb.cmp(CmpOp::Lt, i, kb.immU32(10)));
    kb.stGlobal(acc, kb.immU64(0x1000));
    auto il = kb.build();
    FinalizeStats st;
    auto code = finalize(il, IsaKind::GCN3, GpuConfig{}, &st);
    auto ms = mnemonics(*code);
    EXPECT_GE(count(ms, "s_cbranch_scc1"), 1u) << code->disassemble();
    EXPECT_EQ(count(ms, "s_and_saveexec_b64"), 0u);
    EXPECT_EQ(count(ms, "s_mov_b64"), 0u); // no exec save needed
    EXPECT_GE(count(ms, "s_add_u32"), 1u); // scalar loop counter
    EXPECT_GT(st.scalarInsts, 0u);
}

TEST(FinalizerScalar, DivergentIfUsesExecMask)
{
    KernelBuilder kb("divif");
    Val gid = kb.workitemAbsId();
    Val r = kb.immF32(0.0f);
    Val c = kb.cmp(CmpOp::Lt, gid, kb.immU32(10));
    kb.ifBegin(c);
    kb.emitAluTo(Opcode::Add, r, r, kb.immF32(1.0f));
    kb.ifEnd();
    kb.stGlobal(r, kb.immU64(0x1000));
    auto il = kb.build();
    auto code = finalize(il, IsaKind::GCN3, GpuConfig{});
    auto ms = mnemonics(*code);
    EXPECT_EQ(count(ms, "s_and_saveexec_b64"), 1u)
        << code->disassemble();
    EXPECT_GE(count(ms, "s_cbranch_execz"), 1u); // bypass arc
    EXPECT_GE(count(ms, "s_mov_b64"), 1u);       // reconverge restore
}

TEST(FinalizerScalar, DivergentIfElseUsesXor)
{
    KernelBuilder kb("divife");
    Val gid = kb.workitemAbsId();
    Val r = kb.immF32(0.0f);
    Val c = kb.cmp(CmpOp::Lt, gid, kb.immU32(10));
    kb.ifBegin(c);
    kb.emitAluTo(Opcode::Add, r, r, kb.immF32(1.0f));
    kb.ifElse();
    kb.emitAluTo(Opcode::Add, r, r, kb.immF32(2.0f));
    kb.ifEnd();
    kb.stGlobal(r, kb.immU64(0x1000));
    auto il = kb.build();
    auto code = finalize(il, IsaKind::GCN3, GpuConfig{});
    auto ms = mnemonics(*code);
    EXPECT_EQ(count(ms, "s_xor_b64"), 1u) << code->disassemble();
}

TEST(FinalizerScalar, KernargStaysInSgprs)
{
    KernelBuilder kb("ka");
    kb.setKernargBytes(12);
    Val n = kb.ldKernarg(DataType::U32, 8);
    Val doubled = kb.add(n, n);
    Val p = kb.ldKernarg(DataType::U64, 0);
    kb.stGlobal(doubled, p);
    auto il = kb.build();
    auto uni = finalizer::analyzeUniformity(il);
    EXPECT_TRUE(uni.isResident(n.reg));
    EXPECT_TRUE(uni.isResident(doubled.reg));
    EXPECT_TRUE(uni.isResident(p.reg));
}

TEST(FinalizerScalar, DivergentValuesStayVector)
{
    KernelBuilder kb("dv");
    Val gid = kb.workitemAbsId();
    Val x = kb.add(gid, kb.immU32(1));
    Val u = kb.add(kb.immU32(2), kb.immU32(3));
    kb.stGlobal(kb.add(x, u), kb.immU64(0x1000));
    auto il = kb.build();
    auto uni = finalizer::analyzeUniformity(il);
    EXPECT_FALSE(uni.isUniform(gid.reg));
    EXPECT_FALSE(uni.isUniform(x.reg));
    EXPECT_TRUE(uni.isUniform(u.reg));
    EXPECT_TRUE(uni.isResident(u.reg));
}

TEST(FinalizerScalar, WritesInDivergentRegionsDemote)
{
    KernelBuilder kb("demote");
    Val gid = kb.workitemAbsId();
    Val u = kb.immU32(5); // starts uniform
    Val c = kb.cmp(CmpOp::Lt, gid, kb.immU32(10));
    kb.ifBegin(c);
    kb.emitAluTo(Opcode::Add, u, u, kb.immU32(1));
    kb.ifEnd();
    kb.stGlobal(u, kb.immU64(0x1000));
    auto il = kb.build();
    auto uni = finalizer::analyzeUniformity(il);
    EXPECT_FALSE(uni.isUniform(u.reg));
}

TEST(FinalizerDeps, WaitcntBeforeFirstUse)
{
    KernelBuilder kb("wc");
    kb.setKernargBytes(8);
    Val p = kb.ldKernarg(DataType::U64, 0);
    Val v = kb.ldGlobal(DataType::F32, p);
    Val w = kb.add(v, v);
    kb.stGlobal(w, p, 4);
    auto il = kb.build();
    FinalizeStats st;
    auto code = finalize(il, IsaKind::GCN3, GpuConfig{}, &st);
    EXPECT_GT(st.waitcntInserted, 0u);
    // Scan: between every flat_load and the first read of its dest
    // there must be an s_waitcnt with vmcnt(0).
    bool load_seen = false, wait_before_use = false;
    for (size_t i = 0; i < code->numInsts(); ++i) {
        const auto &inst = code->inst(i);
        if (inst.mnemonic() == "flat_load_dword")
            load_seen = true;
        else if (load_seen && inst.is(arch::IsWaitcnt)) {
            wait_before_use = true;
            break;
        } else if (load_seen && inst.mnemonic() == "v_add_f32") {
            break; // consumed without waiting: failure
        }
    }
    EXPECT_TRUE(load_seen);
    EXPECT_TRUE(wait_before_use) << code->disassemble();
}

TEST(FinalizerDeps, EndpgmDrainsStores)
{
    KernelBuilder kb("drain");
    kb.stGlobal(kb.immU32(1), kb.immU64(0x1000));
    auto il = kb.build();
    auto code = finalize(il, IsaKind::GCN3, GpuConfig{});
    auto ms = mnemonics(*code);
    // Last two instructions: waitcnt then endpgm.
    ASSERT_GE(ms.size(), 2u);
    EXPECT_EQ(ms[ms.size() - 1], "s_endpgm");
    EXPECT_EQ(ms[ms.size() - 2], "s_waitcnt");
}

TEST(FinalizerDeps, NopAfterVccProducerBeforeScalarRead)
{
    KernelBuilder kb("nop");
    Val gid = kb.workitemAbsId();
    Val c = kb.cmp(CmpOp::Lt, gid, kb.immU32(7));
    kb.ifBegin(c);
    kb.stGlobal(kb.immU32(1), kb.immU64(0x1000));
    kb.ifEnd();
    auto il = kb.build();
    FinalizeStats st;
    auto code = finalize(il, IsaKind::GCN3, GpuConfig{}, &st);
    auto ms = mnemonics(*code);
    // v_cmp writes vcc; s_and_saveexec reads it the next slot: a
    // deterministic-latency bubble must be inserted.
    EXPECT_TRUE(containsSeq(ms, {"v_cmp_lt_u32", "s_nop",
                                 "s_and_saveexec_b64"}))
        << code->disassemble();
    EXPECT_GT(st.nopsInserted, 0u);
}

TEST(FinalizerDeps, BarrierWaitsEverything)
{
    KernelBuilder kb("bar");
    kb.setLdsBytesPerWg(256);
    Val lid = kb.workitemId();
    kb.stGroup(lid, kb.mul(lid, kb.immU32(4)));
    kb.barrier();
    Val v = kb.ldGroup(DataType::U32, kb.mul(lid, kb.immU32(4)));
    kb.stGlobal(v, kb.immU64(0x2000));
    auto il = kb.build();
    auto code = finalize(il, IsaKind::GCN3, GpuConfig{});
    auto ms = mnemonics(*code);
    bool ok = false;
    for (size_t i = 0; i + 1 < ms.size(); ++i)
        ok = ok || (ms[i] == "s_waitcnt" && ms[i + 1] == "s_barrier");
    EXPECT_TRUE(ok) << code->disassemble();
}

TEST(FinalizerCode, ExpansionRatioInPaperRange)
{
    // Across random kernels the GCN3 dynamic expansion comes mostly
    // from static expansion; check the static ratio is > 1.
    for (uint64_t seed : {1, 2, 3, 4, 5}) {
        auto il = last::test::randomKernel(seed);
        finalizer::compactIlRegisters(il);
        auto code = finalize(il, IsaKind::GCN3, GpuConfig{});
        EXPECT_GT(code->numInsts(), il.code->numInsts())
            << "seed " << seed;
        EXPECT_LT(code->numInsts(), il.code->numInsts() * 6)
            << "seed " << seed;
    }
}

TEST(FinalizerCode, FootprintUsesVariableEncoding)
{
    auto il = last::test::randomKernel(9);
    finalizer::compactIlRegisters(il);
    auto code = finalize(il, IsaKind::GCN3, GpuConfig{});
    uint64_t bytes = 0;
    bool saw4 = false, saw8 = false;
    for (size_t i = 0; i < code->numInsts(); ++i) {
        unsigned s = code->inst(i).sizeBytes();
        bytes += s;
        saw4 = saw4 || s == 4;
        saw8 = saw8 || s >= 8;
    }
    EXPECT_EQ(bytes, code->codeBytes());
    EXPECT_TRUE(saw4);
    EXPECT_TRUE(saw8);
}

TEST(FinalizerCode, ResourceMetadataPlausible)
{
    auto il = last::test::randomKernel(11);
    finalizer::compactIlRegisters(il);
    FinalizeStats st;
    GpuConfig cfg;
    auto code = finalize(il, IsaKind::GCN3, cfg, &st);
    EXPECT_LE(code->vregsUsed, cfg.maxVgprsPerWfGcn3);
    EXPECT_LE(code->sregsUsed, cfg.maxSgprsPerWfGcn3);
    EXPECT_EQ(st.vgprsUsed, code->vregsUsed);
    // Every emitted vector register must be within the declared count.
    for (size_t i = 0; i < code->numInsts(); ++i)
        for (const auto &op : code->inst(i).regOps()) {
            if (op.cls == arch::RegClass::Vector) {
                EXPECT_LT(op.idx + op.width - 1, code->vregsUsed);
            }
        }
}

TEST(RegAlloc, CompactionShrinksAndPreservesSemantics)
{
    auto il = last::test::randomKernel(21);
    unsigned before = il.code->vregsUsed;
    // Execute pre-compaction.
    last::test::MiniWf wf1(*il.code);
    wf1.st.kernargBase = 0x100;
    wf1.mem.write<uint64_t>(0x100, 0x10000);
    wf1.mem.write<uint64_t>(0x108, 0x20000);
    for (unsigned i = 0; i < 64; ++i)
        wf1.mem.write<uint32_t>(0x10000 + 4 * i, i * 977 + 3);
    wf1.run();

    finalizer::compactIlRegisters(il);
    EXPECT_LE(il.code->vregsUsed, before);
    for (size_t i = 0; i < il.code->numInsts(); ++i)
        for (const auto &op : il.code->inst(i).regOps())
            EXPECT_LT(op.idx + op.width - 1, il.code->vregsUsed);

    last::test::MiniWf wf2(*il.code);
    wf2.st.kernargBase = 0x100;
    wf2.mem.write<uint64_t>(0x100, 0x10000);
    wf2.mem.write<uint64_t>(0x108, 0x20000);
    for (unsigned i = 0; i < 64; ++i)
        wf2.mem.write<uint32_t>(0x10000 + 4 * i, i * 977 + 3);
    wf2.run();

    for (unsigned lane = 0; lane < 64; ++lane)
        EXPECT_EQ(wf1.mem.read<uint32_t>(0x20000 + 4 * lane),
                  wf2.mem.read<uint32_t>(0x20000 + 4 * lane))
            << "lane " << lane;
}
