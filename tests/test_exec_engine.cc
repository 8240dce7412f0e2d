/**
 * @file
 * Differential suite for the predecoded direct-threaded execution
 * engine (DESIGN.md §4f): the engine is a pure performance
 * transformation, so every workload run through the predecoded
 * handlers must be *field-for-field identical* — every statistic,
 * digest, and launch record — to the same run through the legacy
 * virtual-dispatch reference (GpuConfig::execReference), and the
 * bench-cache rows serialized from the two runs must be byte-identical
 * files. A third test pins the predecode contract itself: every
 * ExecMeta record must agree with the virtual methods it replaces; a
 * fourth, which GCN3 VALU/VOPC opcodes get a fast handler.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <memory>
#include <sstream>
#include <vector>

#include "arch/exec_meta.hh"
#include "arch/kernel_code.hh"
#include "finalizer/finalizer.hh"
#include "gcn3/inst.hh"
#include "finalizer/regalloc.hh"
#include "helpers.hh"
#include "runtime/runtime.hh"
#include "sim/bench_cache.hh"
#include "sim/parallel.hh"

using namespace last;

namespace
{

/** The engine-differential matrix: Table 5 representatives plus every
 *  stress shape (atomics, LDS swizzles, nested divergence,
 *  multi-dispatch pipelines) at both ISA levels, with `execReference`
 *  forced to the requested engine. */
std::vector<sim::RunSpec>
engineSweep(bool reference)
{
    workloads::WorkloadScale scale{0.25};
    GpuConfig cfg;
    cfg.execReference = reference;
    std::vector<sim::RunSpec> specs;
    for (const char *w : {"VecAdd", "ArrayBW", "BitonicSort", "atomicred",
                          "ldsswizzle", "bfsgraph", "pipeline"}) {
        specs.push_back({w, IsaKind::HSAIL, cfg, scale});
        specs.push_back({w, IsaKind::GCN3, cfg, scale});
    }
    return specs;
}

} // namespace

TEST(ExecEngine, MatchesReferenceFieldForField)
{
    auto fast = engineSweep(false);
    auto ref = engineSweep(true);
    auto fastRes = sim::runMany(fast);
    auto refRes = sim::runMany(ref);
    ASSERT_EQ(fastRes.size(), refRes.size());
    for (size_t i = 0; i < fastRes.size(); ++i) {
        SCOPED_TRACE(fast[i].workload + "/" +
                     std::string(isaName(fast[i].isa)));
        test::expectSameResult(fastRes[i], refRes[i]);
    }
}

TEST(ExecEngine, BenchCacheRowsByteIdentical)
{
    // The sweep backend caches AppResults; an engine that changed any
    // stat in any way the field comparison missed (serialization
    // precision, row ordering) would surface here as a byte diff.
    auto fast = engineSweep(false);
    auto ref = engineSweep(true);
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

TEST(ExecEngine, PredecodedMetaAgreesWithInstruction)
{
    // The predecode contract: every ExecMeta field the timing model
    // consumes must agree with the virtual method it replaced, for
    // every instruction of both ISA levels, across latency configs.
    GpuConfig cfgs[2];
    cfgs[1].valuLatency += 3;
    cfgs[1].dramLatency += 100;
    cfgs[1].ldsLatency += 2;
    cfgs[1].saluLatency += 1;
    cfgs[1].branchLatency += 2;

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
            for (const GpuConfig &cfg : cfgs)
                EXPECT_EQ(m.latency(cfg), in.latency(cfg));
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
        checkKernel(*il.code);
        auto gcn = finalizer::finalize(il, rt.config());
        checkKernel(*gcn);
    }
}

TEST(ExecEngine, Gcn3HotValuOpsKeepFastHandlers)
{
    // The 55 VALU/VOPC opcodes that had a fast handler before GCN3's
    // VALU joined the IL lane library. Each keeps one: an IL twin's
    // kernel, or the row-based implementation of an op only GCN3 has.
    // A 64-bit twin (V_ADD_F64) still runs the reference executor.
    using gcn3::Gcn3Op;
    const Gcn3Op hot[] = {
        Gcn3Op::V_MOV_B32, Gcn3Op::V_NOT_B32, Gcn3Op::V_RCP_F32,
        Gcn3Op::V_SQRT_F32, Gcn3Op::V_CVT_F32_U32, Gcn3Op::V_CVT_F32_I32,
        Gcn3Op::V_CVT_U32_F32, Gcn3Op::V_CVT_I32_F32, Gcn3Op::V_MUL_LO_U32,
        Gcn3Op::V_MUL_HI_U32, Gcn3Op::V_ADD_F32, Gcn3Op::V_SUB_F32,
        Gcn3Op::V_MUL_F32, Gcn3Op::V_MAC_F32, Gcn3Op::V_MIN_F32,
        Gcn3Op::V_MAX_F32, Gcn3Op::V_MIN_U32, Gcn3Op::V_MAX_U32,
        Gcn3Op::V_MIN_I32, Gcn3Op::V_MAX_I32, Gcn3Op::V_AND_B32,
        Gcn3Op::V_OR_B32, Gcn3Op::V_XOR_B32, Gcn3Op::V_LSHLREV_B32,
        Gcn3Op::V_LSHRREV_B32, Gcn3Op::V_ASHRREV_I32, Gcn3Op::V_CNDMASK_B32,
        Gcn3Op::V_MAD_F32, Gcn3Op::V_FMA_F32, Gcn3Op::V_MAD_U32_U24,
        Gcn3Op::V_BFE_U32, Gcn3Op::V_DIV_FMAS_F32, Gcn3Op::V_DIV_FIXUP_F32,
        Gcn3Op::V_ADD_U32, Gcn3Op::V_ADDC_U32, Gcn3Op::V_SUB_U32,
        Gcn3Op::V_SUBB_U32, Gcn3Op::V_CMP_EQ_U32, Gcn3Op::V_CMP_NE_U32,
        Gcn3Op::V_CMP_LT_U32, Gcn3Op::V_CMP_LE_U32, Gcn3Op::V_CMP_GT_U32,
        Gcn3Op::V_CMP_GE_U32, Gcn3Op::V_CMP_EQ_I32, Gcn3Op::V_CMP_NE_I32,
        Gcn3Op::V_CMP_LT_I32, Gcn3Op::V_CMP_LE_I32, Gcn3Op::V_CMP_GT_I32,
        Gcn3Op::V_CMP_GE_I32, Gcn3Op::V_CMP_EQ_F32, Gcn3Op::V_CMP_NE_F32,
        Gcn3Op::V_CMP_LT_F32, Gcn3Op::V_CMP_LE_F32, Gcn3Op::V_CMP_GT_F32,
        Gcn3Op::V_CMP_GE_F32,
    };
    ASSERT_EQ(std::size(hot), 55u);

    using gcn3::Src;
    arch::KernelCode code(IsaKind::GCN3, "hot_valu");
    auto add = [&](Gcn3Op op) {
        code.append(std::unique_ptr<arch::Instruction>(gcn3::Gcn3Inst::vop3(
            op, gcn3::Dst::vgpr(0), Src::vgpr(4), Src::vgpr(6),
            Src::vgpr(8))));
    };
    for (Gcn3Op op : hot)
        add(op);
    add(Gcn3Op::V_ADD_F64);
    code.append(std::unique_ptr<arch::Instruction>(
        gcn3::Gcn3Inst::sopp(Gcn3Op::S_ENDPGM)));
    code.seal();

    const auto &metas = code.execMetas();
    const arch::ExecHandler reference = metas[std::size(hot)].handler;
    std::vector<arch::ExecHandler> kernels;
    for (size_t i = 0; i < std::size(hot); ++i) {
        SCOPED_TRACE(gcn3::opName(hot[i]));
        EXPECT_NE(metas[i].handler, reference);
        if (gcn3::ilTwin(hot[i]).valid())
            kernels.push_back(metas[i].handler);
    }
    // One kernel instantiation per twin opcode.
    std::sort(kernels.begin(), kernels.end());
    EXPECT_EQ(std::adjacent_find(kernels.begin(), kernels.end()),
              kernels.end());
    EXPECT_EQ(kernels.size(), 48u);
}
