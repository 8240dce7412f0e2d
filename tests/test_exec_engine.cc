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
 * ExecMeta record must agree with the virtual methods it replaces and
 * with Table 4's latencies; a fourth, that every GCN3 VALU/VOPC opcode
 * gets an active-lane handler.
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
        checkKernel(*il.code);
        auto gcn = finalizer::finalize(il, IsaKind::GCN3, rt.config());
        checkKernel(*gcn);
    }
}

TEST(ExecEngine, Gcn3HotValuOpsKeepFastHandlers)
{
    // Every VALU/VOPC opcode runs an active-lane handler: each of the
    // 66 with an IL twin, 32- or 64-bit, its own instantiation of the
    // IL arithmetic, and the 10 only GCN3 has their one row-based
    // implementation. None runs the per-lane reference executor.
    using gcn3::Gcn3Op;
    using gcn3::Src;
    arch::KernelCode code(IsaKind::GCN3, "hot_valu");
    std::vector<Gcn3Op> ops;
    for (unsigned o = 0; o < unsigned(Gcn3Op::NumOpcodes); ++o) {
        switch (gcn3::opFormat(Gcn3Op(o))) {
          case gcn3::Format::VOP1:
          case gcn3::Format::VOP2:
          case gcn3::Format::VOP3:
          case gcn3::Format::VOPC:
            ops.push_back(Gcn3Op(o));
            code.append(std::unique_ptr<arch::Instruction>(
                gcn3::Gcn3Inst::vop3(Gcn3Op(o), gcn3::Dst::vgpr(0),
                                     Src::vgpr(4), Src::vgpr(6),
                                     Src::vgpr(8))));
            break;
          default:
            break;
        }
    }
    code.append(std::unique_ptr<arch::Instruction>(
        gcn3::Gcn3Inst::sopp(Gcn3Op::S_ENDPGM)));
    code.seal();

    const auto &metas = code.execMetas();
    std::vector<arch::ExecHandler> twins, own;
    for (size_t i = 0; i < ops.size(); ++i)
        (gcn3::ilTwin(ops[i]).valid() ? twins : own)
            .push_back(metas[i].handler);
    ASSERT_EQ(twins.size(), 66u);
    ASSERT_EQ(own.size(), 10u);

    // One handler per twin opcode, none shared with the ops only GCN3
    // has, which share executeOwnValu's.
    std::sort(twins.begin(), twins.end());
    EXPECT_EQ(std::adjacent_find(twins.begin(), twins.end()), twins.end());
    for (size_t i = 0; i < own.size(); ++i) {
        EXPECT_EQ(own[i], own.front());
        EXPECT_FALSE(std::binary_search(twins.begin(), twins.end(), own[i]));
    }
}
