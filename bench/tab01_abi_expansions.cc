/**
 * @file
 * Tables 1-3: the instruction-expansion case studies, plus
 * google-benchmark timings of the finalizer itself.
 *
 *  Table 1: workitemabsid -> 5-instruction ABI expansion
 *  Table 2: kernarg access -> s_load + v_mov pair + flat_load
 *  Table 3: f64 division -> Newton-Raphson sequence
 */

#include <benchmark/benchmark.h>

#include <cstdio>

#include "finalizer/finalizer.hh"
#include "finalizer/regalloc.hh"
#include "hsail/builder.hh"
#include "support.hh"

using namespace last;
using namespace last::hsail;

namespace
{

IlKernel
table1Kernel()
{
    KernelBuilder kb("workitemabsid_probe");
    Val gid = kb.workitemAbsId();
    kb.stGlobal(gid, kb.immU64(0x1000));
    return kb.build();
}

IlKernel
table2Kernel()
{
    KernelBuilder kb("kernarg_probe");
    kb.setKernargBytes(8);
    Val p = kb.ldKernarg(DataType::U64, 0);
    Val v = kb.ldGlobal(DataType::U32, p);
    kb.stGlobal(v, p, 4);
    return kb.build();
}

IlKernel
table3Kernel()
{
    KernelBuilder kb("fdiv_probe");
    Val q = kb.div(kb.immF64(2.0), kb.immF64(3.0));
    kb.stGlobal(q, kb.immU64(0x1000));
    return kb.build();
}

void
showExpansion(const char *title, IlKernel (*make)())
{
    IlKernel il = make();
    finalizer::compactIlRegisters(il);
    finalizer::FinalizeStats st;
    auto gcn = finalizer::finalize(il, IsaKind::GCN3, GpuConfig{}, &st);
    std::printf("\n---- %s ----\n", title);
    std::printf("HSAIL (%zu instructions):\n%s", il.code->numInsts(),
                il.code->disassemble().c_str());
    std::printf("GCN3 (%zu instructions, %u scalar / %u vector, "
                "%u waitcnt, %u nop):\n%s",
                gcn->numInsts(), st.scalarInsts, st.vectorInsts,
                st.waitcntInserted, st.nopsInserted,
                gcn->disassemble().c_str());
    std::printf("static expansion: %.2fx\n",
                double(gcn->numInsts()) / double(il.code->numInsts()));
}

void
BM_FinalizeSmallKernel(benchmark::State &state)
{
    for (auto _ : state) {
        IlKernel il = table3Kernel();
        finalizer::compactIlRegisters(il);
        auto gcn = finalizer::finalize(il, IsaKind::GCN3, GpuConfig{});
        benchmark::DoNotOptimize(gcn->numInsts());
    }
}
BENCHMARK(BM_FinalizeSmallKernel);

void
BM_CompactIlRegisters(benchmark::State &state)
{
    for (auto _ : state) {
        IlKernel il = table2Kernel();
        finalizer::compactIlRegisters(il);
        benchmark::DoNotOptimize(il.code->vregsUsed);
    }
}
BENCHMARK(BM_CompactIlRegisters);

} // namespace

int
main(int argc, char **argv)
{
    last::bench::printHeader(
        "Tables 1-3: ABI / ISA instruction expansions");
    showExpansion("Table 1: work-item absolute id", table1Kernel);
    showExpansion("Table 2: kernarg access", table2Kernel);
    showExpansion("Table 3: 64-bit floating point division",
                  table3Kernel);

    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
