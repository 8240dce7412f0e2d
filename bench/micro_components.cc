/**
 * @file
 * Component microbenchmarks (google-benchmark): how fast the simulator
 * itself runs — functional memory, the event queue, the cache timing
 * model, the statistic probes, the finalizer, and whole-kernel
 * simulation rate.
 */

#include <benchmark/benchmark.h>

#include "arch/kernel_code.hh"
#include "common/event_queue.hh"
#include "cu/probes.hh"
#include "finalizer/finalizer.hh"
#include "finalizer/regalloc.hh"
#include "hsail/builder.hh"
#include "memory/cache.hh"
#include "memory/dram.hh"
#include "memory/functional_memory.hh"
#include "runtime/runtime.hh"

using namespace last;
using namespace last::hsail;

namespace
{

void
BM_FunctionalMemoryWrite(benchmark::State &state)
{
    mem::FunctionalMemory m;
    uint64_t addr = 0;
    for (auto _ : state) {
        m.write<uint64_t>(addr, addr);
        addr = (addr + 64) & 0xfffff;
    }
}
BENCHMARK(BM_FunctionalMemoryWrite);

void
BM_FunctionalMemoryRead(benchmark::State &state)
{
    mem::FunctionalMemory m;
    for (Addr a = 0; a < 0x100000; a += 64)
        m.write<uint64_t>(a, a);
    uint64_t addr = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(m.read<uint64_t>(addr));
        addr = (addr + 64) & 0xfffff;
    }
}
BENCHMARK(BM_FunctionalMemoryRead);

void
BM_FunctionalMemoryBulkCopy(benchmark::State &state)
{
    // Packet-sized transfers, the pattern runtime::writeGlobal and the
    // per-lane vmem path produce: same page hit nearly every time.
    mem::FunctionalMemory m;
    uint8_t buf[256] = {};
    Addr addr = 0;
    for (auto _ : state) {
        m.write(addr, buf, sizeof(buf));
        m.read(addr, buf, sizeof(buf));
        addr = (addr + 192) & 0xfffff; // misaligned, crosses lines
    }
}
BENCHMARK(BM_FunctionalMemoryBulkCopy);

void
BM_EventQueueScheduleTick(benchmark::State &state)
{
    // One pending event per tick: the steady-state shape the GPU loop
    // produces (fetch fills and waitcnt decrements a few cycles out).
    EventQueue eq;
    uint64_t fired = 0;
    for (auto _ : state) {
        eq.scheduleAfter(4, [&] { ++fired; });
        eq.tick();
    }
    benchmark::DoNotOptimize(fired);
}
BENCHMARK(BM_EventQueueScheduleTick);

void
BM_CacheAccess(benchmark::State &state)
{
    stats::Group root("root");
    GpuConfig cfg;
    mem::Dram dram("dram", cfg, &root);
    mem::Cache l2("l2", cfg.l2, &dram, &root);
    mem::Cache l1("l1", cfg.l1d, &l2, &root);
    Cycle now = 0;
    Addr addr = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(l1.access(addr, false, now));
        addr = (addr + 64) & 0x3ffff;
        now += 2;
    }
}
BENCHMARK(BM_CacheAccess);

void
BM_LaneUniqProbe(benchmark::State &state)
{
    // The per-operand uniqueness probe: every dynamic vector
    // instruction pays this once per operand register.
    cu::LaneUniqCounter counter;
    uint32_t lanes[64];
    for (unsigned i = 0; i < 64; ++i)
        lanes[i] = i / 4; // duplicate-heavy, like real stride patterns
    uint64_t mask = ~0ull;
    unsigned total = 0;
    for (auto _ : state) {
        total += counter.count(lanes, mask);
        lanes[total & 63] ^= total; // defeat value caching
    }
    benchmark::DoNotOptimize(total);
}
BENCHMARK(BM_LaneUniqProbe);

void
BM_CoalesceLines(benchmark::State &state)
{
    // The vmem coalescing dedup: unit-stride 4-byte accesses over a
    // full wavefront (the common case: 4 distinct lines from 64 lanes).
    Addr laneAddrs[64];
    Addr base = 0x1000;
    uint64_t total = 0;
    for (auto _ : state) {
        for (unsigned i = 0; i < 64; ++i)
            laneAddrs[i] = base + i * 4;
        Addr lines[2 * 64];
        unsigned n = 0;
        for (uint64_t m = ~0ull; m; m &= m - 1) {
            unsigned lane = unsigned(findLsb(m));
            Addr first = laneAddrs[lane] / 64;
            Addr last = (laneAddrs[lane] + 3) / 64;
            n = cu::insertLineSorted(lines, n, first);
            if (last != first)
                n = cu::insertLineSorted(lines, n, last);
        }
        total += n;
        base += 256;
    }
    benchmark::DoNotOptimize(total);
}
BENCHMARK(BM_CoalesceLines);

IlKernel
computeKernel()
{
    KernelBuilder kb("micro");
    kb.setKernargBytes(16);
    Val in = kb.ldKernarg(DataType::U64, 0);
    Val out = kb.ldKernarg(DataType::U64, 8);
    Val gid = kb.workitemAbsId();
    Val off = kb.cvt(DataType::U64, kb.mul(gid, kb.immU32(4)));
    Val acc = kb.ldGlobal(DataType::F32, kb.add(in, off));
    for (int i = 0; i < 16; ++i)
        acc = kb.fma_(acc, kb.immF32(1.0009f), kb.immF32(0.25f));
    kb.stGlobal(acc, kb.add(out, off));
    return kb.build();
}

void
BM_SimulateKernel(benchmark::State &state)
{
    IsaKind isa = state.range(0) ? IsaKind::GCN3 : IsaKind::HSAIL;
    uint64_t insts = 0;
    for (auto _ : state) {
        runtime::Runtime rt;
        auto il = computeKernel();
        finalizer::compactIlRegisters(il);
        std::unique_ptr<arch::KernelCode> gcn;
        arch::KernelCode *code = il.code.get();
        if (isa == IsaKind::GCN3) {
            gcn = finalizer::finalize(il, IsaKind::GCN3, rt.config());
            code = gcn.get();
        }
        Addr in = rt.allocGlobal(4096 * 4);
        Addr out = rt.allocGlobal(4096 * 4);
        struct Args
        {
            uint64_t in, out;
        } args{in, out};
        rt.dispatch(*code, 4096, 256, &args, sizeof(args));
        insts += uint64_t(rt.gpu().sumCuStat("dynInsts"));
    }
    state.counters["wf_insts_per_s"] = benchmark::Counter(
        double(insts), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SimulateKernel)->Arg(0)->Arg(1)
    ->Unit(benchmark::kMillisecond);

void
BM_Finalize(benchmark::State &state)
{
    for (auto _ : state) {
        auto il = computeKernel();
        finalizer::compactIlRegisters(il);
        auto gcn = finalizer::finalize(il, IsaKind::GCN3, GpuConfig{});
        benchmark::DoNotOptimize(gcn->codeBytes());
    }
}
BENCHMARK(BM_Finalize);

} // namespace

BENCHMARK_MAIN();
