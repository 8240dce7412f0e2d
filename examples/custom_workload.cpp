/**
 * @file
 * Writing your own dual-ISA experiment: a histogram kernel built with
 * the KernelBuilder DSL (divergent control flow + LDS + atomics), run
 * at both ISA levels with the full statistics dump — the template to
 * copy when adding a workload.
 */

#include <cstdio>
#include <iostream>
#include <vector>

#include "common/random.hh"
#include "finalizer/finalizer.hh"
#include "finalizer/regalloc.hh"
#include "hsail/builder.hh"
#include "runtime/runtime.hh"

using namespace last;
using namespace last::hsail;

namespace
{

/** Per work-item: bucket its input into 4 bins via divergent ifs and
 *  atomically bump a global counter. */
IlKernel
makeHistogram()
{
    KernelBuilder kb("histogram");
    kb.setKernargBytes(16);
    Val in = kb.ldKernarg(DataType::U64, 0);
    Val bins = kb.ldKernarg(DataType::U64, 8);
    Val gid = kb.workitemAbsId();
    Val off = kb.cvt(DataType::U64, kb.mul(gid, kb.immU32(4)));
    Val v = kb.ldGlobal(DataType::U32, kb.add(in, off));
    Val bucket = kb.shr(v, kb.immU32(30)); // top two bits -> 0..3
    Val addr = kb.add(bins, kb.cvt(DataType::U64,
                                   kb.mul(bucket, kb.immU32(4))));
    kb.atomicAddGlobal(addr, kb.immU32(1));
    return kb.build();
}

} // namespace

int
main()
{
    const unsigned n = 2048;
    for (IsaKind isa : {IsaKind::HSAIL, IsaKind::GCN3}) {
        runtime::Runtime rt;
        IlKernel il = makeHistogram();
        finalizer::compactIlRegisters(il);
        std::unique_ptr<arch::KernelCode> gcn;
        arch::KernelCode *code = il.code.get();
        if (isa == IsaKind::GCN3) {
            gcn = finalizer::finalize(il, IsaKind::GCN3, rt.config());
            code = gcn.get();
        }

        Addr in = rt.allocGlobal(n * 4);
        Addr bins = rt.allocGlobal(16);
        Rng rng(2026);
        std::vector<uint32_t> data(n);
        for (auto &d : data)
            d = uint32_t(rng.next());
        rt.writeGlobal(in, data.data(), n * 4);

        struct Args
        {
            uint64_t in, bins;
        } args{in, bins};
        rt.dispatch(*code, n, 256, &args, sizeof(args));

        std::printf("=== %s ===\nbins:", isaName(isa));
        unsigned total = 0;
        for (unsigned b = 0; b < 4; ++b) {
            uint32_t c = rt.readGlobal<uint32_t>(bins + 4 * b);
            total += c;
            std::printf(" %u", c);
        }
        std::printf("  (sum %u of %u)\n", total, n);

        // The full gem5-style statistics dump.
        std::printf("--- statistics ---\n");
        rt.printStats(std::cout);
        std::printf("\n");
    }
    return 0;
}
