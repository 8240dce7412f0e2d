/**
 * @file
 * Quickstart: write one kernel, run it at both ISA levels, compare.
 *
 *   $ ./build/examples/quickstart
 *
 * Demonstrates the whole public API surface in ~100 lines:
 * KernelBuilder (the single-source front end), compactIlRegisters
 * (the HLC's register allocation), finalize (IL -> GCN3), Runtime
 * (memory + dispatch), and the per-CU statistics.
 */

#include <cstdio>
#include <vector>

#include "finalizer/finalizer.hh"
#include "finalizer/regalloc.hh"
#include "hsail/builder.hh"
#include "runtime/runtime.hh"

using namespace last;
using namespace last::hsail;

namespace
{

/** c[i] = a[i] * a[i] + b[i], one work-item per element. */
IlKernel
makeSaxpyish()
{
    KernelBuilder kb("quickstart");
    kb.setKernargBytes(24);
    Val a = kb.ldKernarg(DataType::U64, 0);
    Val b = kb.ldKernarg(DataType::U64, 8);
    Val c = kb.ldKernarg(DataType::U64, 16);
    Val gid = kb.workitemAbsId();
    Val off = kb.cvt(DataType::U64, kb.mul(gid, kb.immU32(4)));
    Val va = kb.ldGlobal(DataType::F32, kb.add(a, off));
    Val vb = kb.ldGlobal(DataType::F32, kb.add(b, off));
    kb.stGlobal(kb.fma_(va, va, vb), kb.add(c, off));
    return kb.build();
}

} // namespace

int
main()
{
    const unsigned n = 4096;

    for (IsaKind isa : {IsaKind::HSAIL, IsaKind::GCN3}) {
        runtime::Runtime rt; // a fresh simulated process (Table 4 GPU)

        // Build once; register-allocate the IL; finalize for GCN3.
        IlKernel il = makeSaxpyish();
        finalizer::compactIlRegisters(il);
        std::unique_ptr<arch::KernelCode> gcn;
        arch::KernelCode *code = il.code.get();
        if (isa == IsaKind::GCN3) {
            gcn = finalizer::finalize(il, IsaKind::GCN3, rt.config());
            code = gcn.get();
        }

        // Device buffers.
        Addr a = rt.allocGlobal(n * 4), b = rt.allocGlobal(n * 4),
             c = rt.allocGlobal(n * 4);
        std::vector<float> ha(n), hb(n);
        for (unsigned i = 0; i < n; ++i) {
            ha[i] = float(i) * 0.25f;
            hb[i] = 1.0f;
        }
        rt.writeGlobal(a, ha.data(), n * 4);
        rt.writeGlobal(b, hb.data(), n * 4);

        struct Args
        {
            uint64_t a, b, c;
        } args{a, b, c};
        Cycle cycles = rt.dispatch(*code, n, 256, &args, sizeof(args));

        std::vector<float> hc(n);
        rt.readGlobal(c, hc.data(), n * 4);
        bool ok = true;
        for (unsigned i = 0; i < n; ++i)
            ok = ok && hc[i] == ha[i] * ha[i] + hb[i];

        auto &gpu = rt.gpu();
        std::printf("=== %s ===\n", isaName(isa));
        std::printf("  static insts     %zu (%llu bytes)\n",
                    code->numInsts(),
                    (unsigned long long)code->codeBytes());
        std::printf("  cycles           %llu\n",
                    (unsigned long long)cycles);
        std::printf("  dynamic insts    %.0f (scalar %.0f, waitcnt "
                    "%.0f)\n",
                    gpu.sumCuStat("dynInsts"),
                    gpu.sumCuStat("saluInsts") +
                        gpu.sumCuStat("smemInsts"),
                    gpu.sumCuStat("waitcntInsts"));
        std::printf("  result           %s\n\n",
                    ok ? "verified" : "WRONG");
        if (isa == IsaKind::GCN3)
            std::printf("GCN3 disassembly:\n%s\n",
                        code->disassemble().c_str());
        else
            std::printf("HSAIL disassembly:\n%s\n",
                        code->disassemble().c_str());
    }
    return 0;
}
