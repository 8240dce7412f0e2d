/**
 * @file
 * Divergence lab: the paper's Figure 3 walkthrough.
 *
 * An if / else-if where work-items take three different paths. At the
 * IL level the simulator manages divergence with a reconvergence
 * stack, and every divergence/reconvergence jump flushes the
 * instruction buffer; at the machine-ISA level the finalizer lays the
 * CFG out straight-line under exec-mask predication and the front end
 * never stalls.
 */

#include <cstdio>

#include "finalizer/finalizer.hh"
#include "finalizer/regalloc.hh"
#include "hsail/builder.hh"
#include "runtime/runtime.hh"

using namespace last;
using namespace last::hsail;

namespace
{

/** Figure 3(a): out[i] = (i < lo || i >= hi) ? 84 : 90. */
IlKernel
makeFig3()
{
    KernelBuilder kb("fig3_if_else_if");
    kb.setKernargBytes(16);
    Val out = kb.ldKernarg(DataType::U64, 0);
    Val lo = kb.ldKernarg(DataType::U32, 8);
    Val hi = kb.ldKernarg(DataType::U32, 12);
    Val gid = kb.workitemAbsId();
    Val dst = kb.add(out, kb.cvt(DataType::U64,
                                 kb.mul(gid, kb.immU32(4))));
    Val c1 = kb.cmp(CmpOp::Lt, gid, lo);
    kb.ifBegin(c1);
    kb.stGlobal(kb.immU32(84), dst);
    kb.ifElse();
    {
        Val c2 = kb.cmp(CmpOp::Lt, gid, hi);
        kb.ifBegin(c2);
        kb.stGlobal(kb.immU32(90), dst);
        kb.ifElse();
        kb.stGlobal(kb.immU32(84), dst);
        kb.ifEnd();
    }
    kb.ifEnd();
    return kb.build();
}

} // namespace

int
main()
{
    std::printf("Figure 3: if / else-if under the two abstractions\n");
    std::printf("(work-items 0..1 -> 84, 2..3 -> 90, 4.. -> 84)\n\n");

    for (IsaKind isa : {IsaKind::HSAIL, IsaKind::GCN3}) {
        runtime::Runtime rt;
        IlKernel il = makeFig3();
        finalizer::compactIlRegisters(il);
        std::unique_ptr<arch::KernelCode> gcn;
        arch::KernelCode *code = il.code.get();
        if (isa == IsaKind::GCN3) {
            gcn = finalizer::finalize(il, IsaKind::GCN3, rt.config());
            code = gcn.get();
        }

        Addr out = rt.allocGlobal(64 * 4);
        struct Args
        {
            uint64_t out;
            uint32_t lo, hi;
        } args{out, 2, 4};
        rt.dispatch(*code, 64, 64, &args, sizeof(args));

        std::printf("=== %s ===\n%s\n", isaName(isa),
                    code->disassemble().c_str());
        std::printf("first five work-items:");
        for (unsigned i = 0; i < 5; ++i)
            std::printf(" %u", rt.readGlobal<uint32_t>(out + 4 * i));
        std::printf("\nIB flushes: %.0f   branch insts issued: %.0f\n",
                    rt.gpu().sumCuStat("ibFlushes"),
                    rt.gpu().sumCuStat("branchInsts"));
        std::printf("(the RS pops force front-end redirects under "
                    "HSAIL; GCN3's bypass arcs fall through)\n\n");
    }
    return 0;
}
