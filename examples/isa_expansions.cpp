/**
 * @file
 * ISA-expansion explorer: prints the paper's Table 1 / 2 / 3 case
 * studies side by side — one IL instruction against the GCN3 sequence
 * the finalizer must emit once the ABI and the real ISA semantics are
 * in play.
 */

#include <cstdio>

#include "finalizer/finalizer.hh"
#include "finalizer/regalloc.hh"
#include "hsail/builder.hh"

using namespace last;
using namespace last::hsail;

namespace
{

void
show(const char *title, IlKernel il)
{
    finalizer::compactIlRegisters(il);
    finalizer::FinalizeStats st;
    auto gcn = finalizer::finalize(il, IsaKind::GCN3, GpuConfig{}, &st);
    std::printf("==================================================\n");
    std::printf("%s\n", title);
    std::printf("==================================================\n");
    std::printf("HSAIL (%zu insts, %llu bytes):\n%s\n",
                il.code->numInsts(),
                (unsigned long long)il.code->codeBytes(),
                il.code->disassemble().c_str());
    std::printf("GCN3 (%zu insts, %llu bytes; %u waitcnt, %u s_nop):"
                "\n%s\n",
                gcn->numInsts(),
                (unsigned long long)gcn->codeBytes(),
                st.waitcntInserted, st.nopsInserted,
                gcn->disassemble().c_str());
}

} // namespace

int
main()
{
    {
        KernelBuilder kb("workitemabsid");
        Val gid = kb.workitemAbsId();
        kb.stGlobal(gid, kb.immU64(0x1000));
        show("Table 1: obtaining the work-item id\n"
             "(one IL intrinsic -> AQL packet load, bitfield extract,\n"
             " multiply by the workgroup id, add the lane id)",
             kb.build());
    }
    {
        KernelBuilder kb("kernarg");
        kb.setKernargBytes(8);
        Val p = kb.ldKernarg(DataType::U64, 0);
        Val v = kb.ldGlobal(DataType::U32, p);
        kb.stGlobal(v, p, 4);
        show("Table 2: kernel argument access\n"
             "(the ABI places the kernarg base in s[6:7]; the flat\n"
             " address needs the scalar base moved into VGPRs)",
             kb.build());
    }
    {
        KernelBuilder kb("fdiv64");
        Val q = kb.div(kb.immF64(2.0), kb.immF64(3.0));
        kb.stGlobal(q, kb.immU64(0x1000));
        show("Table 3: 64-bit floating-point division\n"
             "(one IL div -> scale, reciprocal estimate, two\n"
             " Newton-Raphson refinements, fmas, fixup)",
             kb.build());
    }
    return 0;
}
