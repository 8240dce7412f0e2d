/**
 * @file
 * The finalizer: compiles an IL kernel to machine code, playing the
 * role amdhsafin plays in the paper's toolchain. It has two targets,
 * GCN3 and PTXL; HSAIL needs none (the IL executes directly, which is
 * the point of the study).
 *
 * The analyses (uniformity.cc, regalloc.cc) and the lowering skeleton
 * (lowering.hh: the region walk and the label assembler) are shared.
 * What differs per vendor is the emitter: how structured IL control
 * flow, dependences and the ABI map onto the machine ISA.
 *
 * GCN3 (finalizer.cc), where each step is an abstraction the IL hides:
 *  - ABI code generation: prologue computing per-lane scratch
 *    addresses; kernarg accesses through s[6:7]; workitemabsid
 *    expansion through the AQL packet (Tables 1 and 2).
 *  - Scalarization: uniform integer work moves to the scalar pipeline
 *    and SGPRs (driven by the uniformity analysis).
 *  - Register allocation into 256 VGPRs / 102 SGPRs.
 *  - Structured control-flow linearization with exec-mask predication
 *    and s_cbranch_execz bypass arcs (Figure 3c); scalar branches for
 *    provably uniform conditions.
 *  - Software dependency management: s_waitcnt insertion before first
 *    use of in-flight memory results, s_nop insertion for
 *    deterministic-latency VALU hazards.
 *  - Newton-Raphson expansion of floating-point division (Table 3).
 *
 * PTXL (ptxl_lower.cc): explicit convergence barriers (BSSY/BSYNC)
 * around divergent regions, a hardware scoreboard instead of waits,
 * no scalar pipeline, and a near 1:1 mapping from the IL.
 */

#ifndef LAST_FINALIZER_FINALIZER_HH
#define LAST_FINALIZER_FINALIZER_HH

#include <memory>

#include "arch/kernel_code.hh"
#include "common/config.hh"
#include "hsail/builder.hh"

namespace last::finalizer
{

/** Compile-time counters, for tests and the expansion benches. */
struct FinalizeStats
{
    unsigned vgprsUsed = 0;
    unsigned sgprsUsed = 0;
    unsigned waitcntInserted = 0;
    unsigned nopsInserted = 0;
    unsigned scalarInsts = 0;  ///< SALU + SMEM instructions emitted
    unsigned vectorInsts = 0;
};

/** Finalize an IL kernel into `isa`'s machine code. Panics for
 *  IsaKind::HSAIL, which has no machine backend. */
std::unique_ptr<arch::KernelCode>
finalize(const hsail::IlKernel &il, IsaKind isa, const GpuConfig &cfg,
         FinalizeStats *out_stats = nullptr);

/**
 * Digest of the GpuConfig fields `isa`'s lowering depends on (the
 * register-file budgets driving allocation, spilling and the PTXL
 * budget check). The artifact cache folds this into its content
 * digest so a kernel finalized under one budget can never be served
 * to a run configured with another. Must be kept in sync with what
 * finalize() reads. Panics for IsaKind::HSAIL.
 */
uint64_t finalizeConfigDigest(const GpuConfig &cfg, IsaKind isa);

} // namespace last::finalizer

#endif // LAST_FINALIZER_FINALIZER_HH
