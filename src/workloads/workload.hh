/**
 * @file
 * Workload interface and registry.
 *
 * Each workload is written ONCE against the KernelBuilder DSL (the
 * single-source property of the paper's methodology) and can run at
 * either ISA level: the HSAIL path executes the IL directly, the GCN3
 * path routes the same IL through the finalizer first. Every workload
 * self-verifies its output, and the harness additionally checks that
 * the two ISAs produce identical results.
 */

#ifndef LAST_WORKLOADS_WORKLOAD_HH
#define LAST_WORKLOADS_WORKLOAD_HH

#include <memory>
#include <string>
#include <vector>

#include "arch/kernel_code.hh"
#include "common/config.hh"
#include "hsail/builder.hh"
#include "runtime/runtime.hh"

namespace last::workloads
{

/** Scale knob for workload inputs (1 = default bench scale). */
struct WorkloadScale
{
    double factor = 1.0;

    /** @{ Stress-workload knobs (-1 = the workload's default). Only
     *  ldsswizzle reads these today; they shape the emitted kernel
     *  (the LDS slot stride is an IL immediate), so they participate
     *  in the artifact-cache identity via setArtifactParams. */
    int ldsStrideWords = -1; ///< LDS words between adjacent lanes' slots
    int ldsPadWords = -1;    ///< extra words appended to each slot
    /** @} */

    /** Input-seed override for the seeded stress workloads (0 = each
     *  workload's fixed default). Changes host-generated input data
     *  only, never the kernel IL — seed variants share artifacts. */
    uint64_t seed = 0;
};

class Workload
{
  public:
    virtual ~Workload() = default;

    virtual std::string name() const = 0;

    /**
     * Build, dispatch, and verify on the given runtime at the given
     * ISA level.
     *
     * @return true iff the computed results verified against the
     *         host-side reference.
     */
    virtual bool run(runtime::Runtime &rt, IsaKind isa) = 0;

    /** Digest of the output buffers from the last run (must match
     *  across ISAs). */
    virtual uint64_t resultDigest() const { return digest; }

    /** Scale factor this instance was created for (set by
     *  makeWorkload); part of the artifact-cache key. */
    void setArtifactScale(double factor) { artifactScale = factor; }

    /** Digest of every kernel-shaping knob beyond the scale (set by
     *  makeWorkload); part of the artifact-cache key so parameter
     *  variants of one workload never alias to a stale KernelCode. */
    void setArtifactParams(uint64_t params) { artifactParams = params; }

  protected:
    /**
     * Prepare an IL kernel for execution at `isa`: the IL code itself
     * or its finalized machine code. Served from the process-wide
     * artifact cache when possible (keyed on workload/isa/scale and
     * the call order); fault-injection configs build privately so a
     * perturbed run can never share state with a clean one. The
     * returned artifact stays alive as long as this workload.
     */
    const arch::KernelCode &prepare(hsail::IlKernel &&il, IsaKind isa,
                                    const GpuConfig &cfg);

    /** FNV-1a over a byte range, for cross-ISA result digests. */
    void digestBytes(const void *data, size_t len);

    uint64_t digest = 1469598103934665603ull;

  private:
    std::vector<std::shared_ptr<const arch::KernelCode>> sharedKernels;
    double artifactScale = 1.0;
    uint64_t artifactParams = 0;
    unsigned prepareSeq = 0;
};

/** The Table 5 applications, in paper order. */
std::vector<std::string> workloadNames();

/** The stress workloads (beyond Table 5): shapes built to break the
 *  IL-level abstraction where the paper did not need to measure it.
 *  See EXPERIMENTS.md "Stress workloads beyond Table 5". */
std::vector<std::string> stressWorkloadNames();

/** Table 5 + stress workloads: the full bench sweep matrix. */
std::vector<std::string> allWorkloadNames();

/** Instantiate a workload by name (fatal on unknown names). */
std::unique_ptr<Workload> makeWorkload(const std::string &name,
                                       const WorkloadScale &scale = {});

/**
 * FNV-1a digest of every kernel-shaping knob beyond the scale factor
 * (today: the ldsswizzle stride/pad words). This is the knob part of
 * both the artifact-cache key (makeWorkload) and the bench-cache row
 * key (sim::specCacheKey): two parameter variants of one workload are
 * different programs and must never alias. The input seed is
 * deliberately excluded from the *artifact* identity (it changes host
 * data, never the IL) but is a separate column in the bench-cache key.
 */
uint64_t kernelParamsDigest(const WorkloadScale &scale);

} // namespace last::workloads

#endif // LAST_WORKLOADS_WORKLOAD_HH
