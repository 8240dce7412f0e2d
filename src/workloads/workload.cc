#include "workloads/workload.hh"

#include "finalizer/finalizer.hh"
#include "finalizer/regalloc.hh"
#include "sim/artifact_cache.hh"

namespace last::workloads
{

namespace
{

/** Run the (expensive) compile pipeline: IL register compaction for
 *  every path, plus the lowering for machine ISAs. */
std::shared_ptr<const arch::KernelCode>
buildArtifact(hsail::IlKernel &&il, IsaKind isa, const GpuConfig &cfg)
{
    hsail::IlKernel kept = std::move(il);
    // The high-level compiler's register allocation over the IL's
    // 2,048-register space happens for every path (a machine backend
    // then re-allocates into its much smaller files).
    finalizer::compactIlRegisters(kept);
    if (isa == IsaKind::HSAIL)
        return std::shared_ptr<const arch::KernelCode>(
            std::move(kept.code));
    return finalizer::finalize(kept, isa, cfg);
}

} // namespace

const arch::KernelCode &
Workload::prepare(hsail::IlKernel &&il, IsaKind isa,
                  const GpuConfig &cfg)
{
    unsigned seq = prepareSeq++;

    // Fault-injection runs execute perturbed; they must never share
    // artifacts with (or pollute the cache of) clean runs.
    bool cacheable =
        sim::ArtifactCache::enabled() && cfg.faultPlan == nullptr;
    if (!cacheable) {
        sharedKernels.push_back(buildArtifact(std::move(il), isa, cfg));
        return *sharedKernels.back();
    }
    // The content digest feeds only the cache's soundness check (a hit
    // whose digest differs panics); no cache row stores it. A machine
    // artifact also depends on the lowering's config knobs.
    uint64_t content = hsail::ilDigest(il);
    if (isa != IsaKind::HSAIL)
        content = (content ^ finalizer::finalizeConfigDigest(cfg, isa)) *
                  1099511628211ull;
    sharedKernels.push_back(sim::ArtifactCache::instance().getOrBuild(
        {name(), isa, artifactScale, seq, artifactParams}, content,
        [&] { return buildArtifact(std::move(il), isa, cfg); }));
    return *sharedKernels.back();
}

void
Workload::digestBytes(const void *data, size_t len)
{
    const auto *p = static_cast<const uint8_t *>(data);
    for (size_t i = 0; i < len; ++i) {
        digest ^= p[i];
        digest *= 1099511628211ull;
    }
}

std::vector<std::string>
workloadNames()
{
    return {"ArrayBW", "BitonicSort", "CoMD",   "FFT",  "HPGMG",
            "LULESH",  "MD",          "SNAP",   "SpMV", "XSBench"};
}

std::vector<std::string>
stressWorkloadNames()
{
    return {"atomicred", "ldsswizzle", "bfsgraph", "pipeline"};
}

std::vector<std::string>
allWorkloadNames()
{
    auto names = workloadNames();
    for (auto &s : stressWorkloadNames())
        names.push_back(s);
    return names;
}

// makeWorkload() lives in factory.cc next to the implementations.

} // namespace last::workloads
