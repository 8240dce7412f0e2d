#include "sim/experiment.hh"

#include <sstream>

namespace last::sim
{

AppResult
runApp(const std::string &workload, IsaKind isa, const GpuConfig &cfg,
       const workloads::WorkloadScale &scale,
       const RuntimeInspector &inspect)
{
    runtime::Runtime rt(cfg);
    // Label the simulated process so MemoryErrors escaping a parallel
    // sweep name the run that faulted, not just an address.
    rt.mem().setOwner(workload + "/" + isaName(isa));
    auto wl = workloads::makeWorkload(workload, scale);

    AppResult r;
    r.workload = workload;
    r.isa = isa;
    r.verified = wl->run(rt, isa);
    r.digest = wl->resultDigest();

    gpu::Gpu &gpu = rt.gpu();
    // Resolve each stat name to its CU-local index once, then sum by
    // index — the repeated per-CU string lookups the harness used to
    // pay are not free when every sweep run ends here.
    for (const StatField &f : kStatFields)
        if (f.cuStat)
            r.*f.u64 = uint64_t(gpu.sumCuStat(gpu.cuStatIndex(f.cuStat)));

    // Merged histograms / weighted averages over CUs.
    stats::Histogram reuse(nullptr, "reuse", "merged");
    double ru_n = 0, ru_s = 0, wu_n = 0, wu_s = 0, su_n = 0, su_s = 0;
    for (unsigned c = 0; c < gpu.numCus(); ++c) {
        auto &cu = gpu.computeUnit(c);
        reuse.merge(cu.vregReuseDist);
        ru_s += cu.vrfReadUniq.value() * double(cu.vrfReadUniq.samples());
        ru_n += double(cu.vrfReadUniq.samples());
        wu_s +=
            cu.vrfWriteUniq.value() * double(cu.vrfWriteUniq.samples());
        wu_n += double(cu.vrfWriteUniq.samples());
        su_s += cu.valuUtilization.value() *
                double(cu.valuUtilization.samples());
        su_n += double(cu.valuUtilization.samples());
    }
    r.reuseMedian = reuse.median();
    r.readUniq = ru_n ? ru_s / ru_n : 0;
    r.writeUniq = wu_n ? wu_s / wu_n : 0;
    r.vrfUniq =
        (ru_n + wu_n) ? (ru_s + wu_s) / (ru_n + wu_n) : 0;
    r.simdUtil = su_n ? su_s / su_n : 0;

    // Cycles: sum of per-dispatch durations (dispatches run
    // back-to-back on this GPU).
    for (const auto &rec : rt.launchRecords())
        r.cycles += rec.cycles;
    r.ipc = r.cycles ? double(r.dynInsts) / double(r.cycles) : 0;

    r.instFootprint = rt.instFootprintBytes();
    r.dataFootprint = rt.dataFootprintBytes();

    unsigned clusters =
        (cfg.numCus + cfg.cusPerCluster - 1) / cfg.cusPerCluster;
    for (unsigned c = 0; c < clusters; ++c) {
        r.l1iMisses += uint64_t(gpu.l1iCache(c).misses.value());
        r.l1iHits += uint64_t(gpu.l1iCache(c).hits.value());
    }

    r.launches = rt.launchRecords();
    if (inspect)
        inspect(rt);
    return r;
}

std::string
MismatchReport::format() const
{
    std::ostringstream os;
    os << "cross-ISA mismatch in " << workload << ": " << field;
    if (launchIndex >= 0)
        os << " (launch " << launchIndex << ")";
    os << " diverges: " << isaName(a.isa) << "=" << a.value << " "
       << isaName(b.isa) << "=" << b.value;
    return os.str();
}

IsaMismatchError::IsaMismatchError(MismatchReport report)
    : SimError(ErrorKind::Mismatch, report.format()),
      report_(std::move(report))
{}

void
checkAgreement(const std::vector<const AppResult *> &levels)
{
    if (levels.empty())
        return;
    const AppResult &ref = *levels[0];
    for (size_t k = 1; k < levels.size(); ++k) {
        const AppResult &other = *levels[k];
        auto mismatch = [&](const std::string &field, int launch,
                            const std::string &va, const std::string &vb) {
            MismatchReport r;
            r.workload = ref.workload;
            r.field = field;
            r.launchIndex = launch;
            r.a = {ref.isa, va};
            r.b = {other.isa, vb};
            throw IsaMismatchError(std::move(r));
        };

        if (ref.workload != other.workload)
            mismatch("workload", -1, ref.workload, other.workload);
        if (ref.verified != other.verified)
            mismatch("verified", -1, ref.verified ? "true" : "false",
                     other.verified ? "true" : "false");
        if (ref.digest != other.digest)
            mismatch("digest", -1, std::to_string(ref.digest),
                     std::to_string(other.digest));
        if (ref.launches.size() != other.launches.size())
            mismatch("launches.size", -1,
                     std::to_string(ref.launches.size()),
                     std::to_string(other.launches.size()));
        for (size_t i = 0; i < ref.launches.size(); ++i) {
            if (ref.launches[i].kernel != other.launches[i].kernel)
                mismatch("launch.kernel", int(i), ref.launches[i].kernel,
                         other.launches[i].kernel);
        }
    }
}

} // namespace last::sim
