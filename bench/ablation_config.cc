/**
 * @file
 * Ablation: how sensitive is the abstraction gap to the design points
 * DESIGN.md calls out? Sweeps the L1I size (the LULESH fetch story),
 * the VRF bank count (the Figure 6 mechanism), and the waitcnt-free
 * counterfactual implied by comparing the two dependency models, using
 * LULESH and ArrayBW as the probes.
 */

#include <cstdio>

#include "sim/parallel.hh"
#include "support.hh"

using namespace last;
using namespace last::bench;

namespace
{

void
runCase(const char *label, const char *app, const GpuConfig &cfg)
{
    workloads::WorkloadScale scale{0.5};
    auto rs = sim::runMany({{app, IsaKind::HSAIL, cfg, scale},
                            {app, IsaKind::GCN3, cfg, scale}});
    sim::checkAgreement({&rs[0], &rs[1]});
    const sim::AppResult &h = rs[0], &g = rs[1];
    std::printf("%-28s %-10s cycles H/G %8llu /%8llu   l1iMiss "
                "H/G %6llu /%6llu   conflicts H/G %7llu /%7llu\n",
                label, app, (unsigned long long)h.cycles,
                (unsigned long long)g.cycles,
                (unsigned long long)h.l1iMisses,
                (unsigned long long)g.l1iMisses,
                (unsigned long long)h.vrfBankConflicts,
                (unsigned long long)g.vrfBankConflicts);
}

} // namespace

int
main()
{
    printHeader("Ablation: design-point sensitivity of the "
                "abstraction gap (scale 0.5)");

    std::printf("\n-- L1I size (LULESH's Figure 8/12 mechanism) --\n");
    for (unsigned kb : {8, 16, 32, 64}) {
        GpuConfig cfg;
        cfg.l1i.sizeBytes = kb * 1024;
        char label[32];
        std::snprintf(label, sizeof(label), "l1i=%ukB", kb);
        runCase(label, "LULESH", cfg);
    }

    std::printf("\n-- VRF banks (Figure 6's mechanism) --\n");
    for (unsigned banks : {2, 4, 8, 16}) {
        GpuConfig cfg;
        cfg.vrfBanks = banks;
        char label[32];
        std::snprintf(label, sizeof(label), "vrfBanks=%u", banks);
        runCase(label, "ArrayBW", cfg);
    }

    std::printf("\n-- DRAM latency (memory-bound sensitivity) --\n");
    for (unsigned lat : {80, 160, 320}) {
        GpuConfig cfg;
        cfg.dramLatency = lat;
        char label[32];
        std::snprintf(label, sizeof(label), "dramLat=%u", lat);
        runCase(label, "ArrayBW", cfg);
    }

    std::printf("\n(takeaway: the IL/machine-ISA gap is configuration-"
                "dependent — another reason single fudge factors "
                "fail)\n");
    return 0;
}
