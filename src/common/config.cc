#include "common/config.hh"

#include <cctype>
#include <cstdlib>
#include <cstring>
#include <sstream>

namespace last
{

const char *
isaName(IsaKind isa)
{
    switch (isa) {
      case IsaKind::HSAIL: return "HSAIL";
      case IsaKind::GCN3: return "GCN3";
      case IsaKind::PTXL: return "PTXL";
    }
    return "?";
}

bool
isaFromName(const std::string &name, IsaKind &out)
{
    for (IsaKind isa : AllIsas) {
        const char *canon = isaName(isa);
        if (name.size() != std::strlen(canon))
            continue;
        bool match = true;
        for (size_t i = 0; i < name.size(); ++i)
            if (std::toupper((unsigned char)name[i]) != canon[i])
                match = false;
        if (match) {
            out = isa;
            return true;
        }
    }
    return false;
}

bool
GpuConfig::defaultExecReference()
{
    // Resolved once: the switch selects an engine for the whole
    // process; per-run overrides go through the GpuConfig field.
    static const bool def = [] {
        const char *env = std::getenv("LAST_EXEC_REFERENCE");
        return env && *env && std::strcmp(env, "0") != 0;
    }();
    return def;
}

std::string
GpuConfig::summary() const
{
    std::ostringstream os;
    os << numCus << " CUs @ " << clockGhz * 1000 << " MHz, " << simdPerCu
       << " SIMDs/CU, " << wfSlotsPerCu << " WF slots (each "
       << wavefrontSize << " lanes), " << l1d.sizeBytes / 1024
       << "kB L1D/CU, " << l1i.sizeBytes / 1024 << "kB I$/"
       << cusPerCluster << "CUs, " << l2.sizeBytes / 1024 << "kB L2/"
       << cusPerCluster << "CUs, DDR3 x" << dramChannels;
    return os.str();
}

std::ostream &
operator<<(std::ostream &os, const GpuConfig &cfg)
{
    return os << cfg.summary();
}

} // namespace last
