#include "finalizer/lowering.hh"

namespace last::finalizer
{

using hsail::CfRegion;

RegionWalk::RegionWalk(const hsail::IlKernel &il)
    : il(il), ilc(*il.code), uni(analyzeUniformity(il)),
      useCount(ilc.vregsUsed, 0)
{
    for (size_t i = 0; i < ilc.numInsts(); ++i)
        for (const auto &op : ilc.inst(i).regOps())
            if (!op.isDef)
                ++useCount[op.idx];

    // The regions vector is ordered by close time, inner first, so
    // walking it backwards lists loops that start together outermost
    // first.
    for (size_t r = il.regions.size(); r-- > 0;) {
        const CfRegion &reg = il.regions[r];
        if (reg.kind == CfRegion::Kind::Loop) {
            loopHeadsAt[reg.bodyFirst].push_back(r);
            loopTailAt[reg.branchIdx] = r;
        } else {
            ifHeadAt[reg.branchIdx] = r;
            ++ifEndsAt[reg.endIdx];
            if (reg.kind == CfRegion::Kind::IfElse)
                elseAt.insert(reg.elseJumpIdx);
        }
    }
}

bool
RegionWalk::feedsBranch(size_t i, uint16_t d) const
{
    if (useCount[d] != 1)
        return false;
    if (auto it = ifHeadAt.find(i + 1); it != ifHeadAt.end())
        return il.regions[it->second].condReg == d;
    auto it = loopTailAt.find(i + 1);
    return it != loopTailAt.end() && il.regions[it->second].condReg == d;
}

std::unique_ptr<arch::KernelCode>
finalize(const hsail::IlKernel &il, IsaKind isa, const GpuConfig &cfg,
         FinalizeStats *out_stats)
{
    FinalizeStats local;
    FinalizeStats &stats = out_stats ? *out_stats : local;
    switch (isa) {
      case IsaKind::GCN3:
        return lowerGcn3(il, cfg, stats);
      case IsaKind::PTXL:
        return lowerPtxl(il, cfg, stats);
      case IsaKind::HSAIL:
        break;
    }
    panic("finalize: %s has no machine backend", isaName(isa));
}

uint64_t
finalizeConfigDigest(const GpuConfig &cfg, IsaKind isa)
{
    // FNV-1a over the bytes of every knob the lowering reads.
    auto fnv = [](std::initializer_list<uint64_t> knobs) {
        uint64_t h = 1469598103934665603ull;
        for (uint64_t v : knobs) {
            for (unsigned i = 0; i < 8; ++i) {
                h ^= (v >> (8 * i)) & 0xff;
                h *= 1099511628211ull;
            }
        }
        return h;
    };
    switch (isa) {
      case IsaKind::GCN3:
        return fnv({cfg.maxVgprsPerWfGcn3, cfg.maxSgprsPerWfGcn3});
      case IsaKind::PTXL:
        // The leading tag ("PTXL") keeps a PTXL digest from ever
        // colliding with the GCN3 formula over equal knob values.
        return fnv({0x4c585450u, cfg.maxRegsPerWfPtxl});
      case IsaKind::HSAIL:
        break;
    }
    panic("finalizeConfigDigest: %s has no machine backend",
          isaName(isa));
}

} // namespace last::finalizer
