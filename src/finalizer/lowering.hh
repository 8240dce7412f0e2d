/**
 * @file
 * The lowering skeleton both machine backends drive.
 *
 * Where a structured IL region opens and closes is vendor-invariant;
 * what a machine ISA needs there is not (GCN3 saves and restores the
 * exec mask, PTXL brackets a divergent region with BSSY/BSYNC). The
 * skeleton owns the first half, each backend's emitter the second:
 *
 *  - RegionWalk indexes IlKernel::regions by IL position, runs the
 *    uniformity analysis, counts IL register uses for the
 *    compare-feeds-branch peephole, and walks the IL in order, calling
 *    the emitter's hooks at every region boundary and for every other
 *    instruction.
 *  - LabelAssembler appends machine instructions, counts each one into
 *    FinalizeStats, and points label branches at their targets once
 *    the kernel is complete. GCN3's Assembler (finalizer.cc) wraps it
 *    with its s_waitcnt/s_nop tracking; PTXL (ptxl_lower.cc) uses it
 *    as is.
 *
 * Both are templates over the emitter or instruction type, so the walk
 * reaches the emitter's hooks, and an emitter its assembler, without a
 * virtual call.
 */

#ifndef LAST_FINALIZER_LOWERING_HH
#define LAST_FINALIZER_LOWERING_HH

#include <map>
#include <memory>
#include <set>
#include <vector>

#include "common/logging.hh"
#include "finalizer/finalizer.hh"
#include "finalizer/uniformity.hh"
#include "hsail/inst.hh"

namespace last::finalizer
{

/** "No IL register" in the backends' compare-peephole state. */
constexpr uint16_t NoIlReg = 0xffff;

/** @{ The two emitters (finalizer.cc, ptxl_lower.cc). */
std::unique_ptr<arch::KernelCode>
lowerGcn3(const hsail::IlKernel &il, const GpuConfig &cfg,
          FinalizeStats &stats);
std::unique_ptr<arch::KernelCode>
lowerPtxl(const hsail::IlKernel &il, const GpuConfig &cfg,
          FinalizeStats &stats);
/** @} */

/** Label fixups and the append-time FinalizeStats count over one
 *  machine kernel under construction. */
template <class Inst>
class LabelAssembler
{
  public:
    LabelAssembler(arch::KernelCode &code, FinalizeStats &stats)
        : stats(stats), code(code)
    {
    }

    unsigned
    newLabel()
    {
        labelTargets.push_back(SIZE_MAX);
        return unsigned(labelTargets.size() - 1);
    }

    /** Bind `label` to the next instruction appended. */
    void bind(unsigned label) { labelTargets[label] = code.numInsts(); }

    /** Append `inst`, taking ownership. */
    void
    append(Inst *inst)
    {
        auto fu = inst->fuType();
        if (fu == arch::FuType::SAlu || fu == arch::FuType::SMem)
            ++stats.scalarInsts;
        else if (fu == arch::FuType::VAlu || fu == arch::FuType::VMem ||
                 fu == arch::FuType::Lds)
            ++stats.vectorInsts;
        code.append(std::unique_ptr<arch::Instruction>(inst));
    }

    /** Append a branch whose target resolveLabels() sets to `label`. */
    void
    appendBranch(Inst *branch, unsigned label)
    {
        fixups.push_back({branch, label});
        append(branch);
    }

    /** Point every branch at its label. Each label must be bound to an
     *  instruction: KernelBuilder::build() ends every kernel with a
     *  ret, so no region closes past the last one. */
    void
    resolveLabels()
    {
        for (const auto &f : fixups) {
            size_t target = labelTargets[f.label];
            panic_if(target == SIZE_MAX, "unbound label %u", f.label);
            panic_if(target >= code.numInsts(),
                     "label %u points past the end", f.label);
            f.branch->setTargetIndex(target);
        }
    }

  protected:
    FinalizeStats &stats;

  private:
    struct Fixup
    {
        Inst *branch;
        unsigned label;
    };

    arch::KernelCode &code;
    std::vector<size_t> labelTargets;
    std::vector<Fixup> fixups;
};

/** The vendor-invariant walk over an IL kernel's structured regions. */
class RegionWalk
{
  public:
    explicit RegionWalk(const hsail::IlKernel &il);

    const UniformityInfo &uniformity() const { return uni; }

    /** Does the compare at IL index i, producing bool reg d, feed only
     *  the region branch immediately following it? */
    bool feedsBranch(size_t i, uint16_t d) const;

    /**
     * Walk the IL in order. At each instruction i, call on `e`:
     *  - ifEnd() once per if-region closing at i (each call closes the
     *    innermost open region),
     *  - loopHead(divergent) once per loop whose body starts at i,
     *    outermost first,
     * and then exactly one of
     *  - ifHead(region, divergent) at an if's leading cbrz,
     *  - elseArm() at the br that skips an if-else's else part,
     *  - loopTail(region) at a loop's backedge cbr,
     *  - inst(i, instruction) at any other instruction.
     */
    template <class Emitter>
    void
    run(Emitter &e) const
    {
        for (size_t i = 0; i < ilc.numInsts(); ++i) {
            if (auto ends = ifEndsAt.find(i); ends != ifEndsAt.end())
                for (unsigned n = 0; n < ends->second; ++n)
                    e.ifEnd();
            if (auto heads = loopHeadsAt.find(i); heads != loopHeadsAt.end())
                for (size_t r : heads->second)
                    e.loopHead(uni.regionDivergent[r]);

            if (auto ih = ifHeadAt.find(i); ih != ifHeadAt.end())
                e.ifHead(il.regions[ih->second],
                         uni.regionDivergent[ih->second]);
            else if (elseAt.count(i))
                e.elseArm();
            else if (auto lt = loopTailAt.find(i); lt != loopTailAt.end())
                e.loopTail(il.regions[lt->second]);
            else
                e.inst(i, static_cast<const hsail::HsailInst &>(
                              ilc.inst(i)));
        }
    }

  private:
    const hsail::IlKernel &il;
    const arch::KernelCode &ilc;
    UniformityInfo uni;
    std::vector<unsigned> useCount;

    /** @{ Regions by IL position. */
    std::map<size_t, size_t> ifHeadAt;   ///< the cbrz
    std::set<size_t> elseAt;             ///< the br before an else part
    std::map<size_t, size_t> loopTailAt; ///< the backedge cbr
    std::map<size_t, unsigned> ifEndsAt; ///< if-regions closing here
    /** Loops whose body starts here, outermost first. */
    std::map<size_t, std::vector<size_t>> loopHeadsAt;
    /** @} */
};

} // namespace last::finalizer

#endif // LAST_FINALIZER_LOWERING_HH
