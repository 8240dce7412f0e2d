/**
 * @file
 * The GCN3 emitter: exec-mask predication at region boundaries,
 * scalarization, register allocation, ABI expansion and software
 * dependence management (see finalizer.hh), driven by the shared
 * RegionWalk (lowering.hh).
 */

#include <bit>
#include <bitset>

#include "finalizer/abi.hh"
#include "finalizer/lowering.hh"
#include "finalizer/regalloc.hh"
#include "gcn3/inst.hh"

namespace last::finalizer
{

using gcn3::Dst;
using gcn3::Gcn3Inst;
using gcn3::Gcn3Op;
using gcn3::Src;
using hsail::CfRegion;
using hsail::CmpOp;
using hsail::DataType;
using hsail::HsailInst;
using hsail::Opcode;
using hsail::Segment;

namespace
{

/** Number of reserved VGPR temporaries (addresses, data movs, divide
 *  expansion scratch). */
constexpr unsigned NumVTemps = 14;

Gcn3Op
vcmpOp(CmpOp c, DataType t)
{
    bool f32 = t == DataType::F32;
    bool f64 = t == DataType::F64;
    bool s32 = t == DataType::S32;
    switch (c) {
      case CmpOp::Eq:
        return f64 ? Gcn3Op::V_CMP_EQ_F64 : f32 ? Gcn3Op::V_CMP_EQ_F32
                   : s32 ? Gcn3Op::V_CMP_EQ_I32 : Gcn3Op::V_CMP_EQ_U32;
      case CmpOp::Ne:
        return f64 ? Gcn3Op::V_CMP_NE_F64 : f32 ? Gcn3Op::V_CMP_NE_F32
                   : s32 ? Gcn3Op::V_CMP_NE_I32 : Gcn3Op::V_CMP_NE_U32;
      case CmpOp::Lt:
        return f64 ? Gcn3Op::V_CMP_LT_F64 : f32 ? Gcn3Op::V_CMP_LT_F32
                   : s32 ? Gcn3Op::V_CMP_LT_I32 : Gcn3Op::V_CMP_LT_U32;
      case CmpOp::Le:
        return f64 ? Gcn3Op::V_CMP_LE_F64 : f32 ? Gcn3Op::V_CMP_LE_F32
                   : s32 ? Gcn3Op::V_CMP_LE_I32 : Gcn3Op::V_CMP_LE_U32;
      case CmpOp::Gt:
        return f64 ? Gcn3Op::V_CMP_GT_F64 : f32 ? Gcn3Op::V_CMP_GT_F32
                   : s32 ? Gcn3Op::V_CMP_GT_I32 : Gcn3Op::V_CMP_GT_U32;
      case CmpOp::Ge:
        return f64 ? Gcn3Op::V_CMP_GE_F64 : f32 ? Gcn3Op::V_CMP_GE_F32
                   : s32 ? Gcn3Op::V_CMP_GE_I32 : Gcn3Op::V_CMP_GE_U32;
    }
    return Gcn3Op::V_CMP_EQ_U32;
}

Gcn3Op
scmpOp(CmpOp c, DataType t)
{
    bool s32 = t == DataType::S32;
    switch (c) {
      case CmpOp::Eq:
        return s32 ? Gcn3Op::S_CMP_EQ_I32 : Gcn3Op::S_CMP_EQ_U32;
      case CmpOp::Ne:
        return s32 ? Gcn3Op::S_CMP_LG_I32 : Gcn3Op::S_CMP_LG_U32;
      case CmpOp::Lt:
        return s32 ? Gcn3Op::S_CMP_LT_I32 : Gcn3Op::S_CMP_LT_U32;
      case CmpOp::Le:
        return s32 ? Gcn3Op::S_CMP_LE_I32 : Gcn3Op::S_CMP_LE_U32;
      case CmpOp::Gt:
        return s32 ? Gcn3Op::S_CMP_GT_I32 : Gcn3Op::S_CMP_GT_U32;
      case CmpOp::Ge:
        return s32 ? Gcn3Op::S_CMP_GE_I32 : Gcn3Op::S_CMP_GE_U32;
    }
    return Gcn3Op::S_CMP_EQ_U32;
}

/**
 * The shared label assembler plus the software dependency management
 * the GCN3 contract requires: s_waitcnt insertion before the first use
 * of in-flight memory results and s_nop insertion for
 * deterministic-latency VALU hazards.
 */
class Assembler : public LabelAssembler<Gcn3Inst>
{
  public:
    Assembler(arch::KernelCode &code, FinalizeStats &stats)
        : LabelAssembler(code, stats)
    {
    }

    void
    emit(Gcn3Inst *inst)
    {
        maybeWait(*inst);
        maybeNop(*inst);
        if (inst->is(arch::IsBarrier) || inst->is(arch::IsEndPgm))
            waitAll();
        append(inst);
        trackPending(*inst);
    }

    void
    emitBranch(Gcn3Op op, unsigned label)
    {
        // Loads must not be in flight across a control transfer: the
        // consumer may sit on either path.
        waitPendingLoads();
        appendBranch(Gcn3Inst::branch(op, 0), label);
        clearHazard();
    }

    /** Drain every outstanding memory operation (loads and stores). */
    void
    waitAll()
    {
        bool vm = vmLoadRegsV.any() || vmStores > 0;
        bool lgkm = lgkmRegsS.any() || lgkmRegsV.any() || lgkmStores > 0;
        if (vm || lgkm)
            insertWaitcnt(vm, lgkm);
    }

  private:
    void
    insertWaitcnt(bool vm, bool lgkm)
    {
        append(Gcn3Inst::waitcnt(vm ? 0 : -1, lgkm ? 0 : -1));
        ++stats.waitcntInserted;
        if (vm) {
            vmLoadRegsV.reset();
            vmStores = 0;
        }
        if (lgkm) {
            lgkmRegsS.reset();
            lgkmRegsV.reset();
            lgkmStores = 0;
        }
    }

    void
    waitPendingLoads()
    {
        bool vm = vmLoadRegsV.any();
        bool lgkm = lgkmRegsS.any() || lgkmRegsV.any();
        if (vm || lgkm)
            insertWaitcnt(vm, lgkm);
    }

    void
    maybeWait(const Gcn3Inst &inst)
    {
        bool vm = false, lgkm = false;
        for (const auto &op : inst.regOps()) {
            for (unsigned w = 0; w < op.width; ++w) {
                unsigned r = op.idx + w;
                if (op.cls == arch::RegClass::Vector) {
                    vm = vm || (r < 256 && vmLoadRegsV[r]);
                    lgkm = lgkm || (r < 256 && lgkmRegsV[r]);
                } else {
                    lgkm = lgkm || (r < 128 && lgkmRegsS[r]);
                }
            }
        }
        if (vm || lgkm)
            insertWaitcnt(vm, lgkm);
    }

    void
    trackPending(const Gcn3Inst &inst)
    {
        if (!inst.is(arch::IsMemory))
            return;
        auto fu = inst.fuType();
        bool is_load = inst.is(arch::IsLoad);
        if (fu == arch::FuType::VMem) {
            if (is_load) {
                for (const auto &op : inst.regOps())
                    if (op.isDef && op.cls == arch::RegClass::Vector)
                        for (unsigned w = 0; w < op.width; ++w)
                            vmLoadRegsV.set(op.idx + w);
            }
            if (inst.is(arch::IsStore))
                ++vmStores;
        } else if (fu == arch::FuType::SMem) {
            for (const auto &op : inst.regOps())
                if (op.isDef && op.cls == arch::RegClass::Scalar)
                    for (unsigned w = 0; w < op.width; ++w)
                        if (op.idx + w < 128)
                            lgkmRegsS.set(op.idx + w);
        } else if (fu == arch::FuType::Lds) {
            if (is_load) {
                for (const auto &op : inst.regOps())
                    if (op.isDef && op.cls == arch::RegClass::Vector)
                        for (unsigned w = 0; w < op.width; ++w)
                            lgkmRegsV.set(op.idx + w);
            } else {
                ++lgkmStores;
            }
        }
    }

    void
    maybeNop(const Gcn3Inst &inst)
    {
        bool hit = false;
        for (const auto &op : inst.regOps()) {
            if (!hazardValid)
                break;
            if (op.isDef)
                continue;
            for (unsigned w = 0; w < op.width && !hit; ++w) {
                unsigned r = op.idx + w;
                if (op.cls == arch::RegClass::Vector)
                    hit = r < 256 && hazardV[r];
                else
                    hit = r < 128 && hazardS[r];
            }
            if (hit)
                break;
        }
        // Deterministic-latency rule: only scalar-side consumers (SALU
        // reading VCC written by a VALU) and transcendental results
        // need a pipeline bubble the next cycle.
        bool scalar_consumer = inst.is(arch::IsScalarOp);
        if (hit && (scalar_consumer || hazardTrans)) {
            append(Gcn3Inst::sopp(Gcn3Op::S_NOP, 0));
            ++stats.nopsInserted;
        }
        clearHazard();
        updateHazard(inst);
    }

    void
    clearHazard()
    {
        hazardValid = false;
        hazardTrans = false;
        hazardV.reset();
        hazardS.reset();
    }

    void
    updateHazard(const Gcn3Inst &inst)
    {
        auto fu = inst.fuType();
        if (fu != arch::FuType::VAlu)
            return;
        bool writes_vcc = false;
        for (const auto &op : inst.regOps()) {
            if (!op.isDef)
                continue;
            if (op.cls == arch::RegClass::Scalar &&
                op.idx == arch::RegVccLo)
                writes_vcc = true;
        }
        if (!writes_vcc && !inst.is(arch::IsTrans))
            return;
        hazardValid = true;
        hazardTrans = inst.is(arch::IsTrans);
        for (const auto &op : inst.regOps()) {
            if (!op.isDef)
                continue;
            for (unsigned w = 0; w < op.width; ++w) {
                if (op.cls == arch::RegClass::Vector)
                    hazardV.set(op.idx + w);
                else if (op.idx + w < 128)
                    hazardS.set(op.idx + w);
            }
        }
    }

    std::bitset<256> vmLoadRegsV;
    std::bitset<128> lgkmRegsS;
    std::bitset<256> lgkmRegsV;
    unsigned vmStores = 0;
    unsigned lgkmStores = 0;

    bool hazardValid = false;
    bool hazardTrans = false;
    std::bitset<256> hazardV;
    std::bitset<128> hazardS;
};

/** GCN3 instruction selection, with exec-mask predication at the
 *  region boundaries the RegionWalk reports. */
class Translator
{
  public:
    Translator(const hsail::IlKernel &il, const GpuConfig &cfg,
               FinalizeStats &stats)
        : ilc(*il.code), stats(stats), walk(il),
          out(std::make_unique<arch::KernelCode>(IsaKind::GCN3,
                                                 ilc.name())),
          a(*out, stats)
    {
        usesScratch =
            ilc.privateBytesPerWi > 0 || ilc.spillBytesPerWi > 0;
        vTempBase = usesScratch ? 3 : 1;

        maxDepth = 1;
        for (size_t x = 0; x < il.regions.size(); ++x) {
            unsigned depth = 1;
            for (size_t y = 0; y < il.regions.size(); ++y)
                if (x != y && contains(il.regions[y], il.regions[x]))
                    ++depth;
            maxDepth = std::max(maxDepth, depth);
        }

        // Exec-save pairs for nested divergent regions sit directly
        // above the ABI/temp block; allocatable SGPRs follow.
        saveStackBase = abi::FirstAllocSgpr;
        AllocBudget budget;
        budget.vgprFirst = vTempBase + NumVTemps;
        budget.vgprLast = cfg.maxVgprsPerWfGcn3 - 1;
        budget.sgprFirst = saveStackBase + 2 * maxDepth;
        budget.sgprLast = cfg.maxSgprsPerWfGcn3 - 1;
        alloc = allocateRegisters(il, walk.uniformity(), budget);
    }

    std::unique_ptr<arch::KernelCode>
    run()
    {
        if (usesScratch)
            emitScratchPrologue();
        walk.run(*this);

        a.resolveLabels();
        out->seal();
        gcn3::resolveBranchTargets(*out);
        // Predecode while the kernel is being built: the finalized
        // artifact is cached process-wide (sim/artifact_cache.hh), so
        // every subsequent sweep point reuses the handler table too.
        out->execMetas();

        out->vregsUsed =
            std::max<unsigned>(alloc.vgprsUsed, vTempBase + NumVTemps);
        // SGPR high-water mark: allocated SGPRs, the ABI/temp block,
        // and (only if exec-mask predication was emitted) the
        // exec-save pairs at the top of the file.
        out->sregsUsed =
            std::max<unsigned>(alloc.sgprsUsed, abi::FirstAllocSgpr);
        if (divEverUsed)
            out->sregsUsed = std::max<unsigned>(
                out->sregsUsed, saveStackBase + 2 * maxDepth);
        out->kernargBytes = ilc.kernargBytes;
        // GCN3 uses one scratch arena per work-item covering both the
        // private and spill segments.
        out->privateBytesPerWi =
            ilc.privateBytesPerWi + ilc.spillBytesPerWi;
        out->spillBytesPerWi = 0;
        out->ldsBytesPerWg = ilc.ldsBytesPerWg;

        stats.vgprsUsed = out->vregsUsed;
        stats.sgprsUsed = out->sregsUsed;
        return std::move(out);
    }

  private:
    friend class finalizer::RegionWalk;

    static bool
    contains(const CfRegion &outer, const CfRegion &inner)
    {
        auto span = [](const CfRegion &r) {
            if (r.kind == CfRegion::Kind::Loop)
                return std::pair<size_t, size_t>(r.bodyFirst, r.branchIdx);
            return std::pair<size_t, size_t>(r.branchIdx, r.endIdx - 1);
        };
        auto so = span(outer);
        auto si = span(inner);
        return so.first <= si.first && so.second >= si.second &&
               !(so == si);
    }

    // --- operand helpers -------------------------------------------

    Loc locOf(uint16_t r) const { return alloc.loc[r]; }
    bool inSgpr(uint16_t r) const
    {
        return locOf(r).kind == Loc::Kind::Sgpr;
    }

    Src
    srcOf(uint16_t r, unsigned word = 0) const
    {
        Loc l = locOf(r);
        panic_if(l.kind == Loc::Kind::None,
                 "IL reg %u has no location", r);
        return l.kind == Loc::Kind::Sgpr ? Src::sgpr(l.reg + word)
                                         : Src::vgpr(l.reg + word);
    }

    Dst
    dstOf(uint16_t r) const
    {
        Loc l = locOf(r);
        panic_if(l.kind == Loc::Kind::None,
                 "IL reg %u has no location", r);
        return l.kind == Loc::Kind::Sgpr ? Dst::sgpr(l.reg)
                                         : Dst::vgpr(l.reg);
    }

    unsigned vT(unsigned i) const { return vTempBase + i; }

    /** Address-materialization temporaries rotate over four VGPR
     *  pairs (vT0..vT7), as a scheduling compiler would, so temp
     *  reuse does not artificially collapse register reuse
     *  distances. */
    unsigned
    nextAddrTempPair()
    {
        unsigned t = vT(addrRot * 2);
        addrRot = (addrRot + 1) % 4;
        return t;
    }

    /** VALU instructions may read at most one distinct SGPR; shuffle
     *  extras through VGPR temporaries (more code expansion the IL
     *  never sees). */
    void
    legalizeValuSrcs(std::vector<Src> &srcs, bool wide)
    {
        int first_sgpr = -1;
        unsigned next_tmp = 8; // vT8..vT11 reserved for this
        for (auto &s : srcs) {
            if (s.kind != Src::Kind::Sgpr)
                continue;
            if (first_sgpr < 0 || s.reg == unsigned(first_sgpr))
            {
                first_sgpr = s.reg;
                continue;
            }
            unsigned words = wide ? 2 : 1;
            unsigned tmp = vT(next_tmp);
            next_tmp += words;
            for (unsigned w = 0; w < words; ++w)
                a.emit(Gcn3Inst::vop1(Gcn3Op::V_MOV_B32,
                                      Dst::vgpr(tmp + w),
                                      Src::sgpr(s.reg + w)));
            s = Src::vgpr(tmp);
        }
    }

    void
    emitValu2(Gcn3Op op, Dst d, Src s0, Src s1, bool wide = false)
    {
        std::vector<Src> ss{s0, s1};
        legalizeValuSrcs(ss, wide);
        a.emit(Gcn3Inst::vop2(op, d, ss[0], ss[1]));
    }

    void
    emitValu3(Gcn3Op op, Dst d, Src s0, Src s1, Src s2,
              uint8_t neg = 0, bool wide = false)
    {
        std::vector<Src> ss{s0, s1, s2};
        legalizeValuSrcs(ss, wide);
        a.emit(Gcn3Inst::vop3(op, d, ss[0], ss[1], ss[2], neg));
    }

    // --- divergence plumbing ---------------------------------------

    void
    ensureVcc(uint16_t cond)
    {
        if (vccFrom == cond) {
            vccFrom = NoIlReg;
            return;
        }
        vccFrom = NoIlReg;
        a.emit(Gcn3Inst::vcmp(Gcn3Op::V_CMP_NE_U32, Src::imm(0),
                              srcOf(cond)));
    }

    void
    ensureScc(uint16_t cond)
    {
        if (sccFrom == cond) {
            sccFrom = NoIlReg;
            return;
        }
        sccFrom = NoIlReg;
        a.emit(Gcn3Inst::sopc(Gcn3Op::S_CMP_LG_U32, srcOf(cond),
                              Src::imm(0)));
    }

    // --- control-flow regions (the RegionWalk hooks) ----------------

    struct Ctx
    {
        bool divergent;
        unsigned savePair = 0;
        unsigned elseLabel = 0;
        unsigned endLabel = 0;
        unsigned topLabel = 0;
    };

    void
    ifHead(const CfRegion &r, bool divergent)
    {
        Ctx c;
        c.divergent = divergent;
        c.endLabel = a.newLabel();
        bool has_else = r.kind == CfRegion::Kind::IfElse;
        if (has_else)
            c.elseLabel = a.newLabel();

        if (c.divergent) {
            c.savePair = saveStackBase + 2 * divDepth;
            ++divDepth;
            divEverUsed = true;
            ensureVcc(r.condReg);
            a.emit(Gcn3Inst::sop1(Gcn3Op::S_AND_SAVEEXEC_B64,
                                  Dst::sgpr(c.savePair), Src::vcc()));
            a.emitBranch(Gcn3Op::S_CBRANCH_EXECZ,
                         has_else ? c.elseLabel : c.endLabel);
        } else {
            ensureScc(r.condReg);
            a.emitBranch(Gcn3Op::S_CBRANCH_SCC0,
                         has_else ? c.elseLabel : c.endLabel);
        }
        ctx.push_back(c);
    }

    void
    elseArm()
    {
        panic_if(ctx.empty(), "else outside a region");
        Ctx &c = ctx.back();
        if (c.divergent) {
            a.bind(c.elseLabel);
            a.emit(Gcn3Inst::sop2(Gcn3Op::S_XOR_B64, Dst::execMask(),
                                  Src::sgpr(c.savePair),
                                  Src::execMask()));
            a.emitBranch(Gcn3Op::S_CBRANCH_EXECZ, c.endLabel);
        } else {
            a.emitBranch(Gcn3Op::S_BRANCH, c.endLabel);
            a.bind(c.elseLabel);
        }
    }

    void
    ifEnd()
    {
        panic_if(ctx.empty(), "region end without a head");
        Ctx c = ctx.back();
        ctx.pop_back();
        a.bind(c.endLabel);
        if (c.divergent) {
            a.emit(Gcn3Inst::sop1(Gcn3Op::S_MOV_B64, Dst::execMask(),
                                  Src::sgpr(c.savePair)));
            --divDepth;
        }
    }

    void
    loopHead(bool divergent)
    {
        Ctx c;
        c.divergent = divergent;
        c.topLabel = a.newLabel();
        if (c.divergent) {
            c.savePair = saveStackBase + 2 * divDepth;
            ++divDepth;
            divEverUsed = true;
            a.emit(Gcn3Inst::sop1(Gcn3Op::S_MOV_B64, Dst::sgpr(c.savePair),
                                  Src::execMask()));
        }
        a.waitAll(); // backedge target: nothing may be in flight
        a.bind(c.topLabel);
        ctx.push_back(c);
    }

    void
    loopTail(const CfRegion &r)
    {
        panic_if(ctx.empty(), "loop tail without a head");
        Ctx c = ctx.back();
        ctx.pop_back();
        if (c.divergent) {
            ensureVcc(r.condReg);
            a.emit(Gcn3Inst::sop2(Gcn3Op::S_AND_B64, Dst::execMask(),
                                  Src::execMask(), Src::vcc()));
            a.emitBranch(Gcn3Op::S_CBRANCH_EXECNZ, c.topLabel);
            a.emit(Gcn3Inst::sop1(Gcn3Op::S_MOV_B64, Dst::execMask(),
                                  Src::sgpr(c.savePair)));
            --divDepth;
        } else {
            ensureScc(r.condReg);
            a.emitBranch(Gcn3Op::S_CBRANCH_SCC1, c.topLabel);
        }
    }

    // --- ABI sequences ----------------------------------------------

    /** Prologue: compute each lane's scratch (private+spill) base into
     *  v[1:2]. Pure ABI work the IL never shows. */
    void
    emitScratchPrologue()
    {
        using G = Gcn3Op;
        // s10 = workgroup size (from the AQL packet)
        a.emit(Gcn3Inst::smem(G::S_LOAD_DWORD,
                              Dst::sgpr(abi::ScalarTemp0), abi::AqlPtrLo,
                              abi::PktWgSizeOffset));
        a.emit(Gcn3Inst::sop2(G::S_BFE_U32, Dst::sgpr(abi::ScalarTemp0),
                              Src::sgpr(abi::ScalarTemp0),
                              Src::bits32(0x100000)));
        // s10 = wgSize * wgId (first work-item of this WG)
        a.emit(Gcn3Inst::sop2(G::S_MUL_I32, Dst::sgpr(abi::ScalarTemp0),
                              Src::sgpr(abi::ScalarTemp0),
                              Src::sgpr(abi::WorkgroupId)));
        // v1 = flat work-item id
        a.emit(Gcn3Inst::vop2(G::V_ADD_U32, Dst::vgpr(1),
                              Src::sgpr(abi::ScalarTemp0), Src::vgpr(0)));
        // v1 = id * stride
        emitValu3(G::V_MUL_LO_U32, Dst::vgpr(1), Src::vgpr(1),
                  Src::sgpr(abi::ScratchStride), Src::imm(0));
        // v[1:2] = base + v1
        a.emit(Gcn3Inst::vop2(G::V_ADD_U32, Dst::vgpr(1),
                              Src::sgpr(abi::ScratchBaseLo),
                              Src::vgpr(1)));
        a.emit(Gcn3Inst::vop1(G::V_MOV_B32, Dst::vgpr(2),
                              Src::sgpr(abi::ScratchBaseLo + 1)));
        a.emit(Gcn3Inst::vop2(G::V_ADDC_U32, Dst::vgpr(2), Src::vgpr(2),
                              Src::imm(0)));
    }

    /** Table 1: expand workitemabsid through the packet and the ABI. */
    void
    emitWorkitemAbsId(Dst d)
    {
        using G = Gcn3Op;
        a.emit(Gcn3Inst::smem(G::S_LOAD_DWORD,
                              Dst::sgpr(abi::ScalarTemp0), abi::AqlPtrLo,
                              abi::PktWgSizeOffset));
        // s_waitcnt lgkmcnt(0) inserted automatically at first use.
        a.emit(Gcn3Inst::sop2(G::S_BFE_U32, Dst::sgpr(abi::ScalarTemp0),
                              Src::sgpr(abi::ScalarTemp0),
                              Src::bits32(0x100000)));
        a.emit(Gcn3Inst::sop2(G::S_MUL_I32, Dst::sgpr(abi::ScalarTemp0),
                              Src::sgpr(abi::ScalarTemp0),
                              Src::sgpr(abi::WorkgroupId)));
        a.emit(Gcn3Inst::vop2(G::V_ADD_U32, d,
                              Src::sgpr(abi::ScalarTemp0), Src::vgpr(0)));
    }

    /** Materialize (addr64 il reg + byte offset) into a VGPR pair for
     *  a flat access; returns the first VGPR of the pair. */
    unsigned
    materializeFlatAddr(uint16_t addr_reg, int64_t offset)
    {
        using G = Gcn3Op;
        Loc l = locOf(addr_reg);
        if (l.kind == Loc::Kind::Sgpr) {
            unsigned base = l.reg;
            if (offset != 0) {
                a.emit(Gcn3Inst::sop2(G::S_ADD_U32,
                                      Dst::sgpr(abi::ScalarTemp0),
                                      Src::sgpr(base),
                                      Src::imm(offset)));
                a.emit(Gcn3Inst::sop2(G::S_ADDC_U32,
                                      Dst::sgpr(abi::ScalarTemp1),
                                      Src::sgpr(base + 1), Src::imm(0)));
                base = abi::ScalarTemp0;
            }
            // Table 2: move the scalar base into vector registers for
            // the flat address operand.
            unsigned t = nextAddrTempPair();
            a.emit(Gcn3Inst::vop1(G::V_MOV_B32, Dst::vgpr(t),
                                  Src::sgpr(base)));
            a.emit(Gcn3Inst::vop1(G::V_MOV_B32, Dst::vgpr(t + 1),
                                  Src::sgpr(base + 1)));
            return t;
        }
        if (offset == 0)
            return l.reg;
        unsigned t = nextAddrTempPair();
        a.emit(Gcn3Inst::vop2(G::V_ADD_U32, Dst::vgpr(t),
                              Src::imm(offset), Src::vgpr(l.reg)));
        a.emit(Gcn3Inst::vop2(G::V_ADDC_U32, Dst::vgpr(t + 1),
                              Src::vgpr(l.reg + 1), Src::imm(0)));
        return t;
    }

    /** Per-lane scratch address: v[1:2] + (off32 reg) + imm. */
    unsigned
    materializeScratchAddr(uint16_t off_reg, int64_t eff_imm)
    {
        using G = Gcn3Op;
        unsigned t = nextAddrTempPair();
        if (off_reg != hsail::Reg::NoReg) {
            Src o = srcOf(off_reg);
            if (eff_imm != 0) {
                emitValu2(G::V_ADD_U32, Dst::vgpr(vT(12)),
                          Src::imm(eff_imm), o);
                o = Src::vgpr(vT(12));
            }
            emitValu2(G::V_ADD_U32, Dst::vgpr(t), o, Src::vgpr(1));
        } else {
            a.emit(Gcn3Inst::vop2(G::V_ADD_U32, Dst::vgpr(t),
                                  Src::imm(eff_imm), Src::vgpr(1)));
        }
        a.emit(Gcn3Inst::vop2(G::V_ADDC_U32, Dst::vgpr(t + 1),
                              Src::vgpr(2), Src::imm(0)));
        return t;
    }

    /** Store data must be in VGPRs; copy through temps if scalar. */
    unsigned
    vgprData(uint16_t val_reg, unsigned words)
    {
        Loc l = locOf(val_reg);
        if (l.kind == Loc::Kind::Vgpr)
            return l.reg;
        for (unsigned w = 0; w < words; ++w)
            a.emit(Gcn3Inst::vop1(Gcn3Op::V_MOV_B32,
                                  Dst::vgpr(vT(12) + w),
                                  Src::sgpr(l.reg + w)));
        return vT(12);
    }

    // --- floating-point division (Table 3) --------------------------

    void
    emitDivF64(Dst d, uint16_t num, uint16_t den)
    {
        using G = Gcn3Op;
        unsigned t0 = vT(0), t1 = vT(2), t2 = vT(4), t3 = vT(6);
        Src n0 = srcOf(num), dn = srcOf(den);
        Src one = Src::f64const(1.0);

        // Scale denominator.
        emitValu3(G::V_DIV_SCALE_F64, Dst::vgpr(t0), dn, dn, n0, 0, true);
        // Move the numerator into a VGPR pair and scale it.
        for (unsigned w = 0; w < 2; ++w)
            emitValu2(G::V_MOV_B32, Dst::vgpr(t1 + w), srcOf(num, w),
                      Src{});
        emitValu3(G::V_DIV_SCALE_F64, Dst::vgpr(t1), Src::vgpr(t1), dn,
                  Src::vgpr(t1), 0, true);
        // 1/D estimate and two Newton-Raphson refinements.
        a.emit(Gcn3Inst::vop1(G::V_RCP_F64, Dst::vgpr(t2),
                              Src::vgpr(t0)));
        a.emit(Gcn3Inst::vop3(G::V_FMA_F64, Dst::vgpr(t3), Src::vgpr(t0),
                              Src::vgpr(t2), one, 0b001));
        a.emit(Gcn3Inst::vop3(G::V_FMA_F64, Dst::vgpr(t2), Src::vgpr(t2),
                              Src::vgpr(t3), Src::vgpr(t2)));
        a.emit(Gcn3Inst::vop3(G::V_FMA_F64, Dst::vgpr(t3), Src::vgpr(t0),
                              Src::vgpr(t2), one, 0b001));
        a.emit(Gcn3Inst::vop3(G::V_FMA_F64, Dst::vgpr(t2), Src::vgpr(t2),
                              Src::vgpr(t3), Src::vgpr(t2)));
        // Quotient estimate and error.
        a.emit(Gcn3Inst::vop3(G::V_MUL_F64, Dst::vgpr(t3), Src::vgpr(t1),
                              Src::vgpr(t2), Src{}));
        a.emit(Gcn3Inst::vop3(G::V_FMA_F64, Dst::vgpr(t0), Src::vgpr(t0),
                              Src::vgpr(t3), Src::vgpr(t1), 0b001));
        a.emit(Gcn3Inst::vop3(G::V_DIV_FMAS_F64, Dst::vgpr(t0),
                              Src::vgpr(t0), Src::vgpr(t2),
                              Src::vgpr(t3)));
        // Fix up special cases; produces the correctly-rounded result.
        emitValu3(G::V_DIV_FIXUP_F64, d, Src::vgpr(t0), dn, n0, 0, true);
    }

    void
    emitDivF32(Dst d, uint16_t num, uint16_t den)
    {
        using G = Gcn3Op;
        unsigned t0 = vT(0), t1 = vT(1), t2 = vT(2), t3 = vT(3);
        Src n0 = srcOf(num), dn = srcOf(den);
        Src one = Src::bits32(0x3f800000u);

        emitValu3(G::V_DIV_SCALE_F32, Dst::vgpr(t0), dn, dn, n0);
        emitValu3(G::V_DIV_SCALE_F32, Dst::vgpr(t1), n0, dn, n0);
        a.emit(Gcn3Inst::vop1(G::V_RCP_F32, Dst::vgpr(t2),
                              Src::vgpr(t0)));
        a.emit(Gcn3Inst::vop3(G::V_FMA_F32, Dst::vgpr(t3), Src::vgpr(t0),
                              Src::vgpr(t2), one, 0b001));
        a.emit(Gcn3Inst::vop3(G::V_FMA_F32, Dst::vgpr(t2), Src::vgpr(t2),
                              Src::vgpr(t3), Src::vgpr(t2)));
        a.emit(Gcn3Inst::vop3(G::V_MUL_F32, Dst::vgpr(t3), Src::vgpr(t1),
                              Src::vgpr(t2), Src{}));
        a.emit(Gcn3Inst::vop3(G::V_FMA_F32, Dst::vgpr(t0), Src::vgpr(t0),
                              Src::vgpr(t3), Src::vgpr(t1), 0b001));
        a.emit(Gcn3Inst::vop3(G::V_DIV_FMAS_F32, Dst::vgpr(t0),
                              Src::vgpr(t0), Src::vgpr(t2),
                              Src::vgpr(t3)));
        emitValu3(G::V_DIV_FIXUP_F32, d, Src::vgpr(t0), dn, n0);
    }

    // --- main translation -------------------------------------------

    void inst(size_t i, const HsailInst &inst);
    void translateAlu(size_t i, const HsailInst &inst);
    void translateMem(const HsailInst &inst);

    const arch::KernelCode &ilc;
    FinalizeStats &stats;
    RegionWalk walk;
    AllocResult alloc;
    std::unique_ptr<arch::KernelCode> out;
    Assembler a;

    bool usesScratch = false;
    unsigned vTempBase = 1;
    unsigned addrRot = 0;
    unsigned maxDepth = 1;
    unsigned saveStackBase = 0;
    bool divEverUsed = false;
    unsigned divDepth = 0;
    std::vector<Ctx> ctx;

    uint16_t vccFrom = NoIlReg;
    uint16_t sccFrom = NoIlReg;
};

void
Translator::inst(size_t i, const HsailInst &inst)
{
    vccFrom = NoIlReg;
    sccFrom = NoIlReg;

    switch (inst.op()) {
      case Opcode::Ld:
      case Opcode::St:
      case Opcode::AtomicAdd:
        translateMem(inst);
        return;
      case Opcode::Barrier:
        a.waitAll();
        a.emit(Gcn3Inst::sopp(Gcn3Op::S_BARRIER));
        return;
      case Opcode::Ret:
        a.waitAll();
        a.emit(Gcn3Inst::sopp(Gcn3Op::S_ENDPGM));
        return;
      case Opcode::Nop:
        a.emit(Gcn3Inst::sopp(Gcn3Op::S_NOP, 0));
        return;
      case Opcode::Br:
      case Opcode::CBr:
        panic("raw IL branch at %zu outside a structured region", i);
      default:
        translateAlu(i, inst);
        return;
    }
}

void
Translator::translateAlu(size_t i, const HsailInst &inst)
{
    using G = Gcn3Op;
    DataType t = inst.type();
    bool wide = hsail::typeRegs(t) == 2;
    uint16_t D = inst.dst().idx;
    uint16_t A = inst.src(0).idx;
    uint16_t B = inst.src(1).idx;
    uint16_t C = inst.src(2).idx;
    bool scalar = inst.dst().valid() && inSgpr(D);

    auto sA = [&](unsigned w = 0) { return srcOf(A, w); };
    auto sB = [&](unsigned w = 0) { return srcOf(B, w); };
    auto sC = [&](unsigned w = 0) { return srcOf(C, w); };
    Dst d = inst.dst().valid() ? dstOf(D) : Dst::none();
    auto dHi = [&]() {
        Loc l = locOf(D);
        return l.kind == Loc::Kind::Sgpr ? Dst::sgpr(l.reg + 1)
                                         : Dst::vgpr(l.reg + 1);
    };

    switch (inst.op()) {
      case Opcode::Add:
        if (scalar) {
            a.emit(Gcn3Inst::sop2(G::S_ADD_U32, d, sA(), sB()));
            if (wide)
                a.emit(Gcn3Inst::sop2(G::S_ADDC_U32, dHi(), sA(1),
                                      sB(1)));
        } else if (t == DataType::F32) {
            emitValu2(G::V_ADD_F32, d, sA(), sB());
        } else if (t == DataType::F64) {
            emitValu3(G::V_ADD_F64, d, sA(), sB(), Src{}, 0, true);
        } else if (wide) {
            emitValu2(G::V_ADD_U32, d, sA(), sB());
            emitValu2(G::V_ADDC_U32, dHi(), sA(1), sB(1));
        } else {
            emitValu2(G::V_ADD_U32, d, sA(), sB());
        }
        return;
      case Opcode::Sub:
        if (scalar) {
            a.emit(Gcn3Inst::sop2(G::S_SUB_U32, d, sA(), sB()));
        } else if (t == DataType::F32) {
            emitValu2(G::V_SUB_F32, d, sA(), sB());
        } else if (t == DataType::F64) {
            // No v_sub_f64: add with a negate modifier on src1.
            emitValu3(G::V_ADD_F64, d, sA(), sB(), Src{}, 0b010, true);
        } else if (wide) {
            emitValu2(G::V_SUB_U32, d, sA(), sB());
            emitValu2(G::V_SUBB_U32, dHi(), sA(1), sB(1));
        } else {
            emitValu2(G::V_SUB_U32, d, sA(), sB());
        }
        return;
      case Opcode::Mul:
        if (scalar)
            a.emit(Gcn3Inst::sop2(G::S_MUL_I32, d, sA(), sB()));
        else if (t == DataType::F32)
            emitValu2(G::V_MUL_F32, d, sA(), sB());
        else if (t == DataType::F64)
            emitValu3(G::V_MUL_F64, d, sA(), sB(), Src{}, 0, true);
        else
            emitValu3(G::V_MUL_LO_U32, d, sA(), sB(), Src{});
        return;
      case Opcode::MulHi:
        emitValu3(G::V_MUL_HI_U32, d, sA(), sB(), Src{});
        return;
      case Opcode::Mad:
        if (t == DataType::F32) {
            emitValu3(G::V_MAD_F32, d, sA(), sB(), sC());
        } else if (t == DataType::F64) {
            emitValu3(G::V_FMA_F64, d, sA(), sB(), sC(), 0, true);
        } else {
            // Integer multiply-add splits in two.
            emitValu3(G::V_MUL_LO_U32, Dst::vgpr(vT(12)), sA(), sB(),
                      Src{});
            emitValu2(G::V_ADD_U32, d, Src::vgpr(vT(12)), sC());
        }
        return;
      case Opcode::Fma:
        if (t == DataType::F64)
            emitValu3(G::V_FMA_F64, d, sA(), sB(), sC(), 0, true);
        else
            emitValu3(G::V_FMA_F32, d, sA(), sB(), sC());
        return;
      case Opcode::Div:
        if (t == DataType::F64)
            emitDivF64(d, A, B);
        else if (t == DataType::F32)
            emitDivF32(d, A, B);
        else
            fatal("the finalizer does not support integer division; "
                  "use shifts/masks (kernel %s)", ilc.name().c_str());
        return;
      case Opcode::Rem:
        fatal("the finalizer does not support integer remainder "
              "(kernel %s)", ilc.name().c_str());
      case Opcode::Min:
      case Opcode::Max: {
        bool is_min = inst.op() == Opcode::Min;
        if (scalar) {
            a.emit(Gcn3Inst::sop2(is_min ? G::S_MIN_U32 : G::S_MAX_U32,
                                  d, sA(), sB()));
        } else if (t == DataType::F32) {
            emitValu2(is_min ? G::V_MIN_F32 : G::V_MAX_F32, d, sA(),
                      sB());
        } else if (t == DataType::F64) {
            emitValu3(is_min ? G::V_MIN_F64 : G::V_MAX_F64, d, sA(),
                      sB(), Src{}, 0, true);
        } else if (t == DataType::S32) {
            emitValu2(is_min ? G::V_MIN_I32 : G::V_MAX_I32, d, sA(),
                      sB());
        } else {
            emitValu2(is_min ? G::V_MIN_U32 : G::V_MAX_U32, d, sA(),
                      sB());
        }
        return;
      }
      case Opcode::Abs:
        if (t == DataType::F32) {
            emitValu2(G::V_AND_B32, d, Src::bits32(0x7fffffffu), sA());
        } else if (t == DataType::F64) {
            emitValu2(G::V_MOV_B32, d, sA(), Src{});
            emitValu2(G::V_AND_B32, dHi(), Src::bits32(0x7fffffffu),
                      sA(1));
        } else {
            emitValu2(G::V_SUB_U32, Dst::vgpr(vT(12)), Src::imm(0),
                      sA());
            emitValu2(G::V_MAX_I32, d, sA(), Src::vgpr(vT(12)));
        }
        return;
      case Opcode::Neg:
        if (scalar) {
            a.emit(Gcn3Inst::sop2(G::S_SUB_U32, d, Src::imm(0), sA()));
        } else if (t == DataType::F32) {
            emitValu2(G::V_XOR_B32, d, Src::bits32(0x80000000u), sA());
        } else if (t == DataType::F64) {
            emitValu2(G::V_MOV_B32, d, sA(), Src{});
            emitValu2(G::V_XOR_B32, dHi(), Src::bits32(0x80000000u),
                      sA(1));
        } else {
            emitValu2(G::V_SUB_U32, d, Src::imm(0), sA());
        }
        return;
      case Opcode::Sqrt:
        if (t == DataType::F64)
            a.emit(Gcn3Inst::vop1(G::V_SQRT_F64, d, sA()));
        else
            a.emit(Gcn3Inst::vop1(G::V_SQRT_F32, d, sA()));
        return;
      case Opcode::And:
      case Opcode::Or:
      case Opcode::Xor: {
        G sop = inst.op() == Opcode::And ? (wide ? G::S_AND_B64
                                                 : G::S_AND_B32)
              : inst.op() == Opcode::Or ? (wide ? G::S_OR_B64
                                                : G::S_OR_B32)
                                        : (wide ? G::S_XOR_B64
                                                : G::S_XOR_B32);
        G vop = inst.op() == Opcode::And ? G::V_AND_B32
              : inst.op() == Opcode::Or ? G::V_OR_B32 : G::V_XOR_B32;
        if (scalar) {
            a.emit(Gcn3Inst::sop2(sop, d, sA(), sB()));
        } else {
            emitValu2(vop, d, sA(), sB());
            if (wide)
                emitValu2(vop, dHi(), sA(1), sB(1));
        }
        return;
      }
      case Opcode::Not:
        if (scalar) {
            a.emit(Gcn3Inst::sop1(G::S_NOT_B32, d, sA()));
        } else {
            emitValu2(G::V_NOT_B32, d, sA(), Src{});
            if (wide)
                emitValu2(G::V_NOT_B32, dHi(), sA(1), Src{});
        }
        return;
      case Opcode::Shl:
        if (scalar)
            a.emit(Gcn3Inst::sop2(G::S_LSHL_B32, d, sA(), sB()));
        else
            emitValu2(G::V_LSHLREV_B32, d, sB(), sA());
        return;
      case Opcode::Shr:
        if (scalar)
            a.emit(Gcn3Inst::sop2(G::S_LSHR_B32, d, sA(), sB()));
        else
            emitValu2(G::V_LSHRREV_B32, d, sB(), sA());
        return;
      case Opcode::AShr:
        if (scalar)
            a.emit(Gcn3Inst::sop2(G::S_ASHR_I32, d, sA(), sB()));
        else
            emitValu2(G::V_ASHRREV_I32, d, sB(), sA());
        return;
      case Opcode::Bfe:
        emitValu3(G::V_BFE_U32, d, sA(), sB(), sC());
        return;
      case Opcode::Cmp: {
        if (scalar) {
            a.emit(Gcn3Inst::sopc(scmpOp(inst.cmpOp(), t), sA(), sB()));
            // Peephole: a compare feeding only the region branch that
            // immediately follows needs no materialized boolean.
            if (walk.feedsBranch(i, D)) {
                sccFrom = D;
                return;
            }
            a.emit(Gcn3Inst::sop2(G::S_CSELECT_B32, d, Src::imm(1),
                                  Src::imm(0)));
            return;
        }
        std::vector<Src> ss{sA(), sB()};
        legalizeValuSrcs(ss, wide);
        a.emit(Gcn3Inst::vcmp(vcmpOp(inst.cmpOp(), t), ss[0], ss[1]));
        if (walk.feedsBranch(i, D)) {
            vccFrom = D;
            return;
        }
        emitValu2(G::V_CNDMASK_B32, d, Src::imm(0), Src::imm(1));
        return;
      }
      case Opcode::CMov:
        if (scalar) {
            a.emit(Gcn3Inst::sopc(G::S_CMP_LG_U32, sA(), Src::imm(0)));
            a.emit(Gcn3Inst::sop2(G::S_CSELECT_B32, d, sB(), sC()));
        } else {
            // vcc = cond != 0; dst = vcc ? tval : fval.
            a.emit(Gcn3Inst::vcmp(G::V_CMP_NE_U32, Src::imm(0), sA()));
            emitValu2(G::V_CNDMASK_B32, d, sC(), sB());
            if (wide)
                emitValu2(G::V_CNDMASK_B32, dHi(), sC(1), sB(1));
        }
        return;
      case Opcode::Mov:
        if (scalar) {
            a.emit(Gcn3Inst::sop1(wide ? G::S_MOV_B64 : G::S_MOV_B32, d,
                                  sA()));
        } else {
            emitValu2(G::V_MOV_B32, d, sA(), Src{});
            if (wide)
                emitValu2(G::V_MOV_B32, dHi(), sA(1), Src{});
        }
        return;
      case Opcode::MovImm: {
        uint64_t bits = inst.immBits();
        if (scalar) {
            a.emit(Gcn3Inst::sop1(G::S_MOV_B32, d,
                                  Src::bits32(uint32_t(bits))));
            if (wide)
                a.emit(Gcn3Inst::sop1(G::S_MOV_B32, dHi(),
                                      Src::bits32(uint32_t(bits >> 32))));
        } else {
            a.emit(Gcn3Inst::vop1(G::V_MOV_B32, d,
                                  Src::bits32(uint32_t(bits))));
            if (wide)
                a.emit(Gcn3Inst::vop1(G::V_MOV_B32, dHi(),
                                      Src::bits32(uint32_t(bits >> 32))));
        }
        return;
      }
      case Opcode::Cvt: {
        DataType st = inst.srcType();
        auto pair = [&](DataType a_, DataType b_) {
            return st == a_ && t == b_;
        };
        if (pair(DataType::U32, DataType::F32))
            a.emit(Gcn3Inst::vop1(G::V_CVT_F32_U32, d, sA()));
        else if (pair(DataType::S32, DataType::F32))
            a.emit(Gcn3Inst::vop1(G::V_CVT_F32_I32, d, sA()));
        else if (pair(DataType::F32, DataType::U32))
            a.emit(Gcn3Inst::vop1(G::V_CVT_U32_F32, d, sA()));
        else if (pair(DataType::F32, DataType::S32))
            a.emit(Gcn3Inst::vop1(G::V_CVT_I32_F32, d, sA()));
        else if (pair(DataType::F32, DataType::F64))
            a.emit(Gcn3Inst::vop1(G::V_CVT_F64_F32, d, sA()));
        else if (pair(DataType::F64, DataType::F32))
            a.emit(Gcn3Inst::vop1(G::V_CVT_F32_F64, d, sA()));
        else if (pair(DataType::U32, DataType::F64))
            a.emit(Gcn3Inst::vop1(G::V_CVT_F64_U32, d, sA()));
        else if (pair(DataType::F64, DataType::U32))
            a.emit(Gcn3Inst::vop1(G::V_CVT_U32_F64, d, sA()));
        else if (pair(DataType::U32, DataType::U64) ||
                 pair(DataType::S32, DataType::U64)) {
            if (scalar) {
                a.emit(Gcn3Inst::sop1(G::S_MOV_B32, d, sA()));
                a.emit(Gcn3Inst::sop1(G::S_MOV_B32, dHi(), Src::imm(0)));
            } else {
                emitValu2(G::V_MOV_B32, d, sA(), Src{});
                a.emit(Gcn3Inst::vop1(G::V_MOV_B32, dHi(), Src::imm(0)));
            }
        } else if (pair(DataType::U64, DataType::U32)) {
            if (scalar)
                a.emit(Gcn3Inst::sop1(G::S_MOV_B32, d, sA()));
            else
                emitValu2(G::V_MOV_B32, d, sA(), Src{});
        } else {
            fatal("unsupported conversion %s -> %s in kernel %s",
                  hsail::typeName(st), hsail::typeName(t),
                  ilc.name().c_str());
        }
        return;
      }
      case Opcode::WorkItemAbsId:
        emitWorkitemAbsId(d);
        return;
      case Opcode::WorkItemId:
        a.emit(Gcn3Inst::vop1(G::V_MOV_B32, d,
                              Src::vgpr(abi::WorkitemIdVgpr)));
        return;
      case Opcode::WorkGroupId:
        if (scalar)
            a.emit(Gcn3Inst::sop1(G::S_MOV_B32, d,
                                  Src::sgpr(abi::WorkgroupId)));
        else
            a.emit(Gcn3Inst::vop1(G::V_MOV_B32, d,
                                  Src::sgpr(abi::WorkgroupId)));
        return;
      case Opcode::WorkGroupSize: {
        Dst tmp = scalar ? d : Dst::sgpr(abi::ScalarTemp0);
        a.emit(Gcn3Inst::smem(G::S_LOAD_DWORD, tmp, abi::AqlPtrLo,
                              abi::PktWgSizeOffset));
        a.emit(Gcn3Inst::sop2(G::S_BFE_U32, tmp, Src::sgpr(tmp.reg),
                              Src::bits32(0x100000)));
        if (!scalar)
            a.emit(Gcn3Inst::vop1(G::V_MOV_B32, d,
                                  Src::sgpr(abi::ScalarTemp0)));
        return;
      }
      case Opcode::GridSize: {
        Dst tmp = scalar ? d : Dst::sgpr(abi::ScalarTemp0);
        a.emit(Gcn3Inst::smem(G::S_LOAD_DWORD, tmp, abi::AqlPtrLo,
                              abi::PktGridSizeOffset));
        if (!scalar)
            a.emit(Gcn3Inst::vop1(G::V_MOV_B32, d,
                                  Src::sgpr(abi::ScalarTemp0)));
        return;
      }
      default:
        panic("unhandled IL opcode %s", hsail::opcodeName(inst.op()));
    }
}

void
Translator::translateMem(const HsailInst &inst)
{
    using G = Gcn3Op;
    DataType t = inst.type();
    unsigned words = hsail::typeRegs(t);
    bool is_store = inst.op() == Opcode::St;
    uint16_t D = inst.dst().valid() ? inst.dst().idx : NoIlReg;
    uint16_t A = inst.src(0).valid() ? inst.src(0).idx : NoIlReg;
    uint16_t V = inst.src(1).valid() ? inst.src(1).idx : NoIlReg;
    int64_t off = inst.memOffset();

    switch (inst.segment()) {
      case Segment::Kernarg:
      case Segment::Arg: {
        // Table 2: kernarg accesses go through the ABI's s[6:7] base.
        bool to_sgpr = inSgpr(D);
        Dst d = to_sgpr ? dstOf(D) : Dst::sgpr(abi::ScalarTemp0);
        a.emit(Gcn3Inst::smem(words == 2 ? G::S_LOAD_DWORDX2
                                         : G::S_LOAD_DWORD,
                              d, abi::KernargLo, uint32_t(off)));
        if (!to_sgpr) {
            for (unsigned w = 0; w < words; ++w)
                a.emit(Gcn3Inst::vop1(
                    G::V_MOV_B32, Dst::vgpr(locOf(D).reg + w),
                    Src::sgpr(abi::ScalarTemp0 + w)));
        }
        return;
      }
      case Segment::Readonly:
        if (!is_store && inSgpr(D) && inSgpr(A)) {
            a.emit(Gcn3Inst::smem(words == 2 ? G::S_LOAD_DWORDX2
                                             : G::S_LOAD_DWORD,
                                  dstOf(D), locOf(A).reg,
                                  uint32_t(off)));
            return;
        }
        [[fallthrough]];
      case Segment::Global: {
        unsigned addr = materializeFlatAddr(A, off);
        if (inst.op() == Opcode::AtomicAdd) {
            unsigned data = vgprData(V, 1);
            a.emit(Gcn3Inst::flat(G::FLAT_ATOMIC_ADD, dstOf(D), addr,
                                  data));
        } else if (is_store) {
            unsigned data = vgprData(V, words);
            a.emit(Gcn3Inst::flat(words == 2 ? G::FLAT_STORE_DWORDX2
                                             : G::FLAT_STORE_DWORD,
                                  Dst::none(), addr, data));
        } else {
            a.emit(Gcn3Inst::flat(words == 2 ? G::FLAT_LOAD_DWORDX2
                                             : G::FLAT_LOAD_DWORD,
                                  dstOf(D), addr));
        }
        return;
      }
      case Segment::Private:
      case Segment::Spill: {
        int64_t eff = off +
            (inst.segment() == Segment::Spill
                 ? int64_t(ilc.privateBytesPerWi) : 0);
        unsigned addr = materializeScratchAddr(A, eff);
        if (is_store) {
            unsigned data = vgprData(V, words);
            a.emit(Gcn3Inst::flat(words == 2 ? G::FLAT_STORE_DWORDX2
                                             : G::FLAT_STORE_DWORD,
                                  Dst::none(), addr, data));
        } else {
            a.emit(Gcn3Inst::flat(words == 2 ? G::FLAT_LOAD_DWORDX2
                                             : G::FLAT_LOAD_DWORD,
                                  dstOf(D), addr));
        }
        return;
      }
      case Segment::Group: {
        unsigned addr;
        if (A != NoIlReg) {
            if (inSgpr(A)) {
                a.emit(Gcn3Inst::vop1(G::V_MOV_B32, Dst::vgpr(vT(0)),
                                      srcOf(A)));
                addr = vT(0);
            } else {
                addr = locOf(A).reg;
            }
        } else {
            a.emit(Gcn3Inst::vop1(G::V_MOV_B32, Dst::vgpr(vT(0)),
                                  Src::imm(0)));
            addr = vT(0);
        }
        if (is_store) {
            unsigned data = vgprData(V, words);
            a.emit(Gcn3Inst::ds(words == 2 ? G::DS_WRITE_B64
                                           : G::DS_WRITE_B32,
                                Dst::none(), addr, data,
                                uint32_t(off)));
        } else {
            a.emit(Gcn3Inst::ds(words == 2 ? G::DS_READ_B64
                                           : G::DS_READ_B32,
                                dstOf(D), addr, 0, uint32_t(off)));
        }
        return;
      }
    }
}

} // namespace

std::unique_ptr<arch::KernelCode>
lowerGcn3(const hsail::IlKernel &il, const GpuConfig &cfg,
          FinalizeStats &stats)
{
    return Translator(il, cfg, stats).run();
}

} // namespace last::finalizer
