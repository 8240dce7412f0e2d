/**
 * @file
 * The concrete PTXL instruction.
 *
 * Every PTXL instruction occupies 16 bytes of simulated memory — the
 * fixed 128-bit encoding NVIDIA adopted with Volta (one word of which
 * holds scheduling/scoreboard control in real hardware; here that
 * cost shows up purely as instruction footprint, one of the
 * cross-vendor divergence signals).
 *
 * Register model: general registers R0..R254 are vector-class (one
 * 32-bit value per lane, pairs for 64-bit); a missing source operand
 * reads as RZ (zero). Predicates P0..P7 are per-lane bits stored as
 * 64-bit masks in WfState::pregs and declared as scalar-class
 * operands so the CU's scoreboard and hazard probes track them
 * without modification.
 */

#ifndef LAST_PTXL_INST_HH
#define LAST_PTXL_INST_HH

#include <cstdint>

#include "arch/instruction.hh"
#include "arch/wf_state.hh"
#include "hsail/inst.hh"
#include "ptxl/opcodes.hh"

namespace last::ptxl
{

using hsail::CmpOp;
using hsail::DataType;
using hsail::Reg;
using hsail::Segment;

class PtxlInst : public arch::Instruction
{
  public:
    /** Fixed Volta-style 128-bit encoding. */
    static constexpr unsigned EncodedBytes = 16;
    static constexpr uint8_t NoPreg = 0xff;

    PtxlInst(PtxlOp op, DataType type);

    /** @{ Named factories. */
    static PtxlInst *alu(hsail::Opcode sem, DataType t, Reg dst, Reg src0,
                         Reg src1 = {}, Reg src2 = {});
    static PtxlInst *movImm(DataType t, Reg dst, uint64_t bits);
    static PtxlInst *cvt(DataType dst_t, DataType src_t, Reg dst, Reg src);
    /** Compare into a predicate; an invalid src1 compares against RZ. */
    static PtxlInst *isetp(CmpOp c, DataType t, uint8_t pdst, Reg src0,
                           Reg src1 = {});
    static PtxlInst *sel(DataType t, Reg dst, uint8_t psrc, Reg tval,
                         Reg fval);
    static PtxlInst *p2r(Reg dst, uint8_t psrc);
    static PtxlInst *s2r(hsail::Opcode sem, Reg dst);
    static PtxlInst *ld(Segment seg, DataType t, Reg dst, Reg addr,
                        int64_t offset);
    static PtxlInst *st(Segment seg, DataType t, Reg val, Reg addr,
                        int64_t offset);
    static PtxlInst *atomicAdd(DataType t, Reg dst, Reg addr,
                               int64_t offset, Reg val);
    static PtxlInst *bra(size_t target_index);
    static PtxlInst *braIf(uint8_t psrc, bool negate, size_t target_index);
    static PtxlInst *bssy(uint8_t bar_idx);
    static PtxlInst *bsync(uint8_t bar_idx);
    static PtxlInst *barrier();
    static PtxlInst *exitProgram();
    static PtxlInst *nop();
    /** @} */

    void execute(arch::WfState &wf) const override;
    std::string disassemble() const override;
    arch::FuType fuType() const override;
    unsigned sizeBytes() const override { return EncodedBytes; }

    /** Install the direct-threaded handler (src/ptxl/exec.cc). */
    void predecode(arch::ExecMeta &m) const override;

    PtxlOp op() const { return opc; }
    hsail::Opcode aluSem() const { return sem; }
    DataType type() const { return dtype; }
    DataType srcType() const { return srcDtype; }
    Segment segment() const { return seg; }
    CmpOp cmpOp() const { return cmpop; }
    Reg dst() const { return dstReg; }
    Reg src(unsigned i) const { return srcRegs[i]; }
    uint8_t predDst() const { return pdst; }
    uint8_t predSrc() const { return psrc; }
    bool predNegated() const { return pneg; }
    uint8_t barIdx() const { return bar; }
    uint64_t immBits() const { return imm; }

    /** @{ Branch-target plumbing (indices resolved to byte offsets by
     * the lowering; no reconvergence offsets — convergence is managed
     * by explicit BSSY/BSYNC instructions, not simulator state). */
    size_t targetIndex() const { return targetIdx; }
    void setTargetIndex(size_t idx) { targetIdx = idx; }
    Addr targetOffset() const { return targetIdx * EncodedBytes; }
    /** @} */

  private:
    friend struct PtxlExec;

    void finalizeOperands();

    void executeAlu(arch::WfState &wf) const;
    void executeIsetp(arch::WfState &wf) const;
    void executeMem(arch::WfState &wf) const;
    void executeBranch(arch::WfState &wf) const;
    void executeBsync(arch::WfState &wf) const;

    uint64_t laneAlu(const arch::WfState &wf, unsigned lane) const;

    PtxlOp opc;
    hsail::Opcode sem = hsail::Opcode::Nop;
    DataType dtype;
    DataType srcDtype = DataType::B32; ///< for Cvt
    Segment seg = Segment::Global;
    CmpOp cmpop = CmpOp::Eq;
    Reg dstReg;
    Reg srcRegs[3];
    uint8_t pdst = NoPreg;
    uint8_t psrc = NoPreg;
    bool pneg = false;
    uint8_t bar = 0;
    uint64_t imm = 0;
    size_t targetIdx = 0;
};

} // namespace last::ptxl

#endif // LAST_PTXL_INST_HH
