/**
 * @file
 * The concrete HSAIL instruction: a SIMT operation over per-work-item
 * 32-bit (or paired 64-bit) registers.
 *
 * Every HSAIL instruction reports an 8-byte encoded size — the fixed
 * 64-bit pseudo-encoding the paper describes for approximating BRIG's
 * verbose data structures in simulated memory.
 */

#ifndef LAST_HSAIL_INST_HH
#define LAST_HSAIL_INST_HH

#include <cstdint>
#include <optional>

#include "arch/instruction.hh"
#include "arch/wf_state.hh"
#include "hsail/opcodes.hh"

namespace last::hsail
{

/** HSAIL register id (index into the WF's flat vector register file).
 *  65535 means "no register". */
struct Reg
{
    uint16_t idx = NoReg;

    static constexpr uint16_t NoReg = 0xffff;
    bool valid() const { return idx != NoReg; }
};

class HsailInst : public arch::Instruction
{
  public:
    /** All HSAIL instructions occupy 8 bytes of simulated memory. */
    static constexpr unsigned EncodedBytes = 8;

    /** General constructor; prefer the named factories below. */
    HsailInst(Opcode op, DataType type);

    /** @{ Named factories. */
    static HsailInst *alu(Opcode op, DataType t, Reg dst, Reg src0,
                          Reg src1 = {}, Reg src2 = {});
    static HsailInst *cmp(CmpOp c, DataType t, Reg dst, Reg src0, Reg src1);
    static HsailInst *cmov(DataType t, Reg dst, Reg cond, Reg tval,
                           Reg fval);
    static HsailInst *mov(DataType t, Reg dst, Reg src);
    static HsailInst *movImm(DataType t, Reg dst, uint64_t bits);
    static HsailInst *cvt(DataType dst_t, DataType src_t, Reg dst, Reg src);
    static HsailInst *ld(Segment seg, DataType t, Reg dst, Reg addr,
                         int64_t offset);
    static HsailInst *st(Segment seg, DataType t, Reg val, Reg addr,
                         int64_t offset);
    static HsailInst *atomicAdd(DataType t, Reg dst, Reg addr,
                                int64_t offset, Reg val);
    static HsailInst *br(size_t target_index);
    static HsailInst *cbr(Reg cond, size_t target_index);
    /** Branch when cond == 0 (used by structured if lowering). */
    static HsailInst *cbrz(Reg cond, size_t target_index);
    static HsailInst *barrier();
    static HsailInst *ret();
    static HsailInst *special(Opcode op, Reg dst);
    static HsailInst *nop();
    /** @} */

    void execute(arch::WfState &wf) const override;
    std::string disassemble() const override;
    arch::FuType fuType() const override;
    unsigned sizeBytes() const override { return EncodedBytes; }

    /** Install the direct-threaded handler (src/hsail/exec.cc). */
    void predecode(arch::ExecMeta &m) const override;

    Opcode op() const { return opc; }
    DataType type() const { return dtype; }
    DataType srcType() const { return srcDtype; }
    Segment segment() const { return seg; }
    CmpOp cmpOp() const { return cmpop; }
    Reg dst() const { return dstReg; }
    Reg src(unsigned i) const { return srcRegs[i]; }
    uint64_t immBits() const { return imm; }
    int64_t memOffset() const { return int64_t(imm); }

    /** @{ Branch-target plumbing. Targets are built as instruction
     * indices and resolved to byte offsets (index * 8) by the builder;
     * the RS needs the reconvergence offset, computed by the ipdom
     * pass at load time. */
    size_t targetIndex() const { return targetIdx; }
    void setTargetIndex(size_t idx) { targetIdx = idx; }
    Addr targetOffset() const { return targetIdx * EncodedBytes; }
    /** True for the branch-if-zero variant of cbr. */
    bool branchIfZero() const { return opc == Opcode::CBr && imm != 0; }
    void setRpcOffset(Addr rpc) { rpcOff = rpc; }
    Addr rpcOffset() const { return rpcOff; }
    /** @} */

    /** Renumber all registers (the HLC's register allocation pass);
     *  rebuilds the operand list. */
    void remapRegs(const std::vector<uint16_t> &remap);

  private:
    /** The direct-threaded handlers (exec.cc) read operand fields and
     *  call the private executors non-virtually. */
    friend struct HsailExec;

    void finalizeOperands();
    void clearOperands();

    void executeAlu(arch::WfState &wf) const;
    void executeMem(arch::WfState &wf) const;
    void executeBranch(arch::WfState &wf) const;

    uint64_t laneAlu(const arch::WfState &wf, unsigned lane) const;

    Opcode opc;
    DataType dtype;
    DataType srcDtype = DataType::B32; ///< for Cvt
    Segment seg = Segment::Global;
    CmpOp cmpop = CmpOp::Eq;
    Reg dstReg;
    Reg srcRegs[3];
    uint64_t imm = 0;
    size_t targetIdx = 0;
    Addr rpcOff = InvalidAddr;
};

} // namespace last::hsail

#endif // LAST_HSAIL_INST_HH
