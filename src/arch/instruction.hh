/**
 * @file
 * ISA-neutral instruction interface.
 *
 * The compute-unit timing model is ISA-blind: it executes objects that
 * implement this interface. The HSAIL, GCN3 and PTXL front ends each
 * provide concrete instruction classes. Everything the CU needs for
 * timing — functional-unit class, encoded size (instruction-footprint
 * and fetch modelling), register operands (bank-conflict,
 * reuse-distance and value-uniqueness probes), branch/memory/barrier
 * semantics, and (through predecode) the dependence policy — is
 * exposed here.
 */

#ifndef LAST_ARCH_INSTRUCTION_HH
#define LAST_ARCH_INSTRUCTION_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hh"

namespace last::arch
{

struct WfState;
struct ExecMeta;

/** Functional unit an instruction issues to. */
enum class FuType
{
    VAlu,    ///< 16-lane vector ALU (4 per CU)
    SAlu,    ///< scalar ALU (1 per CU); GCN3 only
    Branch,  ///< branch unit
    VMem,    ///< vector (global/flat) memory pipeline
    SMem,    ///< scalar memory pipeline (scalar data cache)
    Lds,     ///< local data share pipeline
    Special, ///< barrier / endpgm / nop / waitcnt: no FU occupancy
};

const char *fuTypeName(FuType fu);

/** Figure 5's issue class: the functional unit, with GCN3's s_waitcnt
 *  counted apart and the sequencer's other instructions (nop,
 *  barrier, endpgm) as Misc. Predecode resolves it once
 *  (ExecMeta::instClass); the CU registers its class counters in this
 *  order, and InstIssue trace events carry it. */
enum class InstClass : uint8_t
{
    VAlu, SAlu, VMem, SMem, Lds, Branch, Waitcnt, Misc,
};

constexpr unsigned NumInstClasses = unsigned(InstClass::Misc) + 1;

/** Lower-case class name ("valu" ... "misc"), the InstIssue event's. */
const char *instClassName(InstClass c);

/** Register class of an operand. */
enum class RegClass : uint8_t
{
    Vector,
    Scalar,
    None,
};

/**
 * One register operand. Vector operands index the wavefront's vector
 * registers (32 bits x 64 lanes each); wide values occupy `width`
 * consecutive registers. Scalar indices use GCN3 encoding conventions
 * (0-101 SGPRs, 106/107 VCC, 126/127 EXEC).
 */
struct RegOperand
{
    RegClass cls = RegClass::None;
    uint16_t idx = 0;
    uint8_t width = 1; ///< number of consecutive 32-bit registers
    bool isDef = false;
};

/** GCN3-convention special scalar register indices. */
constexpr uint16_t RegVccLo = 106;
constexpr uint16_t RegVccHi = 107;
constexpr uint16_t RegExecLo = 126;
constexpr uint16_t RegExecHi = 127;

/** Behavioural flags; set once at construction. */
enum InstFlags : uint32_t
{
    IsBranch = 1u << 0,  ///< may change control flow
    IsMemory = 1u << 1,  ///< produces a MemAccess
    IsLoad = 1u << 2,
    IsStore = 1u << 3,
    IsBarrier = 1u << 4,
    IsEndPgm = 1u << 5,
    IsWaitcnt = 1u << 6, ///< GCN3 s_waitcnt
    IsNop = 1u << 7,
    IsScalarOp = 1u << 8, ///< executes on the scalar pipeline
    IsAtomic = 1u << 9,
    IsF64 = 1u << 10,     ///< double-precision VALU op
    IsTrans = 1u << 11,   ///< transcendental (rcp/sqrt); hazard window
    IsCondMove = 1u << 12,
};

/**
 * Abstract instruction. Concrete subclasses live in src/hsail,
 * src/gcn3 and src/ptxl. Instances are immutable after construction;
 * execute() mutates only the wavefront state passed in.
 */
class Instruction
{
  public:
    virtual ~Instruction() = default;

    /** Functionally execute for all active lanes; set wf.nextPc and,
     *  for memory ops, push a MemAccess descriptor onto wf. This is
     *  the reference engine; the direct-threaded engine (exec_meta.hh)
     *  must match it bit for bit. */
    virtual void execute(WfState &wf) const = 0;

    /**
     * Second half of predecode: pick the direct-threaded handler and
     * fill the ISA-specific ExecMeta fields (the dependence policy,
     * predigested constants). The caller (KernelCode::execMetas) has
     * already flattened the ISA-neutral metadata (flags/fu/size/
     * operand arrays) into `m`. Every ISA installs
     * active-lane kernels for its hot op classes and a non-virtual
     * call of its reference executor for the rest.
     */
    virtual void predecode(ExecMeta &m) const = 0;

    /** Assembly-like rendering, used by examples/tests. */
    virtual std::string disassemble() const = 0;

    /** Functional unit class for issue arbitration. */
    virtual FuType fuType() const = 0;

    /** Encoded size in bytes as stored in simulated memory. HSAIL
     *  instructions all report 8 (the paper's 64-bit approximation of
     *  BRIG); GCN3 reports 4, 8, or 12; PTXL 16. */
    virtual unsigned sizeBytes() const = 0;

    bool is(InstFlags f) const { return (flags_ & f) != 0; }
    uint32_t flags() const { return flags_; }

    const std::vector<RegOperand> &regOps() const { return regOps_; }

    /** Mnemonic (first token of the disassembly). */
    virtual std::string mnemonic() const;

  protected:
    void setFlags(uint32_t f) { flags_ |= f; }

    /** Drop the operand list (used when registers are renumbered). */
    void clearOps() { regOps_.clear(); }

    void
    addOp(RegClass cls, uint16_t idx, uint8_t width, bool is_def)
    {
        if (cls != RegClass::None)
            regOps_.push_back({cls, idx, width, is_def});
    }

  private:
    uint32_t flags_ = 0;
    std::vector<RegOperand> regOps_;
};

} // namespace last::arch

#endif // LAST_ARCH_INSTRUCTION_HH
