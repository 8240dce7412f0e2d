/**
 * @file
 * Direct-threaded execution handlers for GCN3, and the VALU ops only
 * GCN3 has.
 *
 * Gcn3Inst::predecode resolves each static instruction to one of the
 * flat handlers below. Every VALU or VOPC op with an IL twin (ilTwin(),
 * src/gcn3/inst.hh), at either width, runs twinH: the one
 * implementation of the IL arithmetic (hsail/lane_ops.hh, shared with
 * HSAIL and PTXL) instantiated at the twin's (opcode, type), the same
 * laneValue() the reference execute() calls once per lane. The two
 * engines differ only in dispatch and operand plumbing. The handlers
 * are fed *resolved operand rows*: each source becomes one stride-1
 * row over 64 lanes up front, two for a 64-bit source (VGPR rows
 * directly; SGPRs and constants broadcast into a thread-local scratch
 * row; the VOP3 negate modifier folded in), so the inner loop is a
 * branchless elementwise map the compiler can autovectorize.
 *
 * Everything else has one implementation that both engines run: the
 * ops only GCN3 has (executeOwnValu, below, on the same rows), and
 * the reference executors for SALU, SOPP and memory (over the lane
 * body all three levels share, arch/lane_mem.hh).
 *
 * Correctness contract: bit-identical to Gcn3Inst::execute(), save the
 * float results IEEE 754 leaves open (see arch/exec_meta.hh). Lanes
 * run in ascending order, SGPR broadcast is exact because no VALU op
 * writes scalar state mid-loop, and the differential suite in
 * tests/test_exec_engine.cc compares every workload field for field
 * against the reference engine.
 */

#include <array>
#include <bit>
#include <utility>

#include "arch/exec_meta.hh"
#include "common/logging.hh"
#include "gcn3/inst.hh"
#include "hsail/lane_ops.hh"

namespace last::gcn3
{

namespace
{

/** Scratch rows (low and high word) for broadcast/negated operands;
 *  thread-local because the parallel sweep driver executes wavefronts
 *  on many threads. */
thread_local arch::LaneVec t_row[3][2];

} // namespace

struct Gcn3Exec
{
    using Meta = arch::ExecMeta;
    using Wf = arch::WfState;

    static const Gcn3Inst &
    inst(const Meta &m)
    {
        return static_cast<const Gcn3Inst &>(*m.inst);
    }

    /**
     * Resolve source operand `i`, read as `regs` 32-bit registers, to
     * stride-1 rows of 64 lane values: lane l of the rows is
     * readSrc32(wf, i, l), or readSrc64 for a pair. A VGPR is its own
     * register rows, except that a negate modifier copies the row that
     * holds the sign bit into t_row[slot] with the bit flipped; an SGPR
     * or a constant broadcasts its readSrc value there. Hoisting that
     * read out of the lane loop is exact: no VALU/VOPC op writes SGPRs,
     * VCC, or EXEC mid-loop.
     */
    static hsail::LaneRows
    rows(const Gcn3Inst &I, const Wf &wf, unsigned i, unsigned slot,
         unsigned regs)
    {
        const Src &s = I.srcs[i];
        arch::LaneVec(&scratch)[2] = t_row[slot];
        if (s.kind == Src::Kind::Vgpr) {
            hsail::LaneRows r = hsail::regRows(wf, s.reg, regs);
            if (I.negMask & (1u << i)) {
                const uint32_t *&sign = regs == 2 ? r.hi : r.lo;
                for (unsigned l = 0; l < WavefrontSize; ++l)
                    scratch[1][l] = sign[l] ^ 0x80000000u;
                sign = scratch[1].data();
            }
            return r;
        }
        const uint64_t v =
            regs == 2 ? I.readSrc64(wf, i, 0) : I.readSrc32(wf, i, 0);
        scratch[0].fill(uint32_t(v));
        if (regs != 2)
            return {scratch[0].data(), nullptr};
        scratch[1].fill(uint32_t(v >> 32));
        return {scratch[0].data(), scratch[1].data()};
    }

    /** A VALU/VOPC op with an IL twin: the IL arithmetic at the twin's
     *  constant (opcode, type) over resolved rows. */
    template <Gcn3Op OP>
    static void
    twinH(const Meta &m, Wf &wf)
    {
        using hsail::Opcode;
        constexpr IlTwin T = ilTwin(OP);
        constexpr unsigned W = hsail::resultRegs(T.op, T.type);
        const Gcn3Inst &I = inst(m);
        wf.nextPc = wf.pc + m.size;

        // VOPC has no destination row (and a kernel may have no VGPR).
        uint32_t *d0 = nullptr, *d1 = nullptr;
        if constexpr (T.op != Opcode::Cmp) {
            d0 = wf.vregs[I.dst.reg].data();
            if constexpr (W == 2)
                d1 = wf.vregs[I.dst.reg + 1].data();
        }
        hsail::LaneRows s[3];
        for (unsigned i = 0; i < hsail::aluArity(T.op); ++i)
            s[i] = T.src[i] == IlTwin::DstRow
                ? hsail::LaneRows{d0, d1}
                : rows(I, wf, T.src[i], i,
                       hsail::sourceRegs(T.op, T.type, T.srcType, i));
        auto lane = [=](unsigned l) {
            return hsail::laneAt<T.op, T.type, T.srcType, T.cmp>(s, 0, l);
        };

        if constexpr (T.op == Opcode::Cmp) {
            // VCC gets the result mask; inactive lanes read 0.
            uint64_t result = 0;
            hsail::forLanes(wf.exec, [&](unsigned l) {
                result |= lane(l) << l;
            });
            wf.vcc = result;
        } else {
            hsail::writeLanes<W>(wf.exec, d0, d1, lane);
        }
    }

    /** twinH<OP> for an opcode with an IL twin, else nullptr. */
    template <size_t... Ops>
    static constexpr auto
    twinTable(std::index_sequence<Ops...>)
    {
        auto one = []<Gcn3Op OP>() -> arch::ExecHandler {
            if constexpr (ilTwin(OP).valid())
                return &twinH<OP>;
            else
                return nullptr;
        };
        return std::array<arch::ExecHandler, sizeof...(Ops)>{
            one.template operator()<Gcn3Op(Ops)>()...};
    }

    static arch::ExecHandler
    pick(const Gcn3Inst &I)
    {
        static constexpr auto twins = twinTable(
            std::make_index_sequence<size_t(Gcn3Op::NumOpcodes)>());
        switch (I.format()) {
          case Format::SOP1:
          case Format::SOP2:
          case Format::SOPC:
          case Format::SOPK:
            return &arch::refH<Gcn3Inst, &Gcn3Inst::executeSalu>;
          case Format::SOPP:
            return &arch::refH<Gcn3Inst, &Gcn3Inst::executeSopp>;
          case Format::SMEM:
            return &arch::refH<Gcn3Inst, &Gcn3Inst::executeSmem>;
          case Format::VOPC:
          case Format::VOP1:
          case Format::VOP2:
          case Format::VOP3:
            if (arch::ExecHandler h = twins[size_t(I.opc)])
                return h;
            return &arch::refH<Gcn3Inst, &Gcn3Inst::executeOwnValu>;
          case Format::FLAT:
            return &arch::refH<Gcn3Inst, &Gcn3Inst::executeFlat>;
          case Format::DS:
            return &arch::refH<Gcn3Inst, &Gcn3Inst::executeDs>;
        }
        return nullptr; // unreachable; buildMetas panics on null
    }
};

void
Gcn3Inst::executeOwnValu(arch::WfState &wf) const
{
    const uint64_t exec = wf.exec;
    const uint64_t vcc = wf.vcc;
    uint32_t *d = wf.vregs[dst.reg].data();
    auto row = [&](unsigned i) {
        return Gcn3Exec::rows(*this, wf, i, i, 1).lo;
    };

    switch (opc) {
      case Gcn3Op::V_RCP_F32: {
        const uint32_t *a = row(0);
        hsail::writeLanes<1>(exec, d, nullptr, [=](unsigned l) {
            return hsail::fromF32(1.0f / hsail::asF32(a[l]));
        });
        return;
      }
      case Gcn3Op::V_CNDMASK_B32: {
        const uint32_t *a = row(0), *b = row(1);
        hsail::writeLanes<1>(exec, d, nullptr, [=](unsigned l) {
            return ((vcc >> l) & 1) ? b[l] : a[l];
        });
        return;
      }
      case Gcn3Op::V_MAD_U32_U24: {
        const uint32_t *a = row(0), *b = row(1), *c = row(2);
        hsail::writeLanes<1>(exec, d, nullptr, [=](unsigned l) {
            return (a[l] & 0xffffff) * (b[l] & 0xffffff) + c[l];
        });
        return;
      }
      case Gcn3Op::V_ADD_U32:
      case Gcn3Op::V_ADDC_U32:
      case Gcn3Op::V_SUB_U32:
      case Gcn3Op::V_SUBB_U32: {
        // Each active lane writes its carry-out (borrow-out) bit into
        // VCC; inactive lanes keep theirs. ADDC/SUBB read the carry-in
        // from the VCC before the instruction.
        const uint32_t *a = row(0), *b = row(1);
        const bool sub =
            opc == Gcn3Op::V_SUB_U32 || opc == Gcn3Op::V_SUBB_U32;
        const uint64_t cin_mask =
            (opc == Gcn3Op::V_ADDC_U32 || opc == Gcn3Op::V_SUBB_U32) ? vcc
                                                                    : 0;
        uint64_t new_vcc = vcc;
        for (uint64_t rest = exec; rest; rest &= rest - 1) {
            const unsigned l = unsigned(std::countr_zero(rest));
            const uint64_t bit = 1ull << l;
            const uint64_t cin = (cin_mask >> l) & 1;
            // Read both sources before the store: d may be a's or b's
            // row (v_sub_u32 v0, vcc, v0, v1). Both widen to 64 bits:
            // a carry sets bit 32, a borrow makes the difference wrap.
            const uint64_t x = a[l], y = b[l] + cin;
            const uint64_t r = sub ? x - y : x + y;
            const bool cout = sub ? y > x : (r >> 32) != 0;
            d[l] = uint32_t(r);
            new_vcc = cout ? (new_vcc | bit) : (new_vcc & ~bit);
        }
        wf.vcc = new_vcc;
        return;
      }
      case Gcn3Op::V_DIV_SCALE_F32:
      case Gcn3Op::V_DIV_SCALE_F64:
        // Scaling pass-through: the fixup step produces the exact
        // quotient, so no scaling is required in this model, and no
        // lane needs the predicate.
        for (uint64_t rest = exec; rest; rest &= rest - 1) {
            const unsigned l = unsigned(std::countr_zero(rest));
            if (opc == Gcn3Op::V_DIV_SCALE_F64)
                wf.writeVreg64(dst.reg, l, readSrc64(wf, 0, l));
            else
                d[l] = readSrc32(wf, 0, l);
        }
        wf.vcc = vcc & ~exec;
        return;
      case Gcn3Op::V_RCP_F64:
        for (uint64_t rest = exec; rest; rest &= rest - 1) {
            const unsigned l = unsigned(std::countr_zero(rest));
            wf.writeVreg64(dst.reg, l,
                           hsail::fromF64(
                               1.0 / hsail::asF64(readSrc64(wf, 0, l))));
        }
        return;
      default:
        panic("unhandled VALU op %s", opName(opc));
    }
}

void
Gcn3Inst::predecode(arch::ExecMeta &m) const
{
    m.handler = Gcn3Exec::pick(*this);
    // Predigest what the CU's issue logic would otherwise downcast
    // for: waitcnt thresholds and the SOPP immediate (s_nop).
    if (opc == Gcn3Op::S_WAITCNT) {
        m.c0 = vmThreshold();
        m.c1 = lgkmThreshold();
    }
    m.imm = simm;
}

} // namespace last::gcn3
