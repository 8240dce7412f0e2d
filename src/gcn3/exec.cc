/**
 * @file
 * Direct-threaded execution handlers for GCN3, and the VALU ops only
 * GCN3 has.
 *
 * Gcn3Inst::predecode resolves each static instruction to one of the
 * flat handlers below. A VALU or VOPC op with an IL twin (ilTwin(),
 * src/gcn3/inst.hh) and 32-bit types runs the IL's fast lane kernel
 * (hsail/lane_ops.hh, shared with HSAIL and PTXL), one instantiation
 * per opcode; the reference execute() runs the IL's reference lane
 * semantics on the same operands, so the lane-table tests compare two
 * implementations. The kernels are fed *resolved operand rows*: each
 * source becomes a stride-1 pointer over 64 lanes up front (a VGPR row
 * directly; SGPRs and constants broadcast into a thread-local scratch
 * row; the VOP3 negate modifier folded in), so the inner loop is a
 * branchless elementwise map the compiler can autovectorize.
 *
 * Everything else has one implementation that both engines run: the
 * ops only GCN3 has (executeOwnValu, below, on the same rows), and
 * the reference executors for SALU, SOPP, memory (over the lane body
 * all three levels share, arch/lane_mem.hh) and the 64-bit twins.
 *
 * Correctness contract: bit-identical to Gcn3Inst::execute(). Lanes
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

/** Scratch rows for broadcast/negated operands; thread-local because
 *  the parallel sweep driver executes wavefronts on many threads. */
thread_local arch::LaneVec t_row[3];

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
     * Resolve source operand `i` to a stride-1 row of 64 lane values,
     * value-identical to readSrc32(wf, i, lane) for every lane. VGPRs
     * without a negate modifier return the register row itself; every
     * other case broadcasts or copies into t_row[slot]. Hoisting the
     * SGPR read out of the lane loop is exact: no VALU/VOPC op writes
     * SGPRs, VCC, or EXEC mid-loop.
     */
    static const uint32_t *
    row32(const Gcn3Inst &I, const Wf &wf, unsigned i, unsigned slot)
    {
        const Src &s = I.srcs[i];
        arch::LaneVec &scratch = t_row[slot];
        const uint32_t neg =
            (I.negMask & (1u << i)) ? 0x80000000u : 0;
        switch (s.kind) {
          case Src::Kind::Vgpr: {
            const uint32_t *p = wf.vregs[s.reg].data();
            if (!neg)
                return p;
            for (unsigned l = 0; l < WavefrontSize; ++l)
                scratch[l] = p[l] ^ neg;
            return scratch.data();
          }
          case Src::Kind::Sgpr:
            scratch.fill(wf.readSgpr(s.reg) ^ neg);
            return scratch.data();
          case Src::Kind::InlineConst:
          case Src::Kind::Literal:
            scratch.fill(s.value ^ neg);
            return scratch.data();
          case Src::Kind::InlineConstF64: // low dword is zero
          case Src::Kind::None:
            scratch.fill(neg);
            return scratch.data();
        }
        scratch.fill(0);
        return scratch.data();
    }

    /** A 32-bit VALU/VOPC op with an IL twin: the IL's fast kernel over
     *  resolved rows, one instantiation per opcode. */
    template <Gcn3Op OP>
    static void
    twinH(const Meta &m, Wf &wf)
    {
        using hsail::Opcode;
        constexpr IlTwin T = ilTwin(OP);
        const Gcn3Inst &I = inst(m);
        wf.nextPc = wf.pc + m.size;

        // VOPC has no destination row (and a kernel may have no VGPR).
        uint32_t *d = nullptr;
        if constexpr (T.op != Opcode::Cmp)
            d = wf.vregs[I.dst.reg].data();
        const uint32_t *s[3] = {};
        for (unsigned i = 0; i < 3; ++i)
            s[i] = i >= hsail::aluArity(T.op) ? s[0]
                 : T.src[i] == IlTwin::DstRow ? d
                 : row32(I, wf, T.src[i], i);
        const uint32_t *a = s[0], *b = s[1], *c = s[2];

        if constexpr (T.op == Opcode::Cmp) {
            // VCC gets the result mask; inactive lanes read 0.
            const uint64_t exec = wf.exec;
            uint64_t result = 0;
            if (exec == ~0ull) {
                for (unsigned l = 0; l < WavefrontSize; ++l)
                    result |= uint64_t(hsail::laneCmp32<T.cmp, T.type>(
                                  a[l], b[l])) << l;
            } else {
                for (uint64_t rest = exec; rest; rest &= rest - 1) {
                    unsigned l = unsigned(std::countr_zero(rest));
                    result |= uint64_t(hsail::laneCmp32<T.cmp, T.type>(
                                  a[l], b[l])) << l;
                }
            }
            wf.vcc = result;
        } else if constexpr (T.op == Opcode::Cvt) {
            // The reference conversion itself, at constant types.
            hsail::forLanes(wf.exec, d, [=](unsigned l) {
                return uint32_t(hsail::laneCvt(T.type, T.srcType, a[l]));
            });
        } else {
            hsail::forLanes(wf.exec, d, [=](unsigned l) {
                return hsail::lane32<T.op, T.type>(a[l], b[l], c[l]);
            });
        }
    }

    /** twinH<OP> for a twin whose every type is 32-bit, else nullptr. */
    template <size_t... Ops>
    static constexpr auto
    twinTable(std::index_sequence<Ops...>)
    {
        auto one = []<Gcn3Op OP>() -> arch::ExecHandler {
            constexpr IlTwin T = ilTwin(OP);
            if constexpr (T.valid() && hsail::typeRegs(T.type) == 1 &&
                          hsail::typeRegs(T.srcType) == 1)
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
            if (!ilTwin(I.opc).valid())
                return &arch::refH<Gcn3Inst, &Gcn3Inst::executeOwnValu>;
            if (arch::ExecHandler h = twins[size_t(I.opc)])
                return h;
            // The 64-bit twins.
            return &arch::refH<Gcn3Inst, &Gcn3Inst::executeValu>;
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
    auto row = [&](unsigned i) { return Gcn3Exec::row32(*this, wf, i, i); };

    switch (opc) {
      case Gcn3Op::V_RCP_F32: {
        const uint32_t *a = row(0);
        hsail::forLanes(exec, d, [=](unsigned l) {
            return hsail::fromF32(1.0f / hsail::asF32(a[l]));
        });
        return;
      }
      case Gcn3Op::V_CNDMASK_B32: {
        const uint32_t *a = row(0), *b = row(1);
        hsail::forLanes(exec, d, [=](unsigned l) {
            return ((vcc >> l) & 1) ? b[l] : a[l];
        });
        return;
      }
      case Gcn3Op::V_MAD_U32_U24: {
        const uint32_t *a = row(0), *b = row(1), *c = row(2);
        hsail::forLanes(exec, d, [=](unsigned l) {
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
