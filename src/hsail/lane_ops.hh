/**
 * @file
 * The IL's per-lane semantics, written once for all three levels:
 * HSAIL itself, PTXL (PtxlInst names its value semantics by
 * hsail::Opcode) and GCN3, whose VALU and VOPC ops map onto IL ops
 * through gcn3::ilTwin() (src/gcn3/inst.hh). The levels therefore
 * agree functionally by construction; machine lowering must not change
 * an IEEE result.
 *
 * The ALU arithmetic has one implementation, laneValue() (with
 * laneCompare() and laneCvt()): a switch over (opcode, type) on
 * operands zero-extended to 64 bits. Both engines run it and differ
 * only in dispatch and operand plumbing (and, where IEEE 754 leaves an
 * F32 or F64 result open, possibly in how the compiler settles it; see
 * arch/exec_meta.hh):
 *
 *  - the reference execute() path calls it once per lane with the
 *    instruction's fields (through laneReference() at the IL levels,
 *    which also fetches the operands);
 *  - the predecoded engine's handlers instantiate it at compile-time
 *    (opcode, type) constants through laneAt(), so the switch folds
 *    away and forLanes() runs a flat loop over register rows that the
 *    compiler can autovectorize. The IL levels' handlers are
 *    IlAluHandlers<Inst>, one per (opcode, type) in a table generated
 *    from the enums; GCN3's feed laneAt() its resolved operand rows.
 *
 * The IL's memory instructions are here too, in one implementation
 * both engines run (ilMemory(): the segment addressing over the
 * memory-lane body in arch/lane_mem.hh).
 *
 * Integer corner cases are defined once, here, in unsigned arithmetic:
 * division or remainder by zero yields 0, INT32_MIN / -1 wraps to
 * INT32_MIN with remainder 0, and neg/abs of INT32_MIN wrap to
 * INT32_MIN.
 */

#ifndef LAST_HSAIL_LANE_OPS_HH
#define LAST_HSAIL_LANE_OPS_HH

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <utility>

#include "arch/exec_meta.hh"
#include "arch/lane_mem.hh"
#include "arch/wf_state.hh"
#include "common/logging.hh"
#include "hsail/inst.hh"

namespace last::hsail
{

/** @{ Float bit casts. */
inline float asF32(uint32_t b) { return std::bit_cast<float>(b); }
inline uint32_t fromF32(float f) { return std::bit_cast<uint32_t>(f); }
inline double asF64(uint64_t b) { return std::bit_cast<double>(b); }
inline uint64_t fromF64(double d) { return std::bit_cast<uint64_t>(d); }
/** @} */

/** @{ The signed 32-bit corner cases (see the file comment). */
inline uint32_t negS32(uint32_t a) { return 0u - a; }
inline uint32_t absS32(uint32_t a) { return int32_t(a) < 0 ? 0u - a : a; }

inline uint32_t
divS32(uint32_t a, uint32_t b)
{
    if (b == 0)
        return 0;
    if (int32_t(b) == -1)
        return 0u - a;
    return uint32_t(int32_t(a) / int32_t(b));
}

inline uint32_t
remS32(uint32_t a, uint32_t b)
{
    if (b == 0 || int32_t(b) == -1)
        return 0;
    return uint32_t(int32_t(a) % int32_t(b));
}
/** @} */

/*
 * laneCompare(), laneCvt() and laneValue() are always inlined, and so
 * are the lane-loop helpers below that call them. A handler calls them
 * with constant (opcode, type) arguments, and only inlining folds their
 * switches into the handler's lane loop. With some 220 instantiations
 * in one file, GCC's heuristics stop inlining and call the out-of-line
 * copy once per lane.
 */

/** `x cmp y`, at the operands' type. */
template <class T>
[[gnu::always_inline]] inline bool
compareAs(CmpOp cmp, T x, T y)
{
    switch (cmp) {
      case CmpOp::Eq: return x == y;
      case CmpOp::Ne: return x != y;
      case CmpOp::Lt: return x < y;
      case CmpOp::Le: return x <= y;
      case CmpOp::Gt: return x > y;
      case CmpOp::Ge: return x >= y;
    }
    return false;
}

/** The compare: a and b read at type `t`. */
[[gnu::always_inline]] inline bool
laneCompare(CmpOp cmp, DataType t, uint64_t a, uint64_t b)
{
    switch (t) {
      case DataType::F32:
        return compareAs(cmp, asF32(uint32_t(a)), asF32(uint32_t(b)));
      case DataType::F64: return compareAs(cmp, asF64(a), asF64(b));
      case DataType::S32: return compareAs(cmp, int32_t(a), int32_t(b));
      default: return compareAs(cmp, a, b);
    }
}

/**
 * The conversion of one lane's source bits `s` (read at type `from`)
 * to type `to`, in the one implementation both engines run. A float
 * converts to an integer by truncation. C++ leaves a NaN or an
 * out-of-range value undefined there, and a vectorized loop settles
 * it differently from a scalar one, so the result is fixed here as
 * x86-64's scalar truncations give it: to s32, INT32_MIN; to u32, the
 * low word of the value truncated to 64 bits, and 0 if that does not
 * fit either; to u64, the value truncated to 64 bits, two's complement
 * below 2^63, and 0 from 2^64 up; a NaN or a value below -2^63 reads
 * 2^63. A conversion to the source's own type copies its bits: going
 * through double would quiet a signalling F32 NaN in one engine and
 * not in the other, since GCC folds the round trip at constant types,
 * and would round a U64 past 2^53.
 */
[[gnu::always_inline]] inline uint64_t
laneCvt(DataType to, DataType from, uint64_t s)
{
    if (from == to)
        return s;
    double v;
    switch (from) {
      case DataType::F32: v = asF32(uint32_t(s)); break;
      case DataType::F64: v = asF64(s); break;
      case DataType::S32: v = double(int32_t(s)); break;
      default: v = double(s); break;
    }
    switch (to) {
      case DataType::F32: return fromF32(float(v));
      case DataType::F64: return fromF64(v);
      case DataType::S32:
        return v > -0x1p31 - 1 && v < 0x1p31
            ? uint64_t(uint32_t(int32_t(v))) : 0x80000000u;
      case DataType::U64:
        if (v >= 0x1p63)
            return v < 0x1p64 ? uint64_t(v) : 0;
        return v >= -0x1p63 ? uint64_t(int64_t(v)) : 0x8000000000000000ull;
      default:
        return v >= -0x1p63 && v < 0x1p63
            ? uint64_t(uint32_t(uint64_t(int64_t(v)))) : 0;
    }
}

/**
 * The value of one lane of an op whose result is a function of its
 * sources alone, on operands read at type `t` and zero-extended to 64
 * bits (a missing operand reads 0).
 */
[[gnu::always_inline]] inline uint64_t
laneValue(Opcode op, DataType t, CmpOp cmp, uint64_t a, uint64_t b,
          uint64_t c)
{
    switch (op) {
      case Opcode::Add:
        switch (t) {
          case DataType::F32: return fromF32(asF32(a) + asF32(b));
          case DataType::F64: return fromF64(asF64(a) + asF64(b));
          default: return (t == DataType::U64) ? a + b
                       : uint64_t(uint32_t(a) + uint32_t(b));
        }
      case Opcode::Sub:
        switch (t) {
          case DataType::F32: return fromF32(asF32(a) - asF32(b));
          case DataType::F64: return fromF64(asF64(a) - asF64(b));
          default: return (t == DataType::U64) ? a - b
                       : uint64_t(uint32_t(a) - uint32_t(b));
        }
      case Opcode::Mul:
        switch (t) {
          case DataType::F32: return fromF32(asF32(a) * asF32(b));
          case DataType::F64: return fromF64(asF64(a) * asF64(b));
          default: return (t == DataType::U64) ? a * b
                       : uint64_t(uint32_t(a) * uint32_t(b));
        }
      case Opcode::MulHi:
        return uint64_t(uint32_t((uint64_t(uint32_t(a)) *
                                  uint64_t(uint32_t(b))) >> 32));
      case Opcode::Mad:
        switch (t) {
          case DataType::F32:
            return fromF32(asF32(a) * asF32(b) + asF32(c));
          case DataType::F64:
            return fromF64(asF64(a) * asF64(b) + asF64(c));
          default:
            return uint64_t(uint32_t(a) * uint32_t(b) + uint32_t(c));
        }
      case Opcode::Fma:
        switch (t) {
          case DataType::F32:
            return fromF32(std::fma(asF32(a), asF32(b), asF32(c)));
          case DataType::F64:
            return fromF64(std::fma(asF64(a), asF64(b), asF64(c)));
          default:
            return uint64_t(uint32_t(a) * uint32_t(b) + uint32_t(c));
        }
      case Opcode::Div:
        switch (t) {
          case DataType::F32: return fromF32(asF32(a) / asF32(b));
          case DataType::F64: return fromF64(asF64(a) / asF64(b));
          case DataType::S32: return divS32(uint32_t(a), uint32_t(b));
          default:
            return uint32_t(b) == 0
                ? 0 : uint64_t(uint32_t(a) / uint32_t(b));
        }
      case Opcode::Rem:
        switch (t) {
          case DataType::S32: return remS32(uint32_t(a), uint32_t(b));
          default:
            return uint32_t(b) == 0
                ? 0 : uint64_t(uint32_t(a) % uint32_t(b));
        }
      case Opcode::Min:
        switch (t) {
          case DataType::F32:
            return fromF32(std::fmin(asF32(a), asF32(b)));
          case DataType::F64:
            return fromF64(std::fmin(asF64(a), asF64(b)));
          case DataType::S32:
            return uint64_t(uint32_t(std::min(int32_t(a), int32_t(b))));
          default:
            return std::min(uint32_t(a), uint32_t(b));
        }
      case Opcode::Max:
        switch (t) {
          case DataType::F32:
            return fromF32(std::fmax(asF32(a), asF32(b)));
          case DataType::F64:
            return fromF64(std::fmax(asF64(a), asF64(b)));
          case DataType::S32:
            return uint64_t(uint32_t(std::max(int32_t(a), int32_t(b))));
          default:
            return std::max(uint32_t(a), uint32_t(b));
        }
      case Opcode::Abs:
        switch (t) {
          case DataType::F32: return fromF32(std::fabs(asF32(a)));
          case DataType::F64: return fromF64(std::fabs(asF64(a)));
          default: return absS32(uint32_t(a));
        }
      case Opcode::Neg:
        switch (t) {
          case DataType::F32: return fromF32(-asF32(a));
          case DataType::F64: return fromF64(-asF64(a));
          default: return negS32(uint32_t(a));
        }
      case Opcode::Sqrt:
        return t == DataType::F64 ? fromF64(std::sqrt(asF64(a)))
                                  : fromF32(std::sqrt(asF32(a)));
      case Opcode::And: return a & b;
      case Opcode::Or: return a | b;
      case Opcode::Xor: return a ^ b;
      case Opcode::Not:
        return t == DataType::U64 ? ~a : uint64_t(~uint32_t(a));
      case Opcode::Shl:
        return t == DataType::U64 ? a << (b & 63)
                                  : uint64_t(uint32_t(a) << (b & 31));
      case Opcode::Shr:
        return t == DataType::U64 ? a >> (b & 63)
                                  : uint64_t(uint32_t(a) >> (b & 31));
      case Opcode::AShr:
        return uint64_t(uint32_t(int32_t(a) >> (b & 31)));
      case Opcode::Bfe: {
        unsigned off = unsigned(b) & 31;
        unsigned width = unsigned(c) & 31;
        uint32_t mask = width == 0 ? 0xffffffffu : ((1u << width) - 1);
        return (uint32_t(a) >> off) & mask;
      }
      case Opcode::Cmp:
        return laneCompare(cmp, t, a, b) ? 1 : 0;
      case Opcode::CMov:
        return uint32_t(a) ? b : c; // the condition is one register
      case Opcode::Mov:
        return a;
      default:
        panic("laneValue on non-ALU opcode %s", opcodeName(op));
    }
}

/**
 * The reference engine's value of one lane of any value-producing IL
 * op of an instruction with these fields. A missing source operand reads 0
 * (RZ on PTXL).
 */
inline uint64_t
laneReference(const arch::WfState &wf, unsigned lane, Opcode op,
              DataType t, DataType src_t, CmpOp cmp, const Reg (&srcs)[3],
              uint64_t imm)
{
    auto rd = [&](unsigned i) -> uint64_t {
        const Reg r = srcs[i];
        if (!r.valid())
            return 0;
        return sourceRegs(op, t, src_t, i) == 2
            ? wf.readVreg64(r.idx, lane) : uint64_t(wf.readVreg(r.idx, lane));
    };
    switch (op) {
      case Opcode::MovImm: return imm;
      case Opcode::Cvt: return laneCvt(t, src_t, rd(0));
      case Opcode::WorkItemAbsId: return wf.globalId(lane);
      case Opcode::WorkItemId: return wf.wfIdInWg * WavefrontSize + lane;
      case Opcode::WorkGroupId: return wf.wgId;
      case Opcode::WorkGroupSize: return wf.wgSize;
      case Opcode::GridSize: return wf.gridSize;
      default:
        return laneValue(op, t, cmp, rd(0), rd(1), rd(2));
    }
}

/**
 * The IL's memory instructions, HSAIL's ld/st/atomic_add and PTXL's
 * LDG/STG/ATOM/LDS/STS/LDL/STL/LDC alike, for both engines: the
 * segment forms each lane's address and arch/lane_mem.hh moves the
 * data. The private and spill segments use simulator-held bases and
 * per-work-item strides, with no visible address arithmetic (the
 * abstraction the paper calls out; NVIDIA's LDL/STL hide it the same
 * way). The IL has no ABI either: a kernarg (or arg) load reads the
 * kernarg base from simulator state, as one uniform access of kind
 * `uniform` (HSAIL's kernarg-direct path, PTXL's constant cache).
 */
template <class Inst>
inline void
ilMemory(arch::WfState &wf, const Inst &I, arch::MemAccess::Kind uniform)
{
    const unsigned bytes = typeBytes(I.type());
    const uint64_t imm = I.immBits();
    const Segment seg = I.segment();
    if (seg == Segment::Kernarg || seg == Segment::Arg) {
        arch::broadcastLoad(wf, uniform, wf.kernargBase + imm, bytes,
                            I.dst().idx);
        return;
    }
    const Reg a = I.src(0);
    const arch::LaneMem mem{
        arch::LaneMem::opOf(I), seg == Segment::Group, bytes, I.src(1).idx,
        I.dst().valid() ? I.dst().idx : arch::LaneMem::NoReg};
    // A 32-bit offset register, if any, plus the immediate.
    auto offset = [&](unsigned lane) -> Addr {
        return (a.valid() ? wf.readVreg(a.idx, lane) : 0) + imm;
    };
    switch (seg) {
      case Segment::Global:
      case Segment::Readonly:
        arch::laneMemory(wf, mem, [&](unsigned lane) {
            return wf.readVreg64(a.idx, lane) + imm;
        });
        return;
      case Segment::Group:
        arch::laneMemory(wf, mem, offset);
        return;
      case Segment::Private:
      case Segment::Spill: {
        const bool spill = seg == Segment::Spill;
        const Addr base = spill ? wf.spillBase : wf.privateBase;
        const uint64_t stride =
            spill ? wf.spillStridePerWi : wf.privateStridePerWi;
        arch::laneMemory(wf, mem, [&](unsigned lane) {
            return base + uint64_t(wf.globalId(lane)) * stride +
                   offset(lane);
        });
        return;
      }
      default:
        panic("unhandled segment %s", segmentName(seg));
    }
}

/** One operand as register rows: the 64 lanes of its low word and, for
 *  a 64-bit value, of its high word. */
struct LaneRows
{
    const uint32_t *lo = nullptr;
    const uint32_t *hi = nullptr;
};

/** The rows of vector register `r`, and of `r + 1` when `regs` is 2. */
inline LaneRows
regRows(const arch::WfState &wf, unsigned r, unsigned regs)
{
    return {wf.vregs[r].data(), regs == 2 ? wf.vregs[r + 1].data() : nullptr};
}

/** Lane `l` of source I of OP at types (DT, ST), zero-extended to 64
 *  bits; 0 past the op's arity. */
template <Opcode OP, DataType DT, DataType ST, unsigned I>
[[gnu::always_inline]] inline uint64_t
sourceAt(const LaneRows (&s)[3], unsigned l)
{
    if constexpr (I >= aluArity(OP))
        return 0;
    else if constexpr (sourceRegs(OP, DT, ST, I) == 2)
        return s[I].lo[l] | uint64_t(s[I].hi[l]) << 32;
    else
        return s[I].lo[l];
}

/**
 * Lane `l` of value op OP at type DT (cvt's source type ST, cmp's C) on
 * source rows `s`: laneValue() or laneCvt() at constant arguments, or
 * movimm's immediate. It reads what the reference laneReference() reads.
 */
template <Opcode OP, DataType DT, DataType ST, CmpOp C>
[[gnu::always_inline]] inline uint64_t
laneAt(const LaneRows (&s)[3], uint64_t imm, unsigned l)
{
    if constexpr (OP == Opcode::MovImm)
        return imm;
    else if constexpr (OP == Opcode::Cvt)
        return laneCvt(DT, ST, sourceAt<OP, DT, ST, 0>(s, l));
    else
        return laneValue(OP, DT, C, sourceAt<OP, DT, ST, 0>(s, l),
                         sourceAt<OP, DT, ST, 1>(s, l),
                         sourceAt<OP, DT, ST, 2>(s, l));
}

/**
 * The predecoded engine's lane loop: f(l) for each lane in `mask`,
 * visited ctz-style, with a full-row loop the compiler can
 * autovectorize when all 64 are live.
 */
template <class F>
[[gnu::always_inline]] inline void
forLanes(uint64_t mask, F f)
{
    if (mask == ~0ull) {
        for (unsigned l = 0; l < WavefrontSize; ++l)
            f(l);
    } else {
        for (uint64_t rest = mask; rest; rest &= rest - 1)
            f(unsigned(std::countr_zero(rest)));
    }
}

/**
 * Write f(l) to row d0, and its high word to row d1 when W is 2, for
 * each lane in `mask`. A lane computes its value before it writes, so
 * a destination may alias a source (add_u64 $d0, $d0, $d2), as in the
 * reference.
 */
template <unsigned W, class F>
[[gnu::always_inline]] inline void
writeLanes(uint64_t mask, uint32_t *d0, uint32_t *d1, F f)
{
    forLanes(mask, [=](unsigned l) {
        const uint64_t r = f(l);
        d0[l] = uint32_t(r);
        if constexpr (W == 2)
            d1[l] = uint32_t(r >> 32);
    });
}

/**
 * The predecoded engine's ALU handlers for an instruction class with
 * IL value semantics (HsailInst, PtxlInst): registers come from
 * Inst::dst()/src(i), the lanes from WfState::activeMask(), and the
 * next PC is pc + Inst::EncodedBytes. Every IL value op, add to cvt in
 * Opcode order, has one handler per type, cmp one per CmpOp and cvt
 * one per source type, in a table generated from the enums.
 */
template <class Inst>
struct IlAluHandlers
{
    /** The handler of OP at type DT (cvt's source type ST, cmp's C). */
    template <Opcode OP, DataType DT, DataType ST, CmpOp C>
    static void
    alu(const arch::ExecMeta &m, arch::WfState &wf)
    {
        const Inst &I = static_cast<const Inst &>(*m.inst);
        wf.nextPc = wf.pc + Inst::EncodedBytes;
        LaneRows s[3];
        for (unsigned i = 0; i < aluArity(OP); ++i)
            s[i] = regRows(wf, I.src(i).idx, sourceRegs(OP, DT, ST, i));
        constexpr unsigned W = resultRegs(OP, DT);
        uint32_t *d0 = wf.vregs[I.dst().idx].data();
        uint32_t *d1 = W == 2 ? wf.vregs[I.dst().idx + 1].data() : nullptr;
        const uint64_t imm = I.immBits();
        writeLanes<W>(wf.activeMask(), d0, d1, [=](unsigned l) {
            return laneAt<OP, DT, ST, C>(s, imm, l);
        });
    }

    /** @{ The table's index: (op, type, variant), where the variant is
     *  cmp's CmpOp, cvt's source type and 0 for every other op. */
    static constexpr size_t NumOps = size_t(Opcode::Cvt) + 1;
    static constexpr size_t NumTypes = size_t(DataType::F64) + 1;
    static constexpr size_t NumVariants =
        std::max(size_t(CmpOp::Ge) + 1, NumTypes);

    static constexpr size_t
    key(Opcode op, DataType t, size_t variant)
    {
        return (size_t(op) * NumTypes + size_t(t)) * NumVariants + variant;
    }
    /** @} */

    template <size_t K>
    static constexpr arch::ExecHandler
    entry()
    {
        constexpr auto OP = Opcode(K / (NumTypes * NumVariants));
        constexpr auto DT = DataType(K / NumVariants % NumTypes);
        constexpr size_t V = K % NumVariants;
        if constexpr (OP == Opcode::Cmp && V <= size_t(CmpOp::Ge))
            return &alu<OP, DT, DT, CmpOp(V)>;
        else if constexpr (OP == Opcode::Cvt && V < NumTypes)
            return &alu<OP, DT, DataType(V), CmpOp::Eq>;
        else if constexpr (OP != Opcode::Cmp && OP != Opcode::Cvt && V == 0)
            return &alu<OP, DT, DT, CmpOp::Eq>;
        else
            return nullptr;
    }

    template <size_t... K>
    static constexpr auto
    table(std::index_sequence<K...>)
    {
        return std::array<arch::ExecHandler, sizeof...(K)>{entry<K>()...};
    }

    /**
     * The handler for `I`, whose value semantics are `op`, or nullptr
     * when it takes the reference path: a dispatch intrinsic (the ops
     * after cvt), a missing register the handler would touch, or a
     * type or CmpOp outside its enum.
     */
    static arch::ExecHandler
    pick(const Inst &I, Opcode op)
    {
        static constexpr auto handlers =
            table(std::make_index_sequence<NumOps * NumTypes * NumVariants>());
        if (size_t(op) >= NumOps || !I.dst().valid())
            return nullptr;
        for (unsigned i = 0; i < aluArity(op); ++i)
            if (!I.src(i).valid())
                return nullptr;
        const size_t variant = op == Opcode::Cmp   ? size_t(I.cmpOp())
                             : op == Opcode::Cvt ? size_t(I.srcType())
                                                 : 0;
        if (size_t(I.type()) >= NumTypes || variant >= NumVariants)
            return nullptr;
        return handlers[key(op, I.type(), variant)];
    }
};

} // namespace last::hsail

#endif // LAST_HSAIL_LANE_OPS_HH
