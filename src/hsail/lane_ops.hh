/**
 * @file
 * The IL's per-lane semantics, written once for all three levels:
 * HSAIL itself, PTXL (PtxlInst names its value semantics by
 * hsail::Opcode) and GCN3, whose VALU and VOPC ops map onto IL ops
 * through gcn3::ilTwin() (src/gcn3/inst.hh). The levels therefore
 * agree functionally by construction; machine lowering must not change
 * an IEEE result.
 *
 * The ALU semantics exist here in two implementations, which the
 * engine differential tests and the lane-table tests compare:
 *
 *  - the reference: laneValue() (with laneCompare() and laneCvt()), a
 *    runtime switch over (opcode, type) on operands zero-extended to
 *    64 bits. The virtual execute() path calls it once per lane
 *    (through laneReference() at the IL levels, which also fetches the
 *    operands);
 *  - the fast kernels: lane32<OP, DT>() and laneCmp32<C, DT>(), one
 *    instantiation per 32-bit (opcode, type), run by forLanes(). The
 *    IL levels' active-lane handlers are IlAluHandlers<Inst>; GCN3's
 *    feed the same kernels its resolved operand rows.
 *    aluTable()/cmpTable() list the pairs that have a kernel.
 *
 * Conversions have one implementation, laneCvt(): GCN3's fast handlers
 * instantiate it at constant types.
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
#include <bit>
#include <cmath>
#include <cstdint>

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

/** The reference compare: a and b read at type `t`. */
inline bool
laneCompare(CmpOp cmp, DataType t, uint64_t a, uint64_t b)
{
    auto docmp = [cmp](auto x, auto y) {
        switch (cmp) {
          case CmpOp::Eq: return x == y;
          case CmpOp::Ne: return x != y;
          case CmpOp::Lt: return x < y;
          case CmpOp::Le: return x <= y;
          case CmpOp::Gt: return x > y;
          case CmpOp::Ge: return x >= y;
        }
        return false;
    };
    switch (t) {
      case DataType::F32: return docmp(asF32(uint32_t(a)), asF32(uint32_t(b)));
      case DataType::F64: return docmp(asF64(a), asF64(b));
      case DataType::S32: return docmp(int32_t(a), int32_t(b));
      default: return docmp(a, b);
    }
}

/**
 * The conversion of one lane's source bits `s` (read at type `from`)
 * to type `to`, in the one implementation both engines run. A float
 * converts to a 32-bit integer by truncation. C++ leaves a NaN or an
 * out-of-range value undefined there, and a vectorized loop settles
 * it differently from a scalar one, so the result is fixed here as
 * x86-64's scalar truncations give it: to s32, INT32_MIN; to u32, the
 * low word of the value truncated to 64 bits, and 0 if that does not
 * fit either.
 */
inline uint64_t
laneCvt(DataType to, DataType from, uint64_t s)
{
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
      case DataType::U64: return uint64_t(v);
      default:
        return v >= -0x1p63 && v < 0x1p63
            ? uint64_t(uint32_t(uint64_t(int64_t(v)))) : 0;
    }
}

/**
 * The reference value of one lane of an op whose result is a function
 * of its sources alone, on operands read at type `t` and zero-extended
 * to 64 bits (a missing operand reads 0).
 */
inline uint64_t
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
 * The reference value of one lane of any value-producing IL op of an
 * instruction with these fields. A missing source operand reads 0
 * (RZ on PTXL).
 */
inline uint64_t
laneReference(const arch::WfState &wf, unsigned lane, Opcode op,
              DataType t, DataType src_t, CmpOp cmp, const Reg (&srcs)[3],
              uint64_t imm)
{
    auto rd = [&](Reg r, DataType rt) -> uint64_t {
        if (!r.valid())
            return 0;
        return typeRegs(rt) == 2 ? wf.readVreg64(r.idx, lane)
                                 : uint64_t(wf.readVreg(r.idx, lane));
    };
    switch (op) {
      case Opcode::MovImm: return imm;
      case Opcode::Cvt: return laneCvt(t, src_t, rd(srcs[0], src_t));
      case Opcode::WorkItemAbsId: return wf.globalId(lane);
      case Opcode::WorkItemId: return wf.wfIdInWg * WavefrontSize + lane;
      case Opcode::WorkGroupId: return wf.wgId;
      case Opcode::WorkGroupSize: return wf.wgSize;
      case Opcode::GridSize: return wf.gridSize;
      default:
        return laneValue(op, t, cmp, rd(srcs[0], t), rd(srcs[1], t),
                         rd(srcs[2], t));
    }
}

/**
 * One lane of a 32-bit ALU op: the fast kernel. Each expression is the
 * 32-bit reading of its laneValue() case (a zero-extension dropped
 * cannot change a 32-bit result); the lane-table test holds the two to
 * the same bits on edge operands.
 */
template <Opcode OP, DataType DT>
inline uint32_t
lane32(uint32_t a, [[maybe_unused]] uint32_t b, [[maybe_unused]] uint32_t c)
{
    if constexpr (OP == Opcode::Add) {
        if constexpr (DT == DataType::F32)
            return fromF32(asF32(a) + asF32(b));
        else
            return a + b;
    } else if constexpr (OP == Opcode::Sub) {
        if constexpr (DT == DataType::F32)
            return fromF32(asF32(a) - asF32(b));
        else
            return a - b;
    } else if constexpr (OP == Opcode::Mul) {
        if constexpr (DT == DataType::F32)
            return fromF32(asF32(a) * asF32(b));
        else
            return a * b;
    } else if constexpr (OP == Opcode::MulHi) {
        return uint32_t((uint64_t(a) * uint64_t(b)) >> 32);
    } else if constexpr (OP == Opcode::Mad) {
        if constexpr (DT == DataType::F32)
            return fromF32(asF32(a) * asF32(b) + asF32(c));
        else
            return a * b + c;
    } else if constexpr (OP == Opcode::Fma) {
        if constexpr (DT == DataType::F32)
            return fromF32(std::fma(asF32(a), asF32(b), asF32(c)));
        else
            return a * b + c;
    } else if constexpr (OP == Opcode::Div) {
        if constexpr (DT == DataType::F32)
            return fromF32(asF32(a) / asF32(b));
        else if constexpr (DT == DataType::S32)
            return divS32(a, b);
        else
            return b == 0 ? 0 : a / b;
    } else if constexpr (OP == Opcode::Min) {
        if constexpr (DT == DataType::F32)
            return fromF32(std::fmin(asF32(a), asF32(b)));
        else if constexpr (DT == DataType::S32)
            return uint32_t(std::min(int32_t(a), int32_t(b)));
        else
            return std::min(a, b);
    } else if constexpr (OP == Opcode::Max) {
        if constexpr (DT == DataType::F32)
            return fromF32(std::fmax(asF32(a), asF32(b)));
        else if constexpr (DT == DataType::S32)
            return uint32_t(std::max(int32_t(a), int32_t(b)));
        else
            return std::max(a, b);
    } else if constexpr (OP == Opcode::Abs) {
        if constexpr (DT == DataType::F32)
            return fromF32(std::fabs(asF32(a)));
        else
            return absS32(a);
    } else if constexpr (OP == Opcode::Neg) {
        if constexpr (DT == DataType::F32)
            return fromF32(-asF32(a));
        else
            return negS32(a);
    } else if constexpr (OP == Opcode::Sqrt) {
        return fromF32(std::sqrt(asF32(a))); // at every 32-bit type
    } else if constexpr (OP == Opcode::And) {
        return a & b;
    } else if constexpr (OP == Opcode::Or) {
        return a | b;
    } else if constexpr (OP == Opcode::Xor) {
        return a ^ b;
    } else if constexpr (OP == Opcode::Not) {
        return ~a;
    } else if constexpr (OP == Opcode::Shl) {
        return a << (b & 31);
    } else if constexpr (OP == Opcode::Shr) {
        return a >> (b & 31);
    } else if constexpr (OP == Opcode::AShr) {
        return uint32_t(int32_t(a) >> (b & 31));
    } else if constexpr (OP == Opcode::Bfe) {
        unsigned off = b & 31;
        unsigned width = c & 31;
        uint32_t mask = width == 0 ? 0xffffffffu : ((1u << width) - 1);
        return (a >> off) & mask;
    } else if constexpr (OP == Opcode::CMov) {
        return a ? b : c;
    } else if constexpr (OP == Opcode::Mov) {
        return a;
    } else {
        static_assert(OP == Opcode::Mov, "no lane kernel for opcode");
        return 0;
    }
}

/** One lane of a 32-bit compare: the fast kernel. */
template <CmpOp C, DataType DT>
inline uint32_t
laneCmp32(uint32_t a, uint32_t b)
{
    auto docmp = [](auto x, auto y) {
        switch (C) {
          case CmpOp::Eq: return x == y;
          case CmpOp::Ne: return x != y;
          case CmpOp::Lt: return x < y;
          case CmpOp::Le: return x <= y;
          case CmpOp::Gt: return x > y;
          case CmpOp::Ge: return x >= y;
        }
        return false;
    };
    bool r;
    if constexpr (DT == DataType::F32)
        r = docmp(asF32(a), asF32(b));
    else if constexpr (DT == DataType::S32)
        r = docmp(int32_t(a), int32_t(b));
    else
        r = docmp(a, b); // uint32: same order as the u64 reference
    return r ? 1u : 0u;
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

/**
 * The 32-bit (opcode, type) pairs that have a fast kernel, as
 * K<OP, DT>::fn for each; nullptr for the rest (rem, cvt, the
 * dispatch intrinsics and every 64-bit type take the reference path).
 * Handler selection at all three levels and the lane-table tests read
 * this one list.
 */
template <template <Opcode, DataType> class K, DataType DT>
constexpr auto
aluTable(Opcode op) -> decltype(&K<Opcode::Mov, DT>::fn)
{
    switch (op) {
      case Opcode::Add: return &K<Opcode::Add, DT>::fn;
      case Opcode::Sub: return &K<Opcode::Sub, DT>::fn;
      case Opcode::Mul: return &K<Opcode::Mul, DT>::fn;
      case Opcode::MulHi: return &K<Opcode::MulHi, DT>::fn;
      case Opcode::Mad: return &K<Opcode::Mad, DT>::fn;
      case Opcode::Fma: return &K<Opcode::Fma, DT>::fn;
      case Opcode::Div: return &K<Opcode::Div, DT>::fn;
      case Opcode::Min: return &K<Opcode::Min, DT>::fn;
      case Opcode::Max: return &K<Opcode::Max, DT>::fn;
      case Opcode::Abs: return &K<Opcode::Abs, DT>::fn;
      case Opcode::Neg: return &K<Opcode::Neg, DT>::fn;
      case Opcode::Sqrt: return &K<Opcode::Sqrt, DT>::fn;
      case Opcode::And: return &K<Opcode::And, DT>::fn;
      case Opcode::Or: return &K<Opcode::Or, DT>::fn;
      case Opcode::Xor: return &K<Opcode::Xor, DT>::fn;
      case Opcode::Not: return &K<Opcode::Not, DT>::fn;
      case Opcode::Shl: return &K<Opcode::Shl, DT>::fn;
      case Opcode::Shr: return &K<Opcode::Shr, DT>::fn;
      case Opcode::AShr: return &K<Opcode::AShr, DT>::fn;
      case Opcode::Bfe: return &K<Opcode::Bfe, DT>::fn;
      case Opcode::CMov: return &K<Opcode::CMov, DT>::fn;
      case Opcode::Mov: return &K<Opcode::Mov, DT>::fn;
      default: return nullptr;
    }
}

template <template <Opcode, DataType> class K>
constexpr auto
aluTable(Opcode op, DataType t) -> decltype(&K<Opcode::Mov, DataType::B32>::fn)
{
    switch (t) {
      case DataType::B32: return aluTable<K, DataType::B32>(op);
      case DataType::U32: return aluTable<K, DataType::U32>(op);
      case DataType::S32: return aluTable<K, DataType::S32>(op);
      case DataType::F32: return aluTable<K, DataType::F32>(op);
      default: return nullptr;
    }
}

/** The compare counterpart of aluTable(): every (cmp op, 32-bit type). */
template <template <CmpOp, DataType> class K, DataType DT>
constexpr auto
cmpTable(CmpOp c) -> decltype(&K<CmpOp::Eq, DT>::fn)
{
    switch (c) {
      case CmpOp::Eq: return &K<CmpOp::Eq, DT>::fn;
      case CmpOp::Ne: return &K<CmpOp::Ne, DT>::fn;
      case CmpOp::Lt: return &K<CmpOp::Lt, DT>::fn;
      case CmpOp::Le: return &K<CmpOp::Le, DT>::fn;
      case CmpOp::Gt: return &K<CmpOp::Gt, DT>::fn;
      case CmpOp::Ge: return &K<CmpOp::Ge, DT>::fn;
    }
    return nullptr;
}

template <template <CmpOp, DataType> class K>
constexpr auto
cmpTable(CmpOp c, DataType t) -> decltype(&K<CmpOp::Eq, DataType::B32>::fn)
{
    switch (t) {
      case DataType::B32: return cmpTable<K, DataType::B32>(c);
      case DataType::U32: return cmpTable<K, DataType::U32>(c);
      case DataType::S32: return cmpTable<K, DataType::S32>(c);
      case DataType::F32: return cmpTable<K, DataType::F32>(c);
      default: return nullptr;
    }
}

/**
 * The fast engine's lane loop: d[l] = f(l) for each lane in `mask`,
 * visited ctz-style, with a full-row loop the compiler can
 * autovectorize when all 64 are live.
 */
template <class F>
inline void
forLanes(uint64_t mask, uint32_t *d, F f)
{
    if (mask == ~0ull) {
        for (unsigned l = 0; l < WavefrontSize; ++l)
            d[l] = f(l);
    } else {
        for (uint64_t rest = mask; rest; rest &= rest - 1) {
            unsigned l = unsigned(std::countr_zero(rest));
            d[l] = f(l);
        }
    }
}

/**
 * The predecoded engine's fast ALU handlers for an instruction class
 * with IL value semantics (HsailInst, PtxlInst): registers come from
 * Inst::dst()/src(i), the lanes from WfState::activeMask(), and the
 * next PC is pc + Inst::EncodedBytes.
 */
template <class Inst>
struct IlAluHandlers
{
    static const Inst &
    inst(const arch::ExecMeta &m)
    {
        return static_cast<const Inst &>(*m.inst);
    }

    /** movimm: broadcast the immediate into the active lanes. */
    static void
    movImm(const arch::ExecMeta &m, arch::WfState &wf)
    {
        const Inst &I = inst(m);
        wf.nextPc = wf.pc + Inst::EncodedBytes;
        const uint32_t v = uint32_t(I.immBits());
        uint32_t *d = wf.vregs[I.dst().idx].data();
        forLanes(wf.activeMask(), d, [v](unsigned) { return v; });
    }

    /** 32-bit ALU op, one instantiation per (opcode, type). */
    template <Opcode OP, DataType DT>
    struct Alu
    {
        static void
        fn(const arch::ExecMeta &m, arch::WfState &wf)
        {
            const Inst &I = inst(m);
            wf.nextPc = wf.pc + Inst::EncodedBytes;
            constexpr unsigned N = aluArity(OP);
            const uint32_t *a = wf.vregs[I.src(0).idx].data();
            const uint32_t *b = a;
            const uint32_t *c = a;
            if constexpr (N >= 2)
                b = wf.vregs[I.src(1).idx].data();
            if constexpr (N >= 3)
                c = wf.vregs[I.src(2).idx].data();
            uint32_t *d = wf.vregs[I.dst().idx].data();
            forLanes(wf.activeMask(), d, [=](unsigned l) {
                return lane32<OP, DT>(a[l], b[l], c[l]);
            });
        }
    };

    /** 32-bit compare, one instantiation per (cmp op, type). */
    template <CmpOp C, DataType DT>
    struct Cmp
    {
        static void
        fn(const arch::ExecMeta &m, arch::WfState &wf)
        {
            const Inst &I = inst(m);
            wf.nextPc = wf.pc + Inst::EncodedBytes;
            const uint32_t *a = wf.vregs[I.src(0).idx].data();
            const uint32_t *b = wf.vregs[I.src(1).idx].data();
            uint32_t *d = wf.vregs[I.dst().idx].data();
            forLanes(wf.activeMask(), d, [=](unsigned l) {
                return laneCmp32<C, DT>(a[l], b[l]);
            });
        }
    };

    /**
     * The fast handler for `I`, whose value semantics are `op`, or
     * nullptr when it takes the reference path: a 64-bit type, an op
     * without a kernel, or a missing register the kernels would touch.
     */
    static arch::ExecHandler
    pick(const Inst &I, Opcode op)
    {
        if (typeRegs(I.type()) != 1 || !I.dst().valid())
            return nullptr;
        if (op == Opcode::MovImm)
            return &movImm;
        for (unsigned s = 0; s < aluArity(op); ++s)
            if (!I.src(s).valid())
                return nullptr;
        if (op == Opcode::Cmp)
            return cmpTable<Cmp>(I.cmpOp(), I.type());
        return aluTable<Alu>(op, I.type());
    }
};

} // namespace last::hsail

#endif // LAST_HSAIL_LANE_OPS_HH
