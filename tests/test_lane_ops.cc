/**
 * @file
 * The IL's per-lane ALU semantics (src/hsail/lane_ops.hh), which HSAIL
 * and PTXL share:
 *  - the lane table: for every (opcode, type) with a fast 32-bit
 *    kernel, lane32/laneCmp32 agree bit for bit with the reference
 *    laneValue() on edge operands no workload feeds them — NaN, signed
 *    zeros, infinities, denormals, INT32_MIN, -1 and 0, shift counts
 *    of 32 and more, bfe widths 0 and 31;
 *  - the integer corner cases the semantics define, run end to end at
 *    both levels that carry them (GCN3's finalizer refuses integer
 *    division).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <climits>
#include <cmath>
#include <ostream>
#include <string>
#include <vector>

#include "finalizer/backend.hh"
#include "helpers.hh"
#include "hsail/lane_ops.hh"

using namespace last;
using namespace last::hsail;
using last::test::MiniWf;

namespace
{

/** @{ aluTable()/cmpTable() adapters that hand out the lane kernels
 *  themselves. */
template <Opcode OP, DataType DT>
struct Lane32Fn
{
    static uint32_t
    fn(uint32_t a, uint32_t b, uint32_t c)
    {
        return lane32<OP, DT>(a, b, c);
    }
};

template <CmpOp C, DataType DT>
struct LaneCmp32Fn
{
    static uint32_t
    fn(uint32_t a, uint32_t b)
    {
        return laneCmp32<C, DT>(a, b);
    }
};
/** @} */

/** One (opcode, type) pair with a fast kernel; `op == Cmp` selects the
 *  compare kernel for `cmp`. */
struct LaneCase
{
    Opcode op;
    DataType type;
    CmpOp cmp = CmpOp::Eq;
};

std::string
caseName(const LaneCase &c)
{
    std::string name = opcodeName(c.op);
    if (c.op == Opcode::Cmp)
        name += std::string("_") + cmpOpName(c.cmp);
    return name + "_" + typeName(c.type);
}

// A printer keeps the ctest names gtest_discover_tests records stable
// (the default prints the raw bytes of the parameter).
void PrintTo(const LaneCase &c, std::ostream *os) { *os << caseName(c); }

/** Every pair the shared tables install, read from the tables. */
std::vector<LaneCase>
installedKernels()
{
    const DataType types[] = {DataType::B32, DataType::U32, DataType::S32,
                              DataType::F32, DataType::U64, DataType::F64};
    std::vector<LaneCase> cases;
    for (unsigned o = 0; o <= unsigned(Opcode::Nop); ++o) {
        for (DataType t : types) {
            Opcode op = Opcode(o);
            if (op == Opcode::Cmp) {
                for (unsigned c = 0; c <= unsigned(CmpOp::Ge); ++c)
                    if (cmpTable<LaneCmp32Fn>(CmpOp(c), t))
                        cases.push_back({op, t, CmpOp(c)});
            } else if (aluTable<Lane32Fn>(op, t)) {
                cases.push_back({op, t});
            }
        }
    }
    return cases;
}

/** Operand bit patterns, read as u32, s32 and f32 alike. */
const uint32_t edgeOperands[] = {
    0x00000000u, // 0, +0.0f, a zero divisor, a bfe width of 0
    0x80000000u, // INT32_MIN, -0.0f
    0xffffffffu, // -1, a NaN
    0x00000001u, // 1, the smallest denormal
    0x007fffffu, // the largest denormal
    0x7fffffffu, // INT32_MAX, a NaN
    0x7f800000u, // +inf
    0xff800000u, // -inf
    0x7fc00000u, // quiet NaN
    0x7f800001u, // signalling NaN
    0x3f800000u, // 1.0f
    0xbfc00000u, // -1.5f
    0x0000001fu, // 31: a bfe width, the largest in-range shift
    0x00000020u, // 32: shift count past the word
    0x00000021u, // 33
    0x00000040u, // 64
    0x12345678u, // an ordinary value
};

/**
 * IEEE 754 and C leave some float results open, and the compiler may
 * settle them differently in the two implementations (by commuting an
 * operand, or by expanding std::fmin in one place and calling it in
 * another): which payload an operation on two NaNs returns — two NaN
 * operands, or for mad a NaN product (0 * inf counts) and a NaN addend
 * — and which zero min/max return for +0 and -0. There the two need
 * only agree on a NaN, or on a zero. Every other result must match bit
 * for bit.
 */
bool
openAndAlike(const LaneCase &c, uint32_t a, uint32_t b, uint32_t x,
             uint32_t want, uint32_t got)
{
    if (c.type != DataType::F32)
        return false;
    auto nan = [](uint32_t v) { return unsigned(std::isnan(asF32(v))); };
    auto zero = [](uint32_t v) { return (v & 0x7fffffffu) == 0; };
    unsigned nans = 0;
    switch (c.op) {
      case Opcode::Min:
      case Opcode::Max:
        if (zero(a) && zero(b) && a != b)
            return zero(want) && zero(got);
        [[fallthrough]];
      case Opcode::Add:
      case Opcode::Sub:
      case Opcode::Mul:
        nans = nan(a) + nan(b);
        break;
      case Opcode::Fma:
        nans = nan(a) + nan(b) + nan(x);
        break;
      case Opcode::Mad:
        nans = std::max(nan(a) + nan(b),
                        nan(fromF32(asF32(a) * asF32(b))) + nan(x));
        break;
      default:
        return false;
    }
    return nans >= 2 && nan(want) && nan(got);
}

class IlLaneTable : public ::testing::TestWithParam<LaneCase>
{
};

} // namespace

TEST_P(IlLaneTable, FastKernelMatchesReference)
{
    const LaneCase &c = GetParam();
    unsigned mismatches = 0;
    for (uint32_t a : edgeOperands) {
        for (uint32_t b : edgeOperands) {
            for (uint32_t x : edgeOperands) {
                uint64_t want = laneValue(c.op, c.type, c.cmp, a, b, x);
                uint32_t got = c.op == Opcode::Cmp
                    ? cmpTable<LaneCmp32Fn>(c.cmp, c.type)(a, b)
                    : aluTable<Lane32Fn>(c.op, c.type)(a, b, x);
                if (want == got ||
                    openAndAlike(c, a, b, x, uint32_t(want), got))
                    continue;
                if (++mismatches <= 5)
                    ADD_FAILURE() << caseName(c) << std::hex << "(0x" << a
                                  << ", 0x" << b << ", 0x" << x
                                  << "): reference 0x" << want
                                  << ", kernel 0x" << got;
            }
        }
    }
    EXPECT_EQ(mismatches, 0u);
}

INSTANTIATE_TEST_SUITE_P(Ops, IlLaneTable,
                         ::testing::ValuesIn(installedKernels()),
                         [](const auto &info) {
                             return caseName(info.param);
                         });

TEST(IlLaneSemantics, SignedDivisionOverflowWrapsAtHsailAndPtxl)
{
    // INT32_MIN / -1 does not fit in 32 bits. The IL defines it, like
    // a zero divisor: the quotient wraps to INT32_MIN and the
    // remainder is 0, where the host's division would trap (SIGFPE on
    // x86) and kill the sweep instead of quarantining one run.
    KernelBuilder kb("divmin");
    Val min = kb.immS32(INT32_MIN);
    Val neg1 = kb.immS32(-1);
    Val q = kb.div(min, neg1);
    Val r = kb.emitAlu2(Opcode::Rem, min, neg1);
    Val qz = kb.div(min, kb.immS32(0));
    Val rz = kb.emitAlu2(Opcode::Rem, min, kb.immS32(0));
    Val q7 = kb.div(kb.immS32(-7), kb.immS32(2));
    Val r7 = kb.emitAlu2(Opcode::Rem, kb.immS32(-7), kb.immS32(2));
    auto il = kb.build();
    auto ptxl = finalizer::finalize(il, IsaKind::PTXL, GpuConfig{});

    // PTXL keeps IL register numbers, so both sides read the same ones.
    for (const arch::KernelCode *code : {il.code.get(), ptxl.get()}) {
        SCOPED_TRACE(isaName(code->isa()));
        MiniWf wf(*code);
        wf.run();
        ASSERT_TRUE(wf.st.done);
        for (unsigned lane : {0u, 63u}) {
            EXPECT_EQ(wf.st.readVreg(q.reg, lane), 0x80000000u);
            EXPECT_EQ(wf.st.readVreg(r.reg, lane), 0u);
            EXPECT_EQ(wf.st.readVreg(qz.reg, lane), 0u);
            EXPECT_EQ(wf.st.readVreg(rz.reg, lane), 0u);
            EXPECT_EQ(int32_t(wf.st.readVreg(q7.reg, lane)), -3);
            EXPECT_EQ(int32_t(wf.st.readVreg(r7.reg, lane)), -1);
        }
    }
}
