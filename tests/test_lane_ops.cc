/**
 * @file
 * The IL's per-lane ALU semantics (src/hsail/lane_ops.hh), which HSAIL,
 * PTXL and GCN3 share:
 *  - the lane table: for every (opcode, type) with a fast 32-bit
 *    kernel, lane32/laneCmp32 agree bit for bit with the reference
 *    laneValue() on edge operands no workload feeds them — NaN, signed
 *    zeros, infinities, denormals, INT32_MIN, -1 and 0, shift counts
 *    of 32 and more, bfe widths 0 and 31;
 *  - the integer corner cases the semantics define, run end to end at
 *    both IL-semantics levels (GCN3's finalizer refuses integer
 *    division);
 *  - GCN3's lane table: every VALU and VOPC opcode gives the same
 *    registers and VCC through its predecoded handler as through
 *    execute(), on the same edge operands, with each source as a VGPR,
 *    an SGPR and an inline constant and with the VOP3 negate bit.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cctype>
#include <climits>
#include <cmath>
#include <iterator>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "arch/exec_meta.hh"
#include "arch/kernel_code.hh"
#include "finalizer/backend.hh"
#include "gcn3/inst.hh"
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
openAndAlike(Opcode op, DataType type, uint32_t a, uint32_t b, uint32_t x,
             uint32_t want, uint32_t got)
{
    if (type != DataType::F32)
        return false;
    auto nan = [](uint32_t v) { return unsigned(std::isnan(asF32(v))); };
    auto zero = [](uint32_t v) { return (v & 0x7fffffffu) == 0; };
    unsigned nans = 0;
    switch (op) {
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
                    openAndAlike(c.op, c.type, a, b, x, uint32_t(want),
                                 got))
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

// ---------------------------------------------------------------------
// GCN3's VALU and VOPC on the IL lane library.
// ---------------------------------------------------------------------

namespace last::gcn3
{

// Lists each case by opcode name, not by the enum's raw bytes.
void PrintTo(Gcn3Op op, std::ostream *os) { *os << opName(op); }

} // namespace last::gcn3

namespace
{

using gcn3::Gcn3Op;

/** Operand bit patterns for 64-bit (register-pair) sources. */
const uint64_t edgeOperands64[] = {
    0x0000000000000000ull, // +0.0
    0x8000000000000000ull, // -0.0
    0xffffffffffffffffull, // a NaN
    0x0000000000000001ull, // the smallest denormal
    0x7ff0000000000000ull, // +inf
    0xfff0000000000000ull, // -inf
    0x7ff8000000000000ull, // quiet NaN
    0x7ff0000000000001ull, // signalling NaN
    0x3ff0000000000000ull, // 1.0
    0xbff8000000000000ull, // -1.5
    0x41efffffffe00000ull, // 2^32 - 1
    0x41f0000000000000ull, // 2^32, past u32
    0x123456789abcdef0ull, // an ordinary value
};

/** Every VALU and VOPC opcode: the mapping table's twins and the ops
 *  only GCN3 has. */
std::vector<Gcn3Op>
valuOpcodes()
{
    std::vector<Gcn3Op> ops;
    for (unsigned o = 0; o < unsigned(Gcn3Op::NumOpcodes); ++o) {
        switch (gcn3::opFormat(Gcn3Op(o))) {
          case gcn3::Format::VOP1:
          case gcn3::Format::VOP2:
          case gcn3::Format::VOP3:
          case gcn3::Format::VOPC:
            ops.push_back(Gcn3Op(o));
            break;
          default:
            break;
        }
    }
    return ops;
}

std::string
gcn3CaseName(Gcn3Op op)
{
    std::string name = gcn3::opName(op);
    std::transform(name.begin(), name.end(), name.begin(),
                   [](unsigned char ch) { return char(std::tolower(ch)); });
    return name;
}

/** The handler predecode installs for `inst`. The GCN3 handlers read
 *  only the instruction and its size from the record. */
arch::ExecMeta
predecoded(const gcn3::Gcn3Inst &inst)
{
    arch::ExecMeta m;
    m.inst = &inst;
    m.size = uint8_t(inst.sizeBytes());
    inst.predecode(m);
    return m;
}

class Gcn3LaneTable : public ::testing::TestWithParam<Gcn3Op>
{
};

} // namespace

TEST_P(Gcn3LaneTable, HandlerMatchesExecute)
{
    using gcn3::Src;
    enum class Kind { Vgpr, Sgpr, Const };
    const Gcn3Op op = GetParam();
    const gcn3::IlTwin twin = gcn3::ilTwin(op);
    const gcn3::Format fmt = gcn3::opFormat(op);
    const unsigned nsrc = fmt == gcn3::Format::VOP1   ? 1
                        : fmt == gcn3::Format::VOP3 ? 3
                                                    : 2;
    auto vreg = [](unsigned i) { return 4 + 2 * i; };
    auto sreg = [](unsigned i) { return 20 + 2 * i; };

    // Source widths, as the instruction declares them.
    bool wide[3] = {};
    {
        std::unique_ptr<gcn3::Gcn3Inst> probe(gcn3::Gcn3Inst::vop3(
            op, gcn3::Dst::vgpr(0), Src::vgpr(vreg(0)), Src::vgpr(vreg(1)),
            Src::vgpr(vreg(2))));
        for (const auto &o : probe->regOps())
            for (unsigned i = 0; i < nsrc; ++i)
                if (!o.isDef && o.cls == arch::RegClass::Vector &&
                    o.idx == vreg(i))
                    wide[i] = o.width == 2;
    }
    auto edges = [&](unsigned i) -> std::vector<uint64_t> {
        if (wide[i])
            return {std::begin(edgeOperands64), std::end(edgeOperands64)};
        return {std::begin(edgeOperands), std::end(edgeOperands)};
    };

    // Each source as a VGPR, then each in turn as an SGPR and as an
    // inline constant; each with and without its negate bit; under a
    // full and a partial exec mask.
    std::vector<std::array<Kind, 3>> kinds = {
        {Kind::Vgpr, Kind::Vgpr, Kind::Vgpr}};
    for (unsigned i = 0; i < nsrc; ++i)
        for (Kind k : {Kind::Sgpr, Kind::Const}) {
            std::array<Kind, 3> ks = kinds[0];
            ks[i] = k;
            kinds.push_back(ks);
        }
    std::vector<uint8_t> negs = {0};
    for (unsigned i = 0; i < nsrc; ++i)
        negs.push_back(uint8_t(1u << i));

    unsigned mismatches = 0;
    for (const auto &ks : kinds) {
        // The uniform source (if any) takes each edge value in turn;
        // the VGPR sources spread every combination over the lanes.
        int uni = -1;
        for (unsigned i = 0; i < nsrc; ++i)
            if (ks[i] != Kind::Vgpr)
                uni = int(i);
        const std::vector<uint64_t> uni_vals =
            uni < 0 ? std::vector<uint64_t>{0} : edges(unsigned(uni));
        size_t combos = 1;
        for (unsigned i = 0; i < nsrc; ++i)
            if (ks[i] == Kind::Vgpr)
                combos *= edges(i).size();

        for (uint64_t u : uni_vals)
        for (uint8_t neg : negs)
        for (uint64_t mask : {~0ull, 0x00ff0f0f3c3c5a5aull})
        for (size_t first = 0; first < combos; first += WavefrontSize) {
            Src src[3];
            uint64_t val[3][WavefrontSize] = {};
            arch::WfState st;
            st.isa = IsaKind::GCN3;
            st.vregs.assign(12, arch::LaneVec{});
            st.initLaunch(mask);
            st.vcc = 0xa5a5a5a5f0f0f0f0ull;
            for (unsigned l = 0; l < WavefrontSize; ++l) {
                st.writeVreg(0, l, edgeOperands[(l * 7) % 17]);
                st.writeVreg(1, l, edgeOperands[(l * 5 + 3) % 17]);
            }
            for (unsigned i = 0; i < nsrc; ++i) {
                const std::vector<uint64_t> e = edges(i);
                if (ks[i] == Kind::Vgpr) {
                    src[i] = Src::vgpr(vreg(i));
                    size_t stride = 1;
                    for (unsigned j = 0; j < i; ++j)
                        if (ks[j] == Kind::Vgpr)
                            stride *= edges(j).size();
                    for (unsigned l = 0; l < WavefrontSize; ++l) {
                        size_t t = (first + l) % combos;
                        val[i][l] = e[(t / stride) % e.size()];
                        if (wide[i])
                            st.writeVreg64(vreg(i), l, val[i][l]);
                        else
                            st.writeVreg(vreg(i), l, uint32_t(val[i][l]));
                    }
                    continue;
                }
                for (unsigned l = 0; l < WavefrontSize; ++l)
                    val[i][l] = u;
                if (ks[i] == Kind::Sgpr) {
                    src[i] = Src::sgpr(sreg(i));
                    st.writeSgpr64(sreg(i), u);
                } else if (wide[i]) {
                    src[i] = {Src::Kind::InlineConstF64, 0,
                              uint32_t(u >> 32)};
                } else {
                    src[i] = {Src::Kind::InlineConst, 0, uint32_t(u)};
                }
            }
            std::unique_ptr<gcn3::Gcn3Inst> inst(gcn3::Gcn3Inst::vop3(
                op, gcn3::Dst::vgpr(0), src[0], src[1], src[2], neg));
            const arch::ExecMeta m = predecoded(*inst);

            arch::WfState ref = st;
            inst->execute(ref);
            arch::WfState fast = st;
            m.handler(m, fast);

            EXPECT_EQ(fast.nextPc, ref.nextPc);
            EXPECT_EQ(fast.exec, ref.exec);
            EXPECT_EQ(fast.sgprs, ref.sgprs);
            if (fast.vcc != ref.vcc && ++mismatches <= 5)
                ADD_FAILURE() << gcn3CaseName(op) << ": vcc reference 0x"
                              << std::hex << ref.vcc << ", handler 0x"
                              << fast.vcc;
            for (unsigned r = 0; r < st.vregs.size(); ++r) {
                for (unsigned l = 0; l < WavefrontSize; ++l) {
                    const uint32_t want = ref.readVreg(r, l);
                    const uint32_t got = fast.readVreg(r, l);
                    if (want == got)
                        continue;
                    // The IL operands of this lane, for the tolerance.
                    uint32_t il[3] = {};
                    for (unsigned i = 0; i < aluArity(twin.op); ++i) {
                        const unsigned g = twin.src[i];
                        il[i] = g == gcn3::IlTwin::DstRow
                            ? st.readVreg(0, l)
                            : uint32_t(val[g][l]) ^
                                  ((neg >> g) & 1 ? 0x80000000u : 0);
                    }
                    if (r == 0 && twin.valid() &&
                        openAndAlike(twin.op, twin.type, il[0], il[1],
                                     il[2], want, got))
                        continue;
                    if (++mismatches <= 5)
                        ADD_FAILURE()
                            << gcn3CaseName(op) << " neg " << unsigned(neg)
                            << std::hex << " lane " << std::dec << l
                            << " v" << r << std::hex << " (0x" << il[0]
                            << ", 0x" << il[1] << ", 0x" << il[2]
                            << "): reference 0x" << want << ", handler 0x"
                            << got;
                }
            }
        }
    }
    EXPECT_EQ(mismatches, 0u);
}

INSTANTIATE_TEST_SUITE_P(Ops, Gcn3LaneTable,
                         ::testing::ValuesIn(valuOpcodes()),
                         [](const auto &info) {
                             return gcn3CaseName(info.param);
                         });
