/**
 * @file
 * The IL's per-lane ALU semantics (src/hsail/lane_ops.hh), which HSAIL,
 * PTXL and GCN3 share, and the engines that run them:
 *  - the IL lane table: every ALU handler the predecoded engine
 *    installs at HSAIL and at PTXL, one per (opcode, type), leaves the
 *    same registers as execute() on edge operands no workload feeds
 *    them — NaN, signed zeros, infinities, denormals, INT32_MIN, -1 and
 *    0, shift counts of 32 and more, bfe widths 0 and 31, and register
 *    pairs whose words differ — under a full and a partial mask, and
 *    with a destination that aliases a source;
 *  - host-computed expectations for the IL ops no GCN3 twin checks
 *    (64-bit integer ops, rem, 64-bit movimm and cvt), and the integer
 *    corner cases the semantics define, run end to end at both
 *    IL-semantics levels through both engines (GCN3's finalizer
 *    refuses integer division);
 *  - GCN3's lane table: every VALU and VOPC opcode gives the same
 *    registers and VCC through its predecoded handler as through
 *    execute(), on the same edge operands, with each source as a VGPR,
 *    an SGPR and an inline constant and with the VOP3 negate bit.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
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
#include "finalizer/finalizer.hh"
#include "gcn3/inst.hh"
#include "helpers.hh"
#include "hsail/lane_ops.hh"
#include "ptxl/inst.hh"

using namespace last;
using namespace last::hsail;
using last::test::MiniWf;

namespace
{

/** One IL value op at one type; cmp's CmpOp and cvt's source type
 *  complete it. */
struct LaneCase
{
    Opcode op;
    DataType type;
    CmpOp cmp = CmpOp::Eq;
    DataType srcType = DataType::B32; ///< cvt only
};

std::string
caseName(const LaneCase &c)
{
    std::string name = opcodeName(c.op);
    if (c.op == Opcode::Cmp)
        name += std::string("_") + cmpOpName(c.cmp);
    name += std::string("_") + typeName(c.type);
    if (c.op == Opcode::Cvt)
        name += std::string("_") + typeName(c.srcType);
    return name;
}

// A printer keeps the ctest names gtest_discover_tests records stable
// (the default prints the raw bytes of the parameter).
void PrintTo(const LaneCase &c, std::ostream *os) { *os << caseName(c); }

/** The register of IL source i: 2, 4 and 6, each with room for a pair.
 *  The destination is register 0, or source 0's when it aliases it. */
constexpr uint16_t
srcReg(unsigned i)
{
    return uint16_t(2 + 2 * i);
}

/** Registers source `i` of `c` reads. */
unsigned
srcRegs(const LaneCase &c, unsigned i)
{
    return sourceRegs(c.op, c.type, c.srcType, i);
}

/** `c` as an HSAIL instruction writing `d`. */
std::unique_ptr<HsailInst>
hsailInst(const LaneCase &c, Reg d, uint64_t imm)
{
    const Reg s[3] = {{srcReg(0)}, {srcReg(1)}, {srcReg(2)}};
    auto src = [&](unsigned i) { return i < aluArity(c.op) ? s[i] : Reg{}; };
    switch (c.op) {
      case Opcode::MovImm:
        return std::unique_ptr<HsailInst>(HsailInst::movImm(c.type, d, imm));
      case Opcode::Cvt:
        return std::unique_ptr<HsailInst>(
            HsailInst::cvt(c.type, c.srcType, d, s[0]));
      case Opcode::Cmp:
        return std::unique_ptr<HsailInst>(
            HsailInst::cmp(c.cmp, c.type, d, s[0], s[1]));
      case Opcode::CMov:
        return std::unique_ptr<HsailInst>(
            HsailInst::cmov(c.type, d, s[0], s[1], s[2]));
      default:
        return std::unique_ptr<HsailInst>(
            HsailInst::alu(c.op, c.type, d, src(0), src(1), src(2)));
    }
}

/** `c` as a PTXL ALU instruction writing `d`, or nullptr: PTXL lowers
 *  cmp to ISETP, and its ALU form of cmp can only name eq. */
std::unique_ptr<ptxl::PtxlInst>
ptxlInst(const LaneCase &c, Reg d, uint64_t imm)
{
    using ptxl::PtxlInst;
    const Reg s[3] = {{srcReg(0)}, {srcReg(1)}, {srcReg(2)}};
    auto src = [&](unsigned i) { return i < aluArity(c.op) ? s[i] : Reg{}; };
    switch (c.op) {
      case Opcode::MovImm:
        return std::unique_ptr<PtxlInst>(PtxlInst::movImm(c.type, d, imm));
      case Opcode::Cvt:
        return std::unique_ptr<PtxlInst>(
            PtxlInst::cvt(c.type, c.srcType, d, s[0]));
      case Opcode::Cmp:
        if (c.cmp != CmpOp::Eq)
            return nullptr;
        [[fallthrough]];
      default:
        return std::unique_ptr<PtxlInst>(
            PtxlInst::alu(c.op, c.type, d, src(0), src(1), src(2)));
    }
}

/** Every case the HSAIL handler table installs, read from the table. */
std::vector<LaneCase>
installedKernels()
{
    const DataType types[] = {DataType::B32, DataType::U32, DataType::S32,
                              DataType::F32, DataType::U64, DataType::F64};
    std::vector<LaneCase> cases;
    for (unsigned o = 0; o <= unsigned(Opcode::Nop); ++o) {
        const Opcode op = Opcode(o);
        for (DataType t : types) {
            std::vector<LaneCase> variants;
            if (op == Opcode::Cmp) {
                for (unsigned c = 0; c <= unsigned(CmpOp::Ge); ++c)
                    variants.push_back({op, t, CmpOp(c)});
            } else if (op == Opcode::Cvt) {
                for (DataType from : types)
                    variants.push_back({op, t, CmpOp::Eq, from});
            } else {
                variants.push_back({op, t});
            }
            for (const LaneCase &c : variants) {
                auto inst = hsailInst(c, Reg{0}, 0);
                if (IlAluHandlers<HsailInst>::pick(*inst, op))
                    cases.push_back(c);
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

/** The operands of a source `regs` registers wide: the 32-bit edge
 *  patterns, and for a pair the 64-bit ones too. */
std::vector<uint64_t>
operandsOf(unsigned regs)
{
    std::vector<uint64_t> v(std::begin(edgeOperands), std::end(edgeOperands));
    if (regs == 2)
        v.insert(v.end(), std::begin(edgeOperands64),
                 std::end(edgeOperands64));
    return v;
}

/**
 * IEEE 754 and C leave some float results open, and the compiler may
 * settle them differently in two places that inline the same
 * expression (by commuting an operand, or by expanding std::fmin in one
 * place and calling it in another): which payload an operation on two
 * NaNs returns — two NaN operands, or for mad a NaN product (0 * inf
 * counts) and a NaN addend — and which zero min/max return for +0 and
 * -0. There the two need only agree on a NaN, or on a zero. Every other
 * result, every conversion's included, must match bit for bit. F is
 * the float type of the operands and U its bits.
 */
template <class F, class U>
bool
openAndAlikeAs(Opcode op, U a, U b, U x, U want, U got)
{
    auto nan = [](U v) { return unsigned(std::isnan(std::bit_cast<F>(v))); };
    auto zero = [](U v) { return U(v << 1) == 0; };
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
                        nan(std::bit_cast<U>(F(std::bit_cast<F>(a) *
                                               std::bit_cast<F>(b)))) +
                            nan(x));
        break;
      default:
        return false;
    }
    return nans >= 2 && nan(want) && nan(got);
}

/** openAndAlikeAs() at type `type`, for an op whose sources are a, b
 *  and x, zero-extended. */
bool
openAndAlike(Opcode op, DataType type, uint64_t a, uint64_t b, uint64_t x,
             uint64_t want, uint64_t got)
{
    switch (type) {
      case DataType::F32:
        return openAndAlikeAs<float, uint32_t>(
            op, uint32_t(a), uint32_t(b), uint32_t(x), uint32_t(want),
            uint32_t(got));
      case DataType::F64:
        return openAndAlikeAs<double, uint64_t>(op, a, b, x, want, got);
      default:
        return false;
    }
}

class IlLaneTable : public ::testing::TestWithParam<LaneCase>
{
};

} // namespace

TEST_P(IlLaneTable, FastKernelMatchesReference)
{
    const LaneCase &c = GetParam();
    const unsigned n = aluArity(c.op);
    const unsigned dregs = resultRegs(c.op, c.type);
    std::vector<uint64_t> ops[3];
    size_t combos = 1;
    for (unsigned i = 0; i < n; ++i) {
        ops[i] = operandsOf(srcRegs(c, i));
        combos *= ops[i].size();
    }
    // movimm has no source: its immediate takes each operand in turn.
    const std::vector<uint64_t> imms =
        c.op == Opcode::MovImm ? operandsOf(2) : std::vector<uint64_t>{0};

    unsigned mismatches = 0;
    for (IsaKind isa : {IsaKind::HSAIL, IsaKind::PTXL})
    for (uint64_t imm : imms)
    for (bool alias : {false, true}) {
        if (alias && n == 0)
            continue;
        const Reg d{alias ? srcReg(0) : uint16_t(0)};
        std::unique_ptr<arch::Instruction> inst;
        if (isa == IsaKind::HSAIL)
            inst = hsailInst(c, d, imm);
        else
            inst = ptxlInst(c, d, imm);
        if (!inst)
            continue;
        arch::ExecMeta m;
        m.inst = inst.get();
        m.size = uint8_t(inst->sizeBytes());
        inst->predecode(m);
        const arch::ExecHandler fast_h =
            isa == IsaKind::HSAIL
                ? IlAluHandlers<HsailInst>::pick(
                      static_cast<const HsailInst &>(*inst), c.op)
                : IlAluHandlers<ptxl::PtxlInst>::pick(
                      static_cast<const ptxl::PtxlInst &>(*inst), c.op);
        ASSERT_EQ(m.handler, fast_h) << caseName(c) << " at " << isaName(isa);

        for (uint64_t mask : {~0ull, 0x00ff0f0f3c3c5a5aull})
        for (size_t first = 0; first < combos; first += WavefrontSize) {
            arch::WfState st;
            st.isa = isa;
            st.vregs.assign(8, arch::LaneVec{});
            st.initLaunch(mask);
            // Every lane of every register starts distinct from what
            // any op writes there, so a missed or stray write shows.
            for (unsigned r = 0; r < st.vregs.size(); ++r)
                for (unsigned l = 0; l < WavefrontSize; ++l)
                    st.writeVreg(r, l, 0xa5000000u | r << 8 | l);
            uint64_t val[3][WavefrontSize] = {};
            size_t stride = 1;
            for (unsigned i = 0; i < n; ++i) {
                for (unsigned l = 0; l < WavefrontSize; ++l) {
                    const size_t t = (first + l) % combos;
                    val[i][l] = ops[i][(t / stride) % ops[i].size()];
                    if (srcRegs(c, i) == 2)
                        st.writeVreg64(srcReg(i), l, val[i][l]);
                    else
                        st.writeVreg(srcReg(i), l, uint32_t(val[i][l]));
                }
                stride *= ops[i].size();
            }

            arch::WfState ref = st;
            inst->execute(ref);
            arch::WfState got = st;
            m.handler(m, got);

            EXPECT_EQ(got.nextPc, ref.nextPc);
            for (unsigned l = 0; l < WavefrontSize; ++l) {
                // The destination as one value; every other register
                // bit for bit.
                auto dst = [&](const arch::WfState &w) -> uint64_t {
                    return dregs == 2 ? w.readVreg64(d.idx, l)
                                      : w.readVreg(d.idx, l);
                };
                const uint64_t want = dst(ref), have = dst(got);
                unsigned bad_reg = ~0u;
                if (want != have &&
                    !openAndAlike(c.op, c.type, val[0][l], val[1][l],
                                  val[2][l], want, have))
                    bad_reg = d.idx;
                for (unsigned r = 0; r < st.vregs.size(); ++r)
                    if ((r < d.idx || r >= d.idx + dregs) &&
                        ref.readVreg(r, l) != got.readVreg(r, l))
                        bad_reg = r;
                if (bad_reg == ~0u || ++mismatches > 5)
                    continue;
                ADD_FAILURE()
                    << caseName(c) << " at " << isaName(isa)
                    << (alias ? ", dst aliasing src0" : "") << std::hex
                    << ", mask 0x" << mask << ", v" << std::dec << bad_reg
                    << " lane " << l << std::hex << " (0x" << val[0][l]
                    << ", 0x" << val[1][l] << ", 0x" << val[2][l]
                    << ", imm 0x" << imm << "): reference 0x"
                    << ref.readVreg(bad_reg, l) << ", handler 0x"
                    << got.readVreg(bad_reg, l);
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

// ---------------------------------------------------------------------
// Host-computed expectations at both IL-semantics levels and engines.
// ---------------------------------------------------------------------

namespace
{

uint32_t f2b(float f) { return std::bit_cast<uint32_t>(f); }
uint64_t d2b(double d) { return std::bit_cast<uint64_t>(d); }

const char *
engineName(MiniWf::Engine e)
{
    return e == MiniWf::Engine::Predecoded ? "predecoded engine"
                                           : "reference engine";
}

/**
 * One IL op on fixed operands with its result computed on the host,
 * for the ops no GCN3 twin checks (GCN3 splits 64-bit integer ops into
 * carry pairs): the 64-bit integer ops, rem, 64-bit movimm and cvt.
 * The operands are picked so that a wrong width, word order or sign
 * gives a different answer.
 */
struct IlValueCase
{
    const char *name;
    Opcode op;
    DataType type;
    uint64_t a, b = 0, c = 0;
    uint64_t expect = 0;
    DataType src = DataType::B32; ///< cvt's source type
};

void PrintTo(const IlValueCase &c, std::ostream *os) { *os << c.name; }

constexpr DataType U32 = DataType::U32, S32 = DataType::S32,
                   F32 = DataType::F32, U64 = DataType::U64,
                   F64 = DataType::F64;

const IlValueCase ilValueCases[] = {
    // A carry out of the low word.
    {"add_u64", Opcode::Add, U64, 0x00000001ffffffffull,
     0x0000000100000001ull, 0, 0x0000000300000000ull},
    {"sub_f64", Opcode::Sub, F64, d2b(3.5), d2b(0.1), 0, d2b(3.5 - 0.1)},
    {"abs_f64", Opcode::Abs, F64, d2b(-0.1), 0, 0, d2b(0.1)},
    {"movimm_f64", Opcode::MovImm, F64, d2b(0.1), 0, 0, d2b(0.1)},
    // The condition is one register; its low word alone decides.
    {"cmov_f64", Opcode::CMov, F64, 0x80000000u, d2b(0.1), d2b(-2.5),
     d2b(0.1)},
    {"cmov_f64_false", Opcode::CMov, F64, 0, d2b(0.1), d2b(-2.5),
     d2b(-2.5)},
    // -7 as u32 is 4294967289.
    {"rem_u32", Opcode::Rem, U32, 0xfffffff9u, 10, 0, 9},
    {"rem_s32", Opcode::Rem, S32, 0xfffffff9u, 3, 0, 0xffffffffu},
    {"mul_u64", Opcode::Mul, U64, 0x0000000100000003ull,
     0x0000000200000005ull, 0, 0x0000000b0000000full},
    {"and_u64", Opcode::And, U64, 0xff00ff00f0f0f0f0ull,
     0x0ff00ff0ffff0000ull, 0, 0x0f000f00f0f00000ull},
    {"or_u64", Opcode::Or, U64, 0xff00000000000001ull,
     0x00ff000000000010ull, 0, 0xffff000000000011ull},
    {"xor_u64", Opcode::Xor, U64, 0x123456789abcdef0ull,
     0xffffffff00000000ull, 0, 0xedcba9879abcdef0ull},
    {"not_u64", Opcode::Not, U64, 0x00000000ffffffffull, 0, 0,
     0xffffffff00000000ull},
    // The count is a u64 too; it is taken mod 64.
    {"shl_u64_by31", Opcode::Shl, U64, 0x0000000180000001ull, 31, 0,
     0xc000000080000000ull},
    {"shl_u64_by32", Opcode::Shl, U64, 0x0000000180000001ull, 32, 0,
     0x8000000100000000ull},
    {"shl_u64_by63", Opcode::Shl, U64, 0x0000000180000001ull, 63, 0,
     0x8000000000000000ull},
    {"shl_u64_by64", Opcode::Shl, U64, 0x0000000180000001ull, 64, 0,
     0x0000000180000001ull},
    {"shr_u64_by31", Opcode::Shr, U64, 0x8000000180000000ull, 31, 0,
     0x0000000100000003ull},
    {"shr_u64_by32", Opcode::Shr, U64, 0x8000000180000000ull, 32, 0,
     0x0000000080000001ull},
    {"shr_u64_by63", Opcode::Shr, U64, 0x8000000180000000ull, 63, 0, 1},
    {"shr_u64_by64", Opcode::Shr, U64, 0x8000000180000000ull, 64, 0,
     0x8000000180000000ull},
    // Conversions name the destination type first.
    {"cvt_u64_u32", Opcode::Cvt, U64, 0xfffffffeu, 0, 0,
     0x00000000fffffffeull, U32},
    {"cvt_u64_s32", Opcode::Cvt, U64, 0xfffffffdu, 0, 0,
     0xfffffffffffffffdull, S32},
    {"cvt_f64_u64", Opcode::Cvt, F64, 0xffffffffffffffffull, 0, 0,
     d2b(18446744073709551616.0), U64},
    {"cvt_f64_u32", Opcode::Cvt, F64, 0xffffffffu, 0, 0, d2b(4294967295.0),
     U32},
    {"cvt_f64_s32", Opcode::Cvt, F64, 0xfffffffdu, 0, 0, d2b(-3.0), S32},
    {"cvt_f32_u64", Opcode::Cvt, F32, 0x0000000100000001ull, 0, 0,
     f2b(4294967296.0f), U64},
    {"cvt_u64_f32", Opcode::Cvt, U64, f2b(1e10f), 0, 0,
     0x00000002540be400ull, F32},
    {"cvt_u64_f64", Opcode::Cvt, U64, d2b(12884901893.0), 0, 0,
     0x0000000300000005ull, F64},
    {"cvt_u64_f64_high", Opcode::Cvt, U64, d2b(0x1p63 + 0x1p12), 0, 0,
     0x8000000000001000ull, F64},
    // Out of range, the conversions read as x86-64's scalar ones.
    {"cvt_u64_f64_neg", Opcode::Cvt, U64, d2b(-1.5), 0, 0,
     0xffffffffffffffffull, F64},
    {"cvt_u64_f64_nan", Opcode::Cvt, U64, d2b(std::nan("")), 0, 0,
     0x8000000000000000ull, F64},
    {"cvt_u64_f64_big", Opcode::Cvt, U64, d2b(1e30), 0, 0, 0, F64},
    {"cvt_u64_f64_minus_big", Opcode::Cvt, U64, d2b(-1e30), 0, 0,
     0x8000000000000000ull, F64},
    {"cvt_u32_f64", Opcode::Cvt, U32, d2b(4294967303.0), 0, 0, 7, F64},
    {"cvt_u32_f64_nan", Opcode::Cvt, U32, d2b(std::nan("")), 0, 0, 0, F64},
    {"cvt_s32_f64", Opcode::Cvt, S32, d2b(-3.75), 0, 0, 0xfffffffdu, F64},
    {"cvt_s32_f64_big", Opcode::Cvt, S32, d2b(1e10), 0, 0, 0x80000000u,
     F64},
    // A conversion to the source's own type copies its bits: a
    // signalling NaN stays signalling, a u64 past 2^53 keeps its low bit.
    {"cvt_f32_f32_snan", Opcode::Cvt, F32, 0x7f800001u, 0, 0, 0x7f800001u,
     F32},
    {"cvt_u64_u64", Opcode::Cvt, U64, 0x0020000000000001ull, 0, 0,
     0x0020000000000001ull, U64},
};

class IlValueSweep : public ::testing::TestWithParam<IlValueCase>
{
};

/** The IL kernel computing `c`: sources by movimm, then the op. */
IlKernel
valueKernel(const IlValueCase &c, Val &result)
{
    KernelBuilder kb(c.name);
    auto imm = [&](DataType t, uint64_t v) {
        switch (t) {
          case U64: return kb.immU64(v);
          case F64: return kb.immF64(std::bit_cast<double>(v));
          case F32: return kb.immF32(std::bit_cast<float>(uint32_t(v)));
          case S32: return kb.immS32(int32_t(uint32_t(v)));
          default: return kb.immU32(uint32_t(v));
        }
    };
    switch (c.op) {
      case Opcode::MovImm:
        result = imm(c.type, c.a);
        break;
      case Opcode::Cvt:
        result = kb.cvt(c.type, imm(c.src, c.a));
        break;
      case Opcode::CMov:
        result = kb.cmov(imm(U32, c.a), imm(c.type, c.b), imm(c.type, c.c));
        break;
      default: {
        const Val a = imm(c.type, c.a);
        const Val b = aluArity(c.op) >= 2 ? imm(c.type, c.b) : Val{};
        result = kb.emitAlu2(c.op, a, b);
        break;
      }
    }
    return kb.build();
}

} // namespace

TEST_P(IlValueSweep, MatchesHostSemantics)
{
    const IlValueCase &c = GetParam();
    Val result;
    auto il = valueKernel(c, result);
    auto ptxl = finalizer::finalize(il, IsaKind::PTXL, GpuConfig{});

    // PTXL keeps IL register numbers, so both sides read the same ones.
    for (const arch::KernelCode *code : {il.code.get(), ptxl.get()}) {
        for (auto engine : {MiniWf::Engine::Reference,
                            MiniWf::Engine::Predecoded}) {
            SCOPED_TRACE(std::string(isaName(code->isa())) + ", " +
                         engineName(engine));
            MiniWf wf(*code);
            wf.engine = engine;
            // Registers start nonzero, so a result word left unwritten
            // shows.
            for (auto &row : wf.st.vregs)
                row.fill(0xdeadbeefu);
            wf.run();
            ASSERT_TRUE(wf.st.done);
            for (unsigned lane : {0u, 63u}) {
                const uint64_t got =
                    typeRegs(c.type) == 2
                        ? wf.st.readVreg64(result.reg, lane)
                        : wf.st.readVreg(result.reg, lane);
                EXPECT_EQ(got, c.expect)
                    << c.name << " lane " << lane << std::hex
                    << ": got 0x" << got << ", want 0x" << c.expect;
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Ops, IlValueSweep, ::testing::ValuesIn(ilValueCases),
                         [](const auto &info) {
                             return std::string(info.param.name);
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
        for (auto engine : {MiniWf::Engine::Reference,
                            MiniWf::Engine::Predecoded}) {
            SCOPED_TRACE(std::string(isaName(code->isa())) + ", " +
                         engineName(engine));
            MiniWf wf(*code);
            wf.engine = engine;
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

    // Source and destination widths, as the instruction declares them
    // (a VOPC op writes no VGPR).
    bool wide[3] = {};
    unsigned dregs = 0;
    {
        std::unique_ptr<gcn3::Gcn3Inst> probe(gcn3::Gcn3Inst::vop3(
            op, gcn3::Dst::vgpr(0), Src::vgpr(vreg(0)), Src::vgpr(vreg(1)),
            Src::vgpr(vreg(2))));
        for (const auto &o : probe->regOps()) {
            if (o.cls != arch::RegClass::Vector)
                continue;
            if (o.isDef && o.idx == 0)
                dregs = o.width;
            for (unsigned i = 0; i < nsrc; ++i)
                if (!o.isDef && o.idx == vreg(i))
                    wide[i] = o.width == 2;
        }
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
                // A 64-bit inline constant holds the high word only.
                const uint64_t v =
                    ks[i] == Kind::Const && wide[i] ? u >> 32 << 32 : u;
                for (unsigned l = 0; l < WavefrontSize; ++l)
                    val[i][l] = v;
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
            for (unsigned l = 0; l < WavefrontSize; ++l) {
                // The IL operands of this lane, for the tolerance.
                uint64_t il[3] = {};
                for (unsigned i = 0; twin.valid() && i < aluArity(twin.op);
                     ++i) {
                    const unsigned g = twin.src[i];
                    const uint64_t sign =
                        (neg >> g) & 1 ? (wide[g] ? 1ull << 63 : 1u << 31)
                                       : 0;
                    il[i] = g == gcn3::IlTwin::DstRow ? st.readVreg(0, l)
                                                      : val[g][l] ^ sign;
                }
                // The destination as one value; every other register
                // bit for bit.
                auto dst = [&](const arch::WfState &w) -> uint64_t {
                    return dregs == 2 ? w.readVreg64(0, l) : w.readVreg(0, l);
                };
                const uint64_t want = dst(ref), got = dst(fast);
                unsigned bad_reg = ~0u;
                if (want != got &&
                    !(twin.valid() &&
                      openAndAlike(twin.op, twin.type, il[0], il[1],
                                   il[2], want, got)))
                    bad_reg = 0;
                for (unsigned r = dregs; r < st.vregs.size(); ++r)
                    if (ref.readVreg(r, l) != fast.readVreg(r, l))
                        bad_reg = r;
                if (bad_reg == ~0u || ++mismatches > 5)
                    continue;
                ADD_FAILURE()
                    << gcn3CaseName(op) << " neg " << unsigned(neg)
                    << " lane " << l << " v" << bad_reg << std::hex << " (0x"
                    << il[0] << ", 0x" << il[1] << ", 0x" << il[2]
                    << "): reference 0x" << ref.readVreg(bad_reg, l)
                    << ", handler 0x" << fast.readVreg(bad_reg, l);
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
