/**
 * @file
 * Parameterized property sweeps:
 *  - GCN3 VALU semantics against host arithmetic over an operand grid;
 *  - nested control-flow structures execute identically at all three
 *    levels;
 *  - per-workload abstraction-gap invariants (the paper's qualitative
 *    claims as assertions).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <memory>
#include <vector>

#include "arch/kernel_code.hh"
#include "cu/probes.hh"
#include "finalizer/finalizer.hh"
#include "finalizer/regalloc.hh"
#include "gcn3/inst.hh"
#include "helpers.hh"
#include "ptxl/inst.hh"
#include "runtime/runtime.hh"
#include "sim/parallel.hh"

using namespace last;

// ---------------------------------------------------------------------
// GCN3 VALU semantics sweep.
// ---------------------------------------------------------------------

namespace
{

/**
 * One VALU/VOPC op on fixed operands, with its result computed on the
 * host here, not from the GCN3-to-IL mapping table (ilTwin), so a
 * wrong mapping (a lost operand swap, a wrong type or source order)
 * fails by name. Register-pair sources and results hold 64-bit values;
 * a compare's result is its VCC bit.
 */
struct ValuCase
{
    const char *name;
    gcn3::Gcn3Op op;
    uint64_t a, b;
    uint64_t expect;
    uint64_t c = 0; ///< the third source
    uint64_t d = 0; ///< the destination before the op (V_MAC_F32)
    /** VCC in the lanes checked before the op (the carry-in, the
     *  cndmask select) and after it (-1: unchanged). */
    int vccIn = 1, vccOut = -1;
    int dstIs = -1; ///< the source the destination aliases (-1: none)
};

// Without a printer gtest lists each case by its raw bytes, which hold
// the address of `name`. That address moves with ASLR, so the ctest
// names gtest_discover_tests records would change on every build.
void PrintTo(const ValuCase &c, std::ostream *os) { *os << c.name; }

uint32_t f2b(float f) { return std::bit_cast<uint32_t>(f); }
uint64_t d2b(double d) { return std::bit_cast<uint64_t>(d); }

using gcn3::Gcn3Op;

const ValuCase valuCases[] = {
    // The carry family writes its carry-out (borrow-out) into VCC;
    // ADDC and SUBB add (subtract) VCC as the carry-in, ADD and SUB
    // ignore it.
    {.name = "add_small", .op = Gcn3Op::V_ADD_U32, .a = 3, .b = 4,
     .expect = 7, .vccOut = 0},
    {.name = "add_wrap", .op = Gcn3Op::V_ADD_U32, .a = 0xffffffffu,
     .b = 2, .expect = 1, .vccOut = 1},
    {.name = "sub", .op = Gcn3Op::V_SUB_U32, .a = 10, .b = 3, .expect = 7,
     .vccOut = 0},
    {.name = "sub_borrow", .op = Gcn3Op::V_SUB_U32, .a = 1, .b = 3,
     .expect = 0xfffffffeu, .vccOut = 1},
    {.name = "add_vcc_clear", .op = Gcn3Op::V_ADD_U32,
     .a = 0xffffffffu, .b = 2, .expect = 1, .vccIn = 0, .vccOut = 1},
    {.name = "sub_vcc_clear", .op = Gcn3Op::V_SUB_U32, .a = 1, .b = 3,
     .expect = 0xfffffffeu, .vccIn = 0, .vccOut = 1},
    {.name = "addc_cin_set", .op = Gcn3Op::V_ADDC_U32, .a = 0xfffffffeu,
     .b = 1, .expect = 0, .vccIn = 1, .vccOut = 1},
    {.name = "addc_cin_clear", .op = Gcn3Op::V_ADDC_U32,
     .a = 0xfffffffeu, .b = 1, .expect = 0xffffffffu, .vccIn = 0,
     .vccOut = 0},
    {.name = "subb_cin_set", .op = Gcn3Op::V_SUBB_U32, .a = 3, .b = 3,
     .expect = 0xffffffffu, .vccIn = 1, .vccOut = 1},
    {.name = "subb_cin_clear", .op = Gcn3Op::V_SUBB_U32, .a = 3, .b = 3,
     .expect = 0, .vccIn = 0, .vccOut = 0},
    // The destination is a source (v_sub_u32 v2, vcc, v2, v4, as the
    // finalizer's 64-bit subtract emits): the carry-out still comes
    // from the sources as they were.
    {.name = "sub_dst_src0_borrow", .op = Gcn3Op::V_SUB_U32, .a = 1,
     .b = 3, .expect = 0xfffffffeu, .vccOut = 1, .dstIs = 0},
    {.name = "sub_dst_src0", .op = Gcn3Op::V_SUB_U32, .a = 10, .b = 6,
     .expect = 4, .vccOut = 0, .dstIs = 0},
    {.name = "subb_dst_src0", .op = Gcn3Op::V_SUBB_U32, .a = 1, .b = 3,
     .expect = 0xfffffffdu, .vccIn = 1, .vccOut = 1, .dstIs = 0},
    {.name = "subb_dst_src1", .op = Gcn3Op::V_SUBB_U32, .a = 1, .b = 3,
     .expect = 0xfffffffdu, .vccIn = 1, .vccOut = 1, .dstIs = 1},
    {.name = "add_dst_src0", .op = Gcn3Op::V_ADD_U32, .a = 0xffffffffu,
     .b = 2, .expect = 1, .vccOut = 1, .dstIs = 0},
    {.name = "addc_dst_src1", .op = Gcn3Op::V_ADDC_U32,
     .a = 0xffffffffu, .b = 0, .expect = 0, .vccIn = 1, .vccOut = 1,
     .dstIs = 1},
    {"mul_lo", Gcn3Op::V_MUL_LO_U32, 100000, 100000,
     uint32_t(100000ull * 100000ull)},
    {"mul_hi", Gcn3Op::V_MUL_HI_U32, 0x80000000u, 8, 4},
    {"and", Gcn3Op::V_AND_B32, 0xff00ff00u, 0x0ff00ff0u, 0x0f000f00u},
    {"or", Gcn3Op::V_OR_B32, 0xf0u, 0x0fu, 0xffu},
    {"xor", Gcn3Op::V_XOR_B32, 0xaaaau, 0xffffu, 0x5555u},
    {"lshl_rev", Gcn3Op::V_LSHLREV_B32, 4, 3, 48},
    {"lshr_rev", Gcn3Op::V_LSHRREV_B32, 4, 48, 3},
    {"ashr_rev", Gcn3Op::V_ASHRREV_I32, 2, 0x80000000u, 0xe0000000u},
    {"min_u", Gcn3Op::V_MIN_U32, 5, 9, 5},
    {"max_u", Gcn3Op::V_MAX_U32, 5, 9, 9},
    {"min_i", Gcn3Op::V_MIN_I32, uint32_t(-4), 3, uint32_t(-4)},
    {"max_i", Gcn3Op::V_MAX_I32, uint32_t(-4), 3, 3},
    {"add_f32", Gcn3Op::V_ADD_F32, f2b(1.5f), f2b(2.25f), f2b(3.75f)},
    {"mul_f32", Gcn3Op::V_MUL_F32, f2b(3.0f), f2b(-2.0f), f2b(-6.0f)},
    {"min_f32", Gcn3Op::V_MIN_F32, f2b(3.0f), f2b(-2.0f), f2b(-2.0f)},
    {"max_f32", Gcn3Op::V_MAX_F32, f2b(3.0f), f2b(-2.0f), f2b(3.0f)},
    {"mov", Gcn3Op::V_MOV_B32, 0x12345678u, 0, 0x12345678u},
    {"not", Gcn3Op::V_NOT_B32, 0x0000ffffu, 0, 0xffff0000u},
    {"sub_f32", Gcn3Op::V_SUB_F32, f2b(1.5f), f2b(2.25f), f2b(-0.75f)},
    {"sqrt_f32", Gcn3Op::V_SQRT_F32, f2b(6.25f), 0, f2b(2.5f)},
    {"sqrt_f64", Gcn3Op::V_SQRT_F64, d2b(6.25), 0, d2b(2.5)},
    // 2^31 reads as +2147483648 unsigned, -2147483648 signed.
    {"cvt_f32_u32", Gcn3Op::V_CVT_F32_U32, 0x80000000u, 0,
     f2b(2147483648.0f)},
    {"cvt_f32_i32", Gcn3Op::V_CVT_F32_I32, uint32_t(-3), 0, f2b(-3.0f)},
    {"cvt_u32_f32", Gcn3Op::V_CVT_U32_F32, f2b(3.0e9f), 0, 3000000000u},
    {"cvt_i32_f32", Gcn3Op::V_CVT_I32_F32, f2b(-3.75f), 0, uint32_t(-3)},
    {"cvt_f64_f32", Gcn3Op::V_CVT_F64_F32, f2b(-1.5f), 0, d2b(-1.5)},
    {"cvt_f32_f64", Gcn3Op::V_CVT_F32_F64, d2b(0.1), 0, f2b(0.1f)},
    {"cvt_f64_u32", Gcn3Op::V_CVT_F64_U32, 0x80000000u, 0,
     d2b(2147483648.0)},
    {"cvt_u32_f64", Gcn3Op::V_CVT_U32_F64, d2b(4000000000.5), 0,
     4000000000u},
    // Multiply-add: a * b + c. A lost or swapped operand changes each.
    {"mac_f32", Gcn3Op::V_MAC_F32, f2b(2.0f), f2b(3.0f), f2b(7.0f), 0,
     f2b(1.0f)},
    {"mad_f32", Gcn3Op::V_MAD_F32, f2b(2.0f), f2b(3.0f), f2b(10.0f),
     f2b(4.0f)},
    {"fma_f32", Gcn3Op::V_FMA_F32, f2b(2.0f), f2b(3.0f), f2b(10.0f),
     f2b(4.0f)},
    {"div_fmas_f32", Gcn3Op::V_DIV_FMAS_F32, f2b(2.0f), f2b(3.0f),
     f2b(10.0f), f2b(4.0f)},
    {"fma_f64", Gcn3Op::V_FMA_F64, d2b(2.0), d2b(3.0), d2b(10.0),
     d2b(4.0)},
    {"div_fmas_f64", Gcn3Op::V_DIV_FMAS_F64, d2b(2.0), d2b(3.0),
     d2b(10.0), d2b(4.0)},
    // Bit field extract: a >> b, c bits wide.
    {"bfe", Gcn3Op::V_BFE_U32, 0xabcd1234u, 8, 0xd12, 12},
    // div_fixup: the numerator is src2, the denominator src1.
    {"div_fixup_f32", Gcn3Op::V_DIV_FIXUP_F32, f2b(5.0f), f2b(4.0f),
     f2b(0.25f), f2b(1.0f)},
    {"div_fixup_f64", Gcn3Op::V_DIV_FIXUP_F64, d2b(5.0), d2b(4.0),
     d2b(0.25), d2b(1.0)},
    {"add_f64", Gcn3Op::V_ADD_F64, d2b(1.5), d2b(2.25), d2b(3.75)},
    {"mul_f64", Gcn3Op::V_MUL_F64, d2b(3.0), d2b(-2.0), d2b(-6.0)},
    {"min_f64", Gcn3Op::V_MIN_F64, d2b(3.0), d2b(-2.0), d2b(-2.0)},
    {"max_f64", Gcn3Op::V_MAX_F64, d2b(3.0), d2b(-2.0), d2b(3.0)},
    // VCC is set in the lanes checked: src1 is selected.
    {"cndmask", Gcn3Op::V_CNDMASK_B32, 11, 22, 22},
    {.name = "cndmask_vcc_clear", .op = Gcn3Op::V_CNDMASK_B32, .a = 11,
     .b = 22, .expect = 11, .vccIn = 0},
    // The other ops only GCN3 has. mad_u32_u24 multiplies the low 24
    // bits of a and b; div_scale passes src0 through and clears VCC in
    // the active lanes.
    {"mad_u32_u24", Gcn3Op::V_MAD_U32_U24, 0x01000003u, 0xff000005u, 22,
     7},
    {"rcp_f32", Gcn3Op::V_RCP_F32, f2b(4.0f), 0, f2b(0.25f)},
    {"rcp_f64", Gcn3Op::V_RCP_F64, d2b(8.0), 0, d2b(0.125)},
    {.name = "div_scale_f32", .op = Gcn3Op::V_DIV_SCALE_F32,
     .a = f2b(5.0f), .b = f2b(4.0f), .expect = f2b(5.0f), .c = f2b(5.0f),
     .vccOut = 0},
    {.name = "div_scale_f64", .op = Gcn3Op::V_DIV_SCALE_F64,
     .a = d2b(5.0), .b = d2b(4.0), .expect = d2b(5.0), .c = d2b(5.0),
     .vccOut = 0},
    // One compare per type, on operands whose order differs by type.
    {"cmp_lt_u32", Gcn3Op::V_CMP_LT_U32, 1, 0xffffffffu, 1},
    {"cmp_lt_i32", Gcn3Op::V_CMP_LT_I32, 0xffffffffu, 1, 1},
    {"cmp_lt_f32", Gcn3Op::V_CMP_LT_F32, f2b(-2.0f), f2b(-1.0f), 1},
    {"cmp_lt_f64", Gcn3Op::V_CMP_LT_F64, d2b(-2.0), d2b(-1.0), 1},
};

class Gcn3ValuSweep : public ::testing::TestWithParam<ValuCase>
{
};

} // namespace

TEST_P(Gcn3ValuSweep, MatchesHostSemantics)
{
    using gcn3::Dst;
    using gcn3::Src;
    const ValuCase &c = GetParam();
    mem::FunctionalMemory m;
    arch::WfState st;
    st.isa = IsaKind::GCN3;
    st.memory = &m;
    st.vregs.assign(8, arch::LaneVec{});
    st.initLaunch(~0ull);
    const uint64_t checked = 1ull | (1ull << 63); // the lanes checked
    st.vcc = c.vccIn ? checked : 0;

    // Sources in v[2:3], v[4:5], v[6:7]; the result in v[0:1], or in
    // the source it aliases.
    const Src s0 = Src::vgpr(2), s1 = Src::vgpr(4), s2 = Src::vgpr(6);
    const unsigned dreg = c.dstIs < 0 ? 0 : 2 + 2 * unsigned(c.dstIs);
    const Dst dst = Dst::vgpr(dreg);
    std::unique_ptr<gcn3::Gcn3Inst> inst;
    switch (gcn3::opFormat(c.op)) {
      case gcn3::Format::VOP1:
        inst.reset(gcn3::Gcn3Inst::vop1(c.op, dst, s0));
        break;
      case gcn3::Format::VOP2:
        inst.reset(gcn3::Gcn3Inst::vop2(c.op, dst, s0, s1));
        break;
      case gcn3::Format::VOPC:
        inst.reset(gcn3::Gcn3Inst::vcmp(c.op, s0, s1));
        break;
      default:
        inst.reset(gcn3::Gcn3Inst::vop3(c.op, dst, s0, s1, s2));
        break;
    }
    // The widths the instruction declares decide what is a pair.
    unsigned width[8] = {};
    for (const auto &o : inst->regOps())
        if (o.cls == arch::RegClass::Vector)
            width[o.idx] = o.width;
    auto put = [&](unsigned reg, uint64_t v) {
        for (unsigned lane = 0; lane < 64; ++lane) {
            if (width[reg] == 2)
                st.writeVreg64(reg, lane, v);
            else
                st.writeVreg(reg, lane, uint32_t(v));
        }
    };
    put(dreg, c.d); // first: an aliased source overwrites it
    put(2, c.a);
    put(4, c.b);
    put(6, c.c);

    inst->execute(st);
    // A compare's result is its VCC bit; every other op must leave VCC
    // as vccOut says.
    const bool cmp = gcn3::opFormat(c.op) == gcn3::Format::VOPC;
    const uint64_t vcc = cmp ? c.expect
                       : c.vccOut < 0 ? uint64_t(c.vccIn)
                                      : uint64_t(c.vccOut);
    EXPECT_EQ(st.vcc & 1, vcc) << c.name << " VCC lane 0";
    EXPECT_EQ(st.vcc >> 63, vcc) << c.name << " VCC lane 63";
    if (cmp)
        return;
    for (unsigned lane : {0u, 63u}) {
        const uint64_t got = width[dreg] == 2 ? st.readVreg64(dreg, lane)
                                              : st.readVreg(dreg, lane);
        EXPECT_EQ(got, c.expect) << c.name << " lane " << lane;
    }
}

INSTANTIATE_TEST_SUITE_P(Ops, Gcn3ValuSweep,
                         ::testing::ValuesIn(valuCases),
                         [](const auto &info) {
                             return std::string(info.param.name);
                         });

// ---------------------------------------------------------------------
// Nested control-flow structures: all three levels, identical results.
// ---------------------------------------------------------------------

namespace
{

/** Structure id encodes a nesting pattern to generate. */
class ControlShapeSweep : public ::testing::TestWithParam<int>
{
  public:
    static hsail::IlKernel
    makeKernel(int shape, Addr out)
    {
        using namespace hsail;
        KernelBuilder kb("shape" + std::to_string(shape));
        Val gid = kb.workitemAbsId();
        Val acc = kb.mov(gid);
        Val one = kb.immU32(1);

        auto divergentIf = [&](unsigned mod, unsigned bump) {
            Val c = kb.cmp(CmpOp::Lt, kb.and_(gid, kb.immU32(7)),
                           kb.immU32(mod));
            kb.ifBegin(c);
            kb.emitAluTo(Opcode::Add, acc, acc, kb.immU32(bump));
            kb.ifEnd();
        };
        auto loop = [&](unsigned trips, unsigned bump) {
            Val i = kb.immU32(0);
            kb.doBegin();
            kb.emitAluTo(Opcode::Add, acc, acc, kb.immU32(bump));
            kb.emitAluTo(Opcode::Add, i, i, one);
            kb.doEnd(kb.cmp(CmpOp::Lt, i, kb.immU32(trips)));
        };

        switch (shape) {
          case 0: // if inside loop
            {
                Val i = kb.immU32(0);
                kb.doBegin();
                divergentIf(3, 10);
                kb.emitAluTo(Opcode::Add, i, i, one);
                kb.doEnd(kb.cmp(CmpOp::Lt, i, kb.immU32(4)));
            }
            break;
          case 1: // loop inside divergent if
            {
                Val c = kb.cmp(CmpOp::Lt, kb.and_(gid, kb.immU32(3)),
                               kb.immU32(2));
                kb.ifBegin(c);
                loop(3, 7);
                kb.ifEnd();
            }
            break;
          case 2: // if-else chains
            divergentIf(2, 100);
            {
                Val c = kb.cmp(CmpOp::Ge, kb.and_(gid, kb.immU32(7)),
                               kb.immU32(4));
                kb.ifBegin(c);
                kb.emitAluTo(Opcode::Add, acc, acc, kb.immU32(1000));
                kb.ifElse();
                kb.emitAluTo(Opcode::Add, acc, acc, kb.immU32(2000));
                kb.ifEnd();
            }
            break;
          case 3: // triple nesting: loop { if { if } }
            {
                Val i = kb.immU32(0);
                kb.doBegin();
                {
                    Val c1 = kb.cmp(CmpOp::Lt,
                                    kb.and_(gid, kb.immU32(7)),
                                    kb.immU32(5));
                    kb.ifBegin(c1);
                    {
                        Val c2 = kb.cmp(CmpOp::Lt,
                                        kb.and_(gid, kb.immU32(3)),
                                        kb.immU32(2));
                        kb.ifBegin(c2);
                        kb.emitAluTo(Opcode::Add, acc, acc,
                                     kb.immU32(3));
                        kb.ifEnd();
                        kb.emitAluTo(Opcode::Add, acc, acc, one);
                    }
                    kb.ifEnd();
                }
                kb.emitAluTo(Opcode::Add, i, i, one);
                kb.doEnd(kb.cmp(CmpOp::Lt, i, kb.immU32(3)));
            }
            break;
          case 4: // divergent loop (trip count from lane id)
            {
                Val j = kb.and_(gid, kb.immU32(7));
                kb.doBegin();
                kb.emitAluTo(Opcode::Add, acc, acc, kb.immU32(5));
                kb.emitAluTo(Opcode::Add, j, j, one);
                kb.doEnd(kb.cmp(CmpOp::Lt, j, kb.immU32(8)));
            }
            break;
          case 5: // two divergent loops inside a uniform one, all three
                  // bodies starting at the same instruction (the uniform
                  // loop makes the order they open in matter)
            {
                Val j = kb.and_(gid, kb.immU32(3));
                Val k = kb.immU32(0);
                Val u = kb.immU32(0);
                kb.doBegin();
                kb.doBegin();
                kb.doBegin();
                kb.emitAluTo(Opcode::Add, acc, acc, kb.immU32(5));
                kb.emitAluTo(Opcode::Add, j, j, one);
                kb.doEnd(kb.cmp(CmpOp::Lt, j, kb.immU32(4)));
                kb.emitAluTo(Opcode::Add, k, k, one);
                kb.doEnd(kb.cmp(CmpOp::Lt, k, kb.and_(gid, kb.immU32(3))));
                kb.emitAluTo(Opcode::Add, u, u, one);
                kb.doEnd(kb.cmp(CmpOp::Lt, u, kb.immU32(2)));
            }
            break;
          case 6: // two divergent ifs close where a divergent loop opens
            {
                Val j = kb.and_(gid, kb.immU32(7));
                Val c1 = kb.cmp(CmpOp::Lt, j, kb.immU32(5));
                kb.ifBegin(c1);
                {
                    Val c2 = kb.cmp(CmpOp::Lt,
                                    kb.and_(gid, kb.immU32(3)),
                                    kb.immU32(2));
                    kb.ifBegin(c2);
                    kb.emitAluTo(Opcode::Add, acc, acc, kb.immU32(3));
                    kb.ifEnd();
                }
                kb.ifEnd();
                kb.doBegin();
                kb.emitAluTo(Opcode::Add, acc, acc, kb.immU32(7));
                kb.emitAluTo(Opcode::Add, j, j, one);
                kb.doEnd(kb.cmp(CmpOp::Lt, j, kb.immU32(8)));
            }
            break;
          default:
            break;
        }

        Val off = kb.cvt(DataType::U64, kb.mul(gid, kb.immU32(4)));
        kb.stGlobal(acc, kb.add(kb.immU64(out), off));
        return kb.build();
    }
};

} // namespace

// The name predates PTXL: every shape runs at all three levels.
TEST_P(ControlShapeSweep, BothIsasAgree)
{
    constexpr Addr out = 0x40000;
    constexpr unsigned grid = 256;
    std::vector<uint32_t> results[3];
    int k = 0;
    for (IsaKind isa : AllIsas) {
        SCOPED_TRACE(isaName(isa));
        runtime::Runtime rt;
        auto il = makeKernel(GetParam(), out);
        finalizer::compactIlRegisters(il);
        std::unique_ptr<arch::KernelCode> machine;
        arch::KernelCode *code = il.code.get();
        if (isa != IsaKind::HSAIL) {
            machine = finalizer::finalize(il, isa, rt.config());
            code = machine.get();
        }
        rt.dispatch(*code, grid, 256, nullptr, 0);
        results[k].resize(grid);
        rt.readGlobal(out, results[k].data(), grid * 4);
        EXPECT_EQ(rt.gpu().sumCuStat("hazardViolations"), 0.0);
        ++k;
    }
    EXPECT_EQ(results[0], results[1]) << "shape " << GetParam();
    EXPECT_EQ(results[0], results[2]) << "shape " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Shapes, ControlShapeSweep,
                         ::testing::Range(0, 7));

// ---------------------------------------------------------------------
// Per-workload abstraction-gap invariants (the paper's claims).
// ---------------------------------------------------------------------

namespace
{

class AbstractionGapSweep
    : public ::testing::TestWithParam<const char *>
{
  public:
    static const std::pair<sim::AppResult, sim::AppResult> &
    results(const std::string &name)
    {
        static std::map<std::string,
                        std::pair<sim::AppResult, sim::AppResult>>
            cache;
        auto it = cache.find(name);
        if (it == cache.end()) {
            workloads::WorkloadScale s{0.5};
            auto rs = sim::runMany({{name, IsaKind::HSAIL, {}, s},
                                    {name, IsaKind::GCN3, {}, s}});
            sim::checkAgreement({&rs[0], &rs[1]});
            it = cache.emplace(name, std::pair(std::move(rs[0]),
                                               std::move(rs[1])))
                     .first;
        }
        return it->second;
    }
};

} // namespace

TEST_P(AbstractionGapSweep, SimdUtilizationSurvivesAbstraction)
{
    const auto &[h, g] = results(GetParam());
    // Table 6: utilization is a program property, not an ISA one.
    EXPECT_NEAR(h.simdUtil, g.simdUtil, 0.10) << GetParam();
}

TEST_P(AbstractionGapSweep, ScalarWorkOnlyUnderMachineIsa)
{
    const auto &[h, g] = results(GetParam());
    EXPECT_EQ(h.salu + h.smem + h.waitcnt, 0u);
    EXPECT_GT(g.salu + g.smem, 0u);
    EXPECT_GT(g.waitcnt, 0u);
}

TEST_P(AbstractionGapSweep, MachineIsaExecutesMore)
{
    const auto &[h, g] = results(GetParam());
    EXPECT_GT(g.dynInsts, h.dynInsts);
    EXPECT_LT(g.dynInsts, h.dynInsts * 4); // sanity bound
}

TEST_P(AbstractionGapSweep, VectorAluDominatesHsail)
{
    const auto &[h, g] = results(GetParam());
    (void)g;
    // "All HSAIL ALU instructions are vector instructions."
    EXPECT_GT(h.valu, h.dynInsts / 2) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(
    Table5, AbstractionGapSweep,
    ::testing::Values("ArrayBW", "BitonicSort", "CoMD", "FFT", "HPGMG",
                      "MD", "SNAP", "SpMV", "XSBench"));

// ---------------------------------------------------------------------
// Execute-path fast paths (cu/probes.hh) against their sort-based
// reference implementations: the probe rewrite is only admissible if
// the statistics it feeds are bit-identical.
// ---------------------------------------------------------------------

namespace
{

/** xorshift64: deterministic across platforms, no <random> variance. */
struct XorShift
{
    uint64_t s;
    uint64_t
    next()
    {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        return s;
    }
};

unsigned
refUniqueCount(const uint32_t *lanes, uint64_t mask)
{
    std::vector<uint32_t> vals;
    for (unsigned lane = 0; lane < 64; ++lane)
        if (mask & (1ull << lane))
            vals.push_back(lanes[lane]);
    std::sort(vals.begin(), vals.end());
    vals.erase(std::unique(vals.begin(), vals.end()), vals.end());
    return unsigned(vals.size());
}

std::vector<Addr>
refCoalesce(const std::vector<Addr> &lane_addrs, uint64_t mask,
            uint64_t bytes_per_lane)
{
    std::vector<Addr> lines;
    for (unsigned lane = 0; lane < 64; ++lane) {
        if (!(mask & (1ull << lane)))
            continue;
        Addr first = lane_addrs[lane] / 64;
        Addr last = (lane_addrs[lane] + bytes_per_lane - 1) / 64;
        lines.push_back(first);
        if (last != first)
            lines.push_back(last);
    }
    std::sort(lines.begin(), lines.end());
    lines.erase(std::unique(lines.begin(), lines.end()), lines.end());
    return lines;
}

} // namespace

TEST(ProbeFastPaths, HashUniqCountMatchesSortReference)
{
    cu::LaneUniqCounter counter;
    XorShift rng{0x5eed5eedull};
    for (int iter = 0; iter < 2000; ++iter) {
        uint64_t mask = rng.next();
        switch (iter % 5) {
          case 0: mask = ~0ull; break;                    // full WF
          case 1: mask = 0; break;                        // all inactive
          case 2: mask &= 0xffull; break;                 // partial WF
          case 3: mask = 1ull << (rng.next() % 64); break; // single lane
          default: break;                                  // random
        }
        uint32_t lanes[64];
        // Mix duplicate-heavy (small value range) and unique-heavy
        // patterns: both matter for an open-addressed counter.
        uint32_t range = (iter % 2) ? 8 : 0xffffffffu;
        for (auto &v : lanes)
            v = uint32_t(rng.next()) & range;
        EXPECT_EQ(counter.count(lanes, mask),
                  refUniqueCount(lanes, mask))
            << "iter " << iter << " mask " << mask;
    }
}

TEST(ProbeFastPaths, HashUniqCountSurvivesCollisionClusters)
{
    // Random rows almost never collide in a sparse table, so build
    // rows that do: a value v hashes to v * 0x9e3779b9, so v =
    // (top | j) * Inverse hashes to top | j. With top's high 26 bits
    // all ones (or all zeros, or only the first set), up to 64
    // distinct values share the last (first, middle) home slot at
    // every table size up to 2^26 slots, and the last slot's cluster
    // probes across the table end to slot 0.
    constexpr uint32_t Inverse = 0x144cbc89u; // 0x9e3779b9 * this == 1
    static_assert(uint32_t(0x9e3779b9u * Inverse) == 1u);
    const uint32_t tops[] = {0xffffffc0u, 0u, 0x80000000u};
    auto homed = [&](unsigned cluster, uint32_t j) {
        return (tops[cluster] | j) * Inverse;
    };
    cu::LaneUniqCounter counter;
    XorShift rng{0xc011de5ull};
    for (int iter = 0; iter < 3000; ++iter) {
        uint64_t mask = rng.next();
        switch (iter % 4) {
          case 0:
          case 1: mask = ~0ull; break;                    // full WF
          case 2: mask &= rng.next(); break;               // partial WF
          default: mask = 1ull << (rng.next() % 64); break; // single lane
        }
        // 64 distinct values per cluster fill its whole run; 8 and 2
        // mix in duplicates. One cluster is always the wrapping one.
        const uint32_t spread = (iter / 4) % 3 == 0   ? 64
                                : (iter / 4) % 3 == 1 ? 8
                                                      : 2;
        const unsigned clusters = 1 + unsigned(rng.next() % 3);
        uint32_t lanes[64];
        if (spread == 64 && clusters == 1) {
            // All 64 values of the wrapping cluster, shuffled.
            uint32_t perm[64];
            for (uint32_t j = 0; j < 64; ++j)
                perm[j] = j;
            for (unsigned j = 63; j > 0; --j)
                std::swap(perm[j], perm[rng.next() % (j + 1)]);
            for (unsigned l = 0; l < 64; ++l)
                lanes[l] = homed(0, perm[l]);
        } else {
            for (auto &v : lanes)
                v = homed(unsigned(rng.next() % clusters),
                          uint32_t(rng.next() % spread));
        }
        EXPECT_EQ(counter.count(lanes, mask),
                  refUniqueCount(lanes, mask))
            << "iter " << iter << " mask " << mask;
    }
}

TEST(ProbeFastPaths, CtzIterationVisitsExactlyTheMaskAscending)
{
    XorShift rng{0xabcdull};
    for (int iter = 0; iter < 500; ++iter) {
        uint64_t mask = rng.next() & rng.next(); // sparse-ish
        std::vector<unsigned> ref, got;
        for (unsigned lane = 0; lane < 64; ++lane)
            if (mask & (1ull << lane))
                ref.push_back(lane);
        for (uint64_t m = mask; m; m &= m - 1)
            got.push_back(unsigned(findLsb(m)));
        EXPECT_EQ(got, ref);
    }
}

TEST(ProbeFastPaths, InsertionCoalescingMatchesSortReference)
{
    XorShift rng{0xc0a1e5ceull};
    for (int iter = 0; iter < 2000; ++iter) {
        uint64_t mask = rng.next();
        if (iter % 4 == 0)
            mask = ~0ull;
        uint64_t bytes_per_lane = 1ull << (rng.next() % 4); // 1..8
        std::vector<Addr> lane_addrs(64);
        // Unit-stride, strided, and scattered access patterns.
        Addr base = rng.next() % 0x10000;
        uint64_t stride = (iter % 3 == 0)   ? bytes_per_lane
                          : (iter % 3 == 1) ? 64 * (rng.next() % 4 + 1)
                                            : 0;
        for (unsigned lane = 0; lane < 64; ++lane)
            lane_addrs[lane] = stride
                                   ? base + lane * stride
                                   : base + (rng.next() % 0x4000);

        // The production loop: ctz lane visit + bounded insertion.
        Addr lines[2 * 64];
        unsigned n = 0;
        for (uint64_t m = mask; m; m &= m - 1) {
            unsigned lane = unsigned(findLsb(m));
            Addr first = lane_addrs[lane] / 64;
            Addr last = (lane_addrs[lane] + bytes_per_lane - 1) / 64;
            n = cu::insertLineSorted(lines, n, first);
            if (last != first)
                n = cu::insertLineSorted(lines, n, last);
        }

        auto ref = refCoalesce(lane_addrs, mask, bytes_per_lane);
        ASSERT_EQ(n, ref.size()) << "iter " << iter;
        for (unsigned i = 0; i < n; ++i)
            EXPECT_EQ(lines[i], ref[i]) << "iter " << iter << " i " << i;
    }
}

TEST(ProbeFastPaths, UniquenessMemoFollowsMasksAndRewrites)
{
    // One PTXL wavefront reads R2 twice under one mask, under a
    // narrower mask after divergence, after a VALU rewrite, and after
    // an LDC (an SMem op, so no def probe) rewrites it between two
    // reads under one mask. Every read and write sample is known by
    // hand; a memo entry that outlives a write shows as a stale count.
    using ptxl::PtxlInst;
    using hsail::DataType;
    using hsail::Opcode;
    const hsail::Reg r0{0}, r1{1}, r2{2}, r3{3};
    const DataType u32 = DataType::U32;
    arch::KernelCode code(IsaKind::PTXL, "uniq_memo");
    auto emit = [&](PtxlInst *i) {
        code.append(std::unique_ptr<arch::Instruction>(i));
    };
    emit(PtxlInst::s2r(Opcode::WorkItemId, r0));            // R0 = lane
    emit(PtxlInst::movImm(u32, r1, 3));
    emit(PtxlInst::alu(Opcode::Shr, u32, r2, r0, r1));      // 8 values
    emit(PtxlInst::alu(Opcode::Mov, u32, r3, r2));          // read 1
    emit(PtxlInst::alu(Opcode::Mov, u32, r3, r2));          // read 2
    emit(PtxlInst::movImm(u32, r1, 32));
    emit(PtxlInst::bssy(0));
    emit(PtxlInst::isetp(hsail::CmpOp::Lt, u32, 0, r0, r1)); // lanes < 32
    emit(PtxlInst::braIf(0, true, 10));
    emit(PtxlInst::alu(Opcode::Mov, u32, r3, r2));          // 32 lanes
    emit(PtxlInst::bsync(0));                               // index 10
    emit(PtxlInst::alu(Opcode::And, u32, r2, r0, r1));      // 2 values
    emit(PtxlInst::alu(Opcode::Mov, u32, r3, r2));
    emit(PtxlInst::ld(hsail::Segment::Kernarg, u32, r2, {}, 0)); // 1 value
    emit(PtxlInst::alu(Opcode::Mov, u32, r3, r2));
    emit(PtxlInst::exitProgram());
    code.seal();
    code.vregsUsed = 4;
    code.kernargBytes = 4;

    runtime::Runtime rt;
    uint32_t arg = 0x1234;
    rt.dispatch(code, 64, 64, &arg, sizeof arg);

    auto mean = [](const std::vector<double> &v) {
        double sum = 0;
        for (double x : v)
            sum += x;
        return sum / double(v.size());
    };
    const double all = 64, half = 32;
    // Reads in issue order: SHR (R0, R1), the two full-mask MOVs,
    // ISETP (R0, R1), the divergent MOV, AND (R0, R1), then R2 after
    // the AND and after the LDC.
    const std::vector<double> reads = {
        64 / all, 1 / all, 8 / all, 8 / all, 64 / all, 1 / all,
        4 / half, 64 / all, 1 / all, 2 / all, 1 / all};
    // Writes: S2R, MOV #3, SHR, two MOVs, MOV #32, the divergent MOV,
    // AND and the two MOVs after it.
    const std::vector<double> writes = {
        64 / all, 1 / all, 8 / all, 8 / all, 8 / all, 1 / all,
        4 / half, 2 / all, 2 / all, 1 / all};
    unsigned probed = 0;
    for (unsigned c = 0; c < rt.gpu().numCus(); ++c) {
        const auto &cu = rt.gpu().computeUnit(c);
        if (!cu.vrfReadUniq.samples())
            continue;
        ++probed;
        EXPECT_EQ(cu.vrfReadUniq.samples(), reads.size());
        EXPECT_DOUBLE_EQ(cu.vrfReadUniq.value(), mean(reads));
        EXPECT_EQ(cu.vrfWriteUniq.samples(), writes.size());
        EXPECT_DOUBLE_EQ(cu.vrfWriteUniq.value(), mean(writes));
    }
    EXPECT_EQ(probed, 1u);
}
