/**
 * @file
 * Parameterized property sweeps:
 *  - GCN3 VALU semantics against host arithmetic over an operand grid;
 *  - nested control-flow structures execute identically on both ISAs;
 *  - per-workload abstraction-gap invariants (the paper's qualitative
 *    claims as assertions).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <vector>

#include "cu/probes.hh"
#include "finalizer/finalizer.hh"
#include "finalizer/regalloc.hh"
#include "gcn3/inst.hh"
#include "helpers.hh"
#include "runtime/runtime.hh"
#include "sim/parallel.hh"

using namespace last;

// ---------------------------------------------------------------------
// GCN3 VALU semantics sweep.
// ---------------------------------------------------------------------

namespace
{

struct ValuCase
{
    const char *name;
    gcn3::Gcn3Op op;
    uint32_t a, b;
    uint32_t expect;
};

// Without a printer gtest lists each case by its raw bytes, which hold
// the address of `name`. That address moves with ASLR, so the ctest
// names gtest_discover_tests records would change on every build.
void PrintTo(const ValuCase &c, std::ostream *os) { *os << c.name; }

uint32_t f2b(float f) { return std::bit_cast<uint32_t>(f); }

const ValuCase valuCases[] = {
    {"add_small", gcn3::Gcn3Op::V_ADD_U32, 3, 4, 7},
    {"add_wrap", gcn3::Gcn3Op::V_ADD_U32, 0xffffffffu, 2, 1},
    {"sub", gcn3::Gcn3Op::V_SUB_U32, 10, 3, 7},
    {"sub_borrow", gcn3::Gcn3Op::V_SUB_U32, 1, 3, 0xfffffffeu},
    {"mul_lo", gcn3::Gcn3Op::V_MUL_LO_U32, 100000, 100000,
     uint32_t(100000ull * 100000ull)},
    {"mul_hi", gcn3::Gcn3Op::V_MUL_HI_U32, 0x80000000u, 8, 4},
    {"and", gcn3::Gcn3Op::V_AND_B32, 0xff00ff00u, 0x0ff00ff0u,
     0x0f000f00u},
    {"or", gcn3::Gcn3Op::V_OR_B32, 0xf0u, 0x0fu, 0xffu},
    {"xor", gcn3::Gcn3Op::V_XOR_B32, 0xaaaau, 0xffffu, 0x5555u},
    {"lshl_rev", gcn3::Gcn3Op::V_LSHLREV_B32, 4, 3, 48},
    {"lshr_rev", gcn3::Gcn3Op::V_LSHRREV_B32, 4, 48, 3},
    {"ashr_rev", gcn3::Gcn3Op::V_ASHRREV_I32, 2, 0x80000000u,
     0xe0000000u},
    {"min_u", gcn3::Gcn3Op::V_MIN_U32, 5, 9, 5},
    {"max_u", gcn3::Gcn3Op::V_MAX_U32, 5, 9, 9},
    {"min_i", gcn3::Gcn3Op::V_MIN_I32, uint32_t(-4), 3, uint32_t(-4)},
    {"max_i", gcn3::Gcn3Op::V_MAX_I32, uint32_t(-4), 3, 3},
    {"add_f32", gcn3::Gcn3Op::V_ADD_F32, f2b(1.5f), f2b(2.25f),
     f2b(3.75f)},
    {"mul_f32", gcn3::Gcn3Op::V_MUL_F32, f2b(3.0f), f2b(-2.0f),
     f2b(-6.0f)},
    {"min_f32", gcn3::Gcn3Op::V_MIN_F32, f2b(3.0f), f2b(-2.0f),
     f2b(-2.0f)},
    {"max_f32", gcn3::Gcn3Op::V_MAX_F32, f2b(3.0f), f2b(-2.0f),
     f2b(3.0f)},
};

class Gcn3ValuSweep : public ::testing::TestWithParam<ValuCase>
{
};

} // namespace

TEST_P(Gcn3ValuSweep, MatchesHostSemantics)
{
    const ValuCase &c = GetParam();
    mem::FunctionalMemory m;
    arch::WfState st;
    st.isa = IsaKind::GCN3;
    st.memory = &m;
    st.vregs.assign(8, arch::LaneVec{});
    st.initLaunch(~0ull);
    for (unsigned lane = 0; lane < 64; ++lane) {
        st.writeVreg(1, lane, c.a);
        st.writeVreg(2, lane, c.b);
    }
    std::unique_ptr<gcn3::Gcn3Inst> inst(gcn3::Gcn3Inst::vop2(
        c.op, gcn3::Dst::vgpr(3), gcn3::Src::vgpr(1),
        gcn3::Src::vgpr(2)));
    inst->execute(st);
    EXPECT_EQ(st.readVreg(3, 0), c.expect) << c.name;
    EXPECT_EQ(st.readVreg(3, 63), c.expect) << c.name;
}

INSTANTIATE_TEST_SUITE_P(Ops, Gcn3ValuSweep,
                         ::testing::ValuesIn(valuCases),
                         [](const auto &info) {
                             return std::string(info.param.name);
                         });

// ---------------------------------------------------------------------
// Nested control-flow structures: both ISAs, identical results.
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
          default:
            break;
        }

        Val off = kb.cvt(DataType::U64, kb.mul(gid, kb.immU32(4)));
        kb.stGlobal(acc, kb.add(kb.immU64(out), off));
        return kb.build();
    }
};

} // namespace

TEST_P(ControlShapeSweep, BothIsasAgree)
{
    constexpr Addr out = 0x40000;
    constexpr unsigned grid = 256;
    std::vector<uint32_t> results[2];
    int k = 0;
    for (IsaKind isa : {IsaKind::HSAIL, IsaKind::GCN3}) {
        runtime::Runtime rt;
        auto il = makeKernel(GetParam(), out);
        finalizer::compactIlRegisters(il);
        std::unique_ptr<arch::KernelCode> gcn;
        arch::KernelCode *code = il.code.get();
        if (isa == IsaKind::GCN3) {
            gcn = finalizer::finalize(il, rt.config());
            code = gcn.get();
        }
        rt.dispatch(*code, grid, 256, nullptr, 0);
        results[k].resize(grid);
        rt.readGlobal(out, results[k].data(), grid * 4);
        EXPECT_EQ(rt.gpu().sumCuStat("hazardViolations"), 0.0);
        ++k;
    }
    EXPECT_EQ(results[0], results[1]) << "shape " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Shapes, ControlShapeSweep,
                         ::testing::Range(0, 5));

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
