#include "helpers.hh"

#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "obs/divergence.hh"
#include "sim/shard.hh"

namespace last::test
{

using namespace hsail;

IlKernel
randomKernel(uint64_t seed)
{
    Rng rng(seed ^ 0xdecafbadull);
    KernelBuilder kb("random_" + std::to_string(seed));
    kb.setKernargBytes(16);

    Val in = kb.ldKernarg(DataType::U64, 0);
    Val out = kb.ldKernarg(DataType::U64, 8);
    Val gid = kb.workitemAbsId();
    Val off = kb.cvt(DataType::U64, kb.mul(gid, kb.immU32(4)));

    // Value pools.
    std::vector<Val> us{gid, kb.immU32(uint32_t(rng.next())),
                        kb.workitemId(), kb.workgroupId()};
    std::vector<Val> fs{
        kb.ldGlobal(DataType::F32, kb.add(in, off)),
        kb.immF32(float(rng.nextFloat()) + 0.25f),
        kb.cvt(DataType::F32, gid)};

    auto pickU = [&]() { return us[rng.nextBounded(us.size())]; };
    auto pickF = [&]() { return fs[rng.nextBounded(fs.size())]; };

    auto emitOne = [&]() {
        switch (rng.nextBounded(10)) {
          case 0: us.push_back(kb.add(pickU(), pickU())); break;
          case 1: us.push_back(kb.xor_(pickU(), pickU())); break;
          case 2:
            us.push_back(kb.shl(pickU(), kb.immU32(
                uint32_t(rng.nextBounded(8))))); break;
          case 3: us.push_back(kb.min_(pickU(), pickU())); break;
          case 4: fs.push_back(kb.add(pickF(), pickF())); break;
          case 5: fs.push_back(kb.mul(pickF(), pickF())); break;
          case 6:
            fs.push_back(kb.fma_(pickF(), pickF(), pickF()));
            break;
          case 7: {
            Val c = kb.cmp(CmpOp::Lt, pickU(), pickU());
            fs.push_back(kb.cmov(c, pickF(), pickF()));
            break;
          }
          case 8:
            fs.push_back(
                kb.div(pickF(), kb.max_(kb.abs_(pickF()),
                                        kb.immF32(0.5f))));
            break;
          case 9:
            us.push_back(kb.mulHi(pickU(), pickU()));
            break;
        }
    };

    unsigned body = 4 + unsigned(rng.nextBounded(8));
    for (unsigned i = 0; i < body; ++i)
        emitOne();

    // A divergent if (condition involves gid). A value defined under
    // divergent control must not escape its region (reading it from a
    // lane that skipped the write is undefined), so accumulate into a
    // pre-defined register and drop region-local values afterwards.
    if (rng.nextBounded(2)) {
        Val sink = kb.mov(pickF());
        size_t nu = us.size(), nf = fs.size();
        Val c = kb.cmp(CmpOp::Lt, kb.and_(gid, kb.immU32(7)),
                       kb.immU32(uint32_t(1 + rng.nextBounded(6))));
        kb.ifBegin(c);
        for (unsigned i = 0; i < 2 + rng.nextBounded(4); ++i)
            emitOne();
        kb.emitAluTo(Opcode::Add, sink, sink, pickF());
        if (rng.nextBounded(2)) {
            // The else path must not read then-path-only values.
            us.resize(nu);
            fs.resize(nf);
            kb.ifElse();
            for (unsigned i = 0; i < 1 + rng.nextBounded(3); ++i)
                emitOne();
            kb.emitAluTo(Opcode::Mul, sink, sink, pickF());
        }
        kb.ifEnd();
        us.resize(nu);
        fs.resize(nf);
        fs.push_back(sink);
    }

    // A bounded uniform loop with a loop-carried accumulator.
    {
        Val acc = kb.mov(pickF());
        Val i = kb.immU32(0);
        Val trip = kb.immU32(uint32_t(2 + rng.nextBounded(5)));
        Val one = kb.immU32(1);
        kb.doBegin();
        Val t = kb.mul(acc, kb.immF32(0.75f));
        kb.emitAluTo(Opcode::Add, acc, t, pickF());
        kb.emitAluTo(Opcode::Add, i, i, one);
        kb.doEnd(kb.cmp(CmpOp::Lt, i, trip));
        fs.push_back(acc);
    }

    // Optionally a divergent loop.
    if (rng.nextBounded(2)) {
        Val j = kb.and_(gid, kb.immU32(3));
        Val lim = kb.immU32(4);
        Val one = kb.immU32(1);
        Val acc = kb.mov(pickF());
        kb.doBegin();
        kb.emitAluTo(Opcode::Add, acc, acc, kb.immF32(1.5f));
        kb.emitAluTo(Opcode::Add, j, j, one);
        kb.doEnd(kb.cmp(CmpOp::Lt, j, lim));
        fs.push_back(acc);
    }

    // Combine and store.
    Val result = pickF();
    result = kb.add(result, kb.cvt(DataType::F32, pickU()));
    kb.stGlobal(result, kb.add(out, off));
    return kb.build();
}

void
expectSameResult(const sim::AppResult &a, const sim::AppResult &b)
{
    EXPECT_EQ(a.workload, b.workload);
    EXPECT_EQ(a.isa, b.isa);
    EXPECT_EQ(a.quarantined, b.quarantined);
    EXPECT_EQ(a.errorKind, b.errorKind);
    EXPECT_EQ(a.errorMessage, b.errorMessage);
    for (const sim::StatField &f : sim::kStatFields)
        sim::visitStat(
            f, [&f](auto x, auto y) { EXPECT_EQ(x, y) << f.name; }, a, b);
    ASSERT_EQ(a.launches.size(), b.launches.size());
    for (size_t i = 0; i < a.launches.size(); ++i) {
        EXPECT_EQ(a.launches[i].kernel, b.launches[i].kernel);
        EXPECT_EQ(a.launches[i].cycles, b.launches[i].cycles);
        EXPECT_EQ(a.launches[i].instsIssued, b.launches[i].instsIssued);
    }
}

std::string
cacheBytes(const sim::BenchCacheFile &cache)
{
    std::ostringstream os;
    sim::writeBenchCache(os, cache);
    return os.str();
}

std::string
divergenceBytes(const sim::BenchCacheFile &cache)
{
    std::ostringstream os;
    obs::writeDivergenceJsonArray(os, sim::divergenceFromCache(cache));
    return os.str();
}

std::array<GpuConfig, 2>
latencyConfigs()
{
    std::array<GpuConfig, 2> cfgs;
    GpuConfig &moved = cfgs[1];
    moved.valuLatency += 3;
    moved.valuLatencyF64 += 4;
    moved.saluLatency += 1;
    moved.branchLatency += 2;
    moved.ldsLatency += 2;
    moved.dramLatency += 100;
    return cfgs;
}

unsigned
table4Latency(arch::FuType fu, bool f64, unsigned cfg)
{
    using arch::FuType;
    const bool moved = cfg == 1;
    switch (fu) {
      case FuType::VAlu:
        return f64 ? (moved ? 12 : 8) : (moved ? 7 : 4);
      case FuType::SAlu: return moved ? 2 : 1;
      case FuType::Branch: return moved ? 3 : 1;
      case FuType::Lds: return moved ? 6 : 4;
      case FuType::VMem:
      case FuType::SMem: return 0; // the memory system times these
      case FuType::Special: return 1;
    }
    return ~0u;
}

} // namespace last::test
