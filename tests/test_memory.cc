/** @file Unit tests for functional memory, caches, DRAM, and LDS. */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <set>
#include <tuple>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/config.hh"
#include "common/error.hh"
#include "memory/cache.hh"
#include "memory/dram.hh"
#include "memory/functional_memory.hh"
#include "memory/lds.hh"

using namespace last;
using namespace last::mem;

TEST(FunctionalMemory, ReadWriteRoundTrip)
{
    FunctionalMemory m;
    m.write<uint32_t>(0x1000, 0xdeadbeef);
    EXPECT_EQ(m.read<uint32_t>(0x1000), 0xdeadbeefu);
    m.write<double>(0x2000, 3.25);
    EXPECT_DOUBLE_EQ(m.read<double>(0x2000), 3.25);
}

TEST(FunctionalMemory, UnwrittenReadsZero)
{
    FunctionalMemory m;
    EXPECT_EQ(m.read<uint64_t>(0x98765), 0u);
}

TEST(FunctionalMemory, CrossPageAccess)
{
    FunctionalMemory m;
    uint64_t v = 0x1122334455667788ull;
    m.write(4096 - 4, &v, 8); // straddles a page boundary
    uint64_t got = 0;
    m.read(4096 - 4, &got, 8);
    EXPECT_EQ(got, v);
    EXPECT_GE(m.numPages(), 2u);
}

TEST(FunctionalMemory, FootprintCountsLines)
{
    FunctionalMemory m;
    EXPECT_EQ(m.footprintLines(), 0u);
    m.write<uint32_t>(0, 1);
    m.write<uint32_t>(4, 1); // same 64 B line
    EXPECT_EQ(m.footprintLines(), 1u);
    m.write<uint32_t>(64, 1);
    EXPECT_EQ(m.footprintLines(), 2u);
    m.read<uint32_t>(640); // reads count too
    EXPECT_EQ(m.footprintLines(), 3u);
    m.resetFootprint();
    EXPECT_EQ(m.footprintLines(), 0u);
    EXPECT_EQ(m.read<uint32_t>(0), 1u); // contents survive
}

TEST(FunctionalMemory, LaneAccessesMatchByteModel)
{
    // One seeded stream of 1-, 4-, 8- and 16-byte reads and writes,
    // checked after every operation against a byte map (absent bytes
    // read 0), the set of 64 B lines touched since the last
    // resetFootprint, and the set of pages written. The stream slides
    // over fresh pages (so a page is read while absent, then written
    // and re-read), crosses page ends, resets the footprint twice,
    // and works in the last pages below 2^48, crossing that limit.
    constexpr Addr Page = FunctionalMemory::PageBytes;
    constexpr Addr Top = FunctionalMemory::AddrSpaceBytes;
    const size_t sizes[] = {1, 4, 8, 16};
    FunctionalMemory m;
    std::map<Addr, uint8_t> bytes;
    std::set<Addr> lines, pages;
    std::mt19937_64 rng(0xb17e5);
    unsigned errors = 0, crossings = 0, absent_reads = 0;
    for (unsigned step = 0; step < 30000; ++step) {
        if (step == 10000 || step == 20000) {
            m.resetFootprint();
            lines.clear();
        }
        const size_t len = sizes[rng() % 4];
        Addr page = rng() % 16 == 0 ? Top / Page - 1 - rng() % 2
                                    : 0x100 + step / 100 + rng() % 3;
        Addr off = rng() % 4 == 0 ? Page - 1 - rng() % 20 : rng() % Page;
        Addr addr = page * Page + off;
        const bool is_write = rng() % 3 == 0;
        SCOPED_TRACE(testing::Message()
                     << "step " << step << (is_write ? " write " : " read ")
                     << len << " B at 0x" << std::hex << addr);

        uint8_t buf[16], want[16];
        for (size_t i = 0; i < len; ++i) {
            buf[i] = uint8_t(rng());
            auto it = bytes.find(addr + i);
            want[i] = it == bytes.end() ? 0 : it->second;
        }
        const bool fits = addr + len <= Top;
        if (fits && !is_write && !pages.count(addr / Page))
            ++absent_reads;
        if (fits && addr / Page != (addr + len - 1) / Page)
            ++crossings;
        try {
            if (is_write)
                m.write(addr, buf, len);
            else
                m.read(addr, buf, len);
            ASSERT_TRUE(fits) << "no MemoryError past 2^48";
        } catch (const MemoryError &e) {
            ASSERT_FALSE(fits) << e.what();
            EXPECT_EQ(e.faultAddr, addr);
            EXPECT_EQ(e.accessSize, len);
            EXPECT_EQ(e.isWrite, is_write);
            ++errors;
        }
        if (fits) {
            for (size_t i = 0; i < len; ++i) {
                if (is_write)
                    bytes[addr + i] = buf[i];
                else
                    ASSERT_EQ(buf[i], want[i]) << "byte " << i;
                lines.insert((addr + i) / 64);
                if (is_write)
                    pages.insert((addr + i) / Page);
            }
        }
        ASSERT_EQ(m.footprintLines(), lines.size());
        ASSERT_EQ(m.numPages(), pages.size());
    }
    // The stream reached every case it claims to.
    EXPECT_GT(errors, 20u);
    EXPECT_GT(crossings, 100u);
    EXPECT_GT(absent_reads, 100u);
}

namespace
{

/** Fixed-latency backing level for cache tests. */
class FakeNext : public MemLevel
{
  public:
    Cycle
    access(Addr, bool is_write, Cycle now) override
    {
        ++accesses;
        if (is_write)
            ++writes;
        return now + 100;
    }
    unsigned accesses = 0;
    unsigned writes = 0;
};

CacheConfig
smallCache()
{
    return {1024, 64, 2, 4, false, 4};
}

} // namespace

TEST(Cache, HitAfterMiss)
{
    stats::Group root("root");
    FakeNext next;
    Cache c("l1", smallCache(), &next, &root);
    Cycle t1 = c.access(0x100, false, 0);
    EXPECT_GT(t1, 100u); // miss went to the next level
    EXPECT_EQ(c.misses.value(), 1.0);
    Cycle t2 = c.access(0x104, false, Cycle(t1));
    EXPECT_EQ(t2, t1 + 4); // same-line hit at hit latency
    EXPECT_EQ(c.hits.value(), 1.0);
    EXPECT_TRUE(c.isCached(0x100));
}

TEST(Cache, MshrMergesOutstandingMisses)
{
    stats::Group root("root");
    FakeNext next;
    Cache c("l1", smallCache(), &next, &root);
    Cycle t1 = c.access(0x200, false, 0);
    Cycle t2 = c.access(0x220, false, 1); // same line, still in flight
    EXPECT_EQ(t2, t1);
    EXPECT_EQ(next.accesses, 1u);
    // After the fill completes, accesses hit at hit latency again.
    Cycle t3 = c.access(0x200, false, t1 + 1);
    EXPECT_EQ(t3, t1 + 1 + 4);
}

TEST(Cache, LruEviction)
{
    stats::Group root("root");
    FakeNext next;
    // 2-way, 64 B lines, 1 kB => 8 sets. Three lines in one set.
    Cache c("l1", smallCache(), &next, &root);
    Addr set_stride = 8 * 64;
    c.access(0 * set_stride, false, 1000);
    c.access(1 * set_stride, false, 2000);
    c.access(2 * set_stride, false, 3000); // evicts the first
    EXPECT_FALSE(c.isCached(0));
    EXPECT_TRUE(c.isCached(1 * set_stride));
    EXPECT_TRUE(c.isCached(2 * set_stride));
}

TEST(Cache, WriteThroughForwards)
{
    stats::Group root("root");
    FakeNext next;
    Cache c("l1", smallCache(), &next, &root);
    c.access(0x40, false, 0);
    unsigned before = next.writes;
    c.access(0x40, true, 500);
    EXPECT_EQ(next.writes, before + 1);
}

TEST(Cache, WriteBackDefersAndEvictsDirty)
{
    stats::Group root("root");
    FakeNext next;
    CacheConfig cfg = smallCache();
    cfg.writeBack = true;
    Cache c("l1", cfg, &next, &root);
    c.access(0x40, true, 0);
    EXPECT_EQ(next.writes, 0u); // dirty in cache, no write-through
    // Force eviction of the dirty line.
    Addr set_stride = 8 * 64;
    c.access(0x40 + set_stride, false, 1000);
    c.access(0x40 + 2 * set_stride, false, 2000);
    EXPECT_EQ(c.writebacks.value(), 1.0);
    EXPECT_EQ(next.writes, 1u);
}

TEST(Cache, FullyAssociativeConfig)
{
    stats::Group root("root");
    FakeNext next;
    CacheConfig cfg{16 * 1024, 64, 0, 4, true, 16};
    Cache c("l1d", cfg, &next, &root);
    // 256 distinct lines all fit.
    for (unsigned i = 0; i < 256; ++i)
        c.access(Addr(i) * 64, false, i * 200);
    for (unsigned i = 0; i < 256; ++i)
        EXPECT_TRUE(c.isCached(Addr(i) * 64));
}

TEST(Cache, InvalidateAll)
{
    stats::Group root("root");
    FakeNext next;
    Cache c("l1", smallCache(), &next, &root);
    c.access(0x40, false, 0);
    c.invalidateAll();
    EXPECT_FALSE(c.isCached(0x40));
}

namespace
{

/** Next level that logs every access and answers after a latency that
 *  varies with the line, so fills complete out of order. */
class LogNext : public MemLevel
{
  public:
    Cycle
    access(Addr addr, bool is_write, Cycle now) override
    {
        log.emplace_back(addr, is_write, now);
        return now + 20 + (addr / 64) % 13;
    }
    std::vector<std::tuple<Addr, bool, Cycle>> log;
};

/**
 * The cache as it was before the recency list: an array-of-structs
 * set scan for the tag, the first invalid way or else the strict
 * minimum lastUse (lowest way on ties) as the victim, lazily retired
 * MSHRs that serialize behind the latest outstanding fill when all
 * are busy, and a writeback of a dirty victim.
 */
class ScanCache
{
  public:
    ScanCache(const CacheConfig &cfg, MemLevel *next) : cfg(cfg), next(next)
    {
        uint64_t lines = cfg.sizeBytes / cfg.lineBytes;
        ways = cfg.associativity ? cfg.associativity : unsigned(lines);
        sets = unsigned(lines / ways);
        way.resize(lines);
    }

    Cycle
    access(Addr addr, bool is_write, Cycle now)
    {
        Addr la = addr / cfg.lineBytes;
        auto mshr = mshrs.find(la);
        if (mshr != mshrs.end() && mshr->second <= now)
            mshrs.erase(mshr), mshr = mshrs.end();
        Way *set = &way[size_t(la % sets) * ways];
        Way *line = nullptr;
        for (unsigned w = 0; w < ways; ++w)
            if (set[w].valid && set[w].tag == la)
                line = &set[w];
        Cycle done;
        if (line) {
            ++hits;
            line->lastUse = now;
            if (is_write) {
                if (cfg.writeBack)
                    line->dirty = true;
                else
                    next->access(addr, true, now);
            }
            done = now + cfg.hitLatency;
            if (mshr != mshrs.end())
                done = std::max(done, mshr->second);
        } else if (mshr != mshrs.end()) {
            ++mshrMerges;
            done = mshr->second;
            if (is_write && !cfg.writeBack)
                next->access(addr, true, now);
        } else {
            ++misses;
            Cycle fill = next->access(addr, false, now) + cfg.hitLatency;
            if (mshrs.size() >= cfg.mshrs) {
                Cycle latest = 0;
                for (const auto &kv : mshrs)
                    latest = std::max(latest, kv.second);
                fill = std::max(fill, latest) + 1;
            }
            mshrs[la] = fill;
            Way *victim = nullptr;
            for (unsigned w = 0; w < ways && !victim; ++w)
                if (!set[w].valid)
                    victim = &set[w];
            if (!victim) {
                victim = &set[0];
                for (unsigned w = 1; w < ways; ++w)
                    if (set[w].lastUse < victim->lastUse)
                        victim = &set[w];
                if (victim->dirty) {
                    ++writebacks;
                    next->access(victim->tag * cfg.lineBytes, true, now);
                }
                present.erase(victim->tag);
            }
            *victim = {true, la, now, is_write && cfg.writeBack};
            present.insert(la);
            if (is_write && !cfg.writeBack)
                next->access(addr, true, now);
            done = fill;
        }
        return done;
    }

    bool
    isCached(Addr addr) const
    {
        return present.count(addr / cfg.lineBytes);
    }

    unsigned sets = 0, ways = 0;
    double hits = 0, misses = 0, mshrMerges = 0, writebacks = 0;

  private:
    struct Way
    {
        bool valid = false;
        Addr tag = 0;
        Cycle lastUse = 0;
        bool dirty = false;
    };

    CacheConfig cfg;
    MemLevel *next;
    std::vector<Way> way;
    std::unordered_map<Addr, Cycle> mshrs;
    std::unordered_set<Addr> present; ///< line addrs, for isCached
};

enum class TimeOrder { Monotone, Tied, OutOfOrder };

/**
 * Drive a Cache and a ScanCache with one random stream of reads and
 * writes over a few sets, each holding 1.5x its ways, and compare
 * them after every access: the returned cycle, the four counters and
 * isCached for every line touched so far.
 */
void
checkAgainstScan(const CacheConfig &cfg, TimeOrder order, uint64_t seed,
                 unsigned steps)
{
    stats::Group root("root");
    LogNext next, ref_next;
    Cache c("c", cfg, &next, &root);
    ScanCache ref(cfg, &ref_next);
    SCOPED_TRACE(testing::Message() << ref.ways << " ways, time order "
                                    << int(order) << ", seed " << seed);

    unsigned used_sets = std::min(ref.sets, 4u);
    unsigned per_set = ref.ways + ref.ways / 2 + 2;
    std::mt19937_64 rng(seed);
    std::vector<Addr> touched;
    std::unordered_set<Addr> seen;
    Cycle now = 1000, base = 1000;
    for (unsigned step = 0; step < steps; ++step) {
        switch (order) {
          case TimeOrder::Monotone: now += rng() % 3; break;
          case TimeOrder::Tied: now += rng() % 8 == 0; break;
          case TimeOrder::OutOfOrder:
            base += 2;
            now = base - 40 + rng() % 80;
            break;
        }
        Addr line = rng() % used_sets + (rng() % per_set) * ref.sets;
        Addr addr = line * cfg.lineBytes + rng() % cfg.lineBytes;
        bool is_write = rng() % 4 == 0;
        if (seen.insert(line).second)
            touched.push_back(line * cfg.lineBytes);

        Cycle got = c.access(addr, is_write, now);
        Cycle want = ref.access(addr, is_write, now);
        ASSERT_EQ(got, want) << "step " << step;
        ASSERT_EQ(c.hits.value(), ref.hits) << "step " << step;
        ASSERT_EQ(c.misses.value(), ref.misses) << "step " << step;
        ASSERT_EQ(c.mshrMerges.value(), ref.mshrMerges) << "step " << step;
        ASSERT_EQ(c.writebacks.value(), ref.writebacks) << "step " << step;
        for (Addr a : touched) {
            ASSERT_EQ(c.isCached(a), ref.isCached(a))
                << "step " << step << " addr " << a;
        }
    }
    EXPECT_EQ(next.log, ref_next.log);
    // The stream must exercise every path it compares.
    EXPECT_GT(ref.hits, 0.0);
    EXPECT_GT(ref.misses, double(used_sets) * ref.ways);
    if (cfg.writeBack) {
        EXPECT_GT(ref.writebacks, 0.0);
    }
}

} // namespace

TEST(Cache, VictimOrderMatchesScanL1d)
{
    GpuConfig g;
    for (auto order :
         {TimeOrder::Monotone, TimeOrder::Tied, TimeOrder::OutOfOrder})
        checkAgainstScan(g.l1d, order, 11 + unsigned(order), 3000);
}

TEST(Cache, VictimOrderMatchesScanL2)
{
    GpuConfig g;
    for (auto order :
         {TimeOrder::Monotone, TimeOrder::Tied, TimeOrder::OutOfOrder})
        checkAgainstScan(g.l2, order, 21 + unsigned(order), 3000);
}

TEST(Cache, VictimOrderMatchesScanTwoWay)
{
    for (auto order :
         {TimeOrder::Monotone, TimeOrder::Tied, TimeOrder::OutOfOrder}) {
        checkAgainstScan(smallCache(), order, 31 + unsigned(order), 3000);
        CacheConfig wb = smallCache();
        wb.writeBack = true;
        checkAgainstScan(wb, order, 41 + unsigned(order), 3000);
    }
}

TEST(Dram, ChannelBandwidthSerializes)
{
    stats::Group root("root");
    GpuConfig cfg;
    cfg.dramChannels = 2;
    cfg.dramLatency = 100;
    cfg.dramCyclesPerLine = 10;
    Dram d("dram", cfg, &root);
    // Same channel: line addresses 0 and 2*64 both map to channel 0.
    Cycle t1 = d.access(0, false, 0);
    Cycle t2 = d.access(2 * 64, false, 0);
    EXPECT_EQ(t1, 100u);
    EXPECT_EQ(t2, 110u); // queued behind the first transfer
    // Different channel: no queueing.
    Cycle t3 = d.access(64, false, 0);
    EXPECT_EQ(t3, 100u);
    EXPECT_EQ(d.reads.value(), 3.0);
}

TEST(Lds, ReadWriteAndBounds)
{
    LdsBlock lds(256);
    lds.write32(0, 42);
    lds.write32(252, 7);
    EXPECT_EQ(lds.read32(0), 42u);
    EXPECT_EQ(lds.read32(252), 7u);
    lds.write32(300, 9); // out of bounds: ignored
    EXPECT_EQ(lds.read32(300), 0u);
}

TEST(Lds, ConflictPasses)
{
    std::array<Addr, 64> offs{};
    // All lanes hit distinct banks: one pass.
    for (unsigned l = 0; l < 64; ++l)
        offs[l] = (l % 32) * 4;
    EXPECT_EQ(LdsBlock::conflictPasses(offs, ~0ull), 2u); // 64/32 lanes
    // All lanes hit the same bank.
    for (unsigned l = 0; l < 64; ++l)
        offs[l] = 128 * l; // bank 0 every time
    EXPECT_EQ(LdsBlock::conflictPasses(offs, ~0ull), 64u);
    // Only one active lane.
    EXPECT_EQ(LdsBlock::conflictPasses(offs, 1ull), 1u);
}
