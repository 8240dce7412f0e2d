/**
 * @file
 * Timing models for the cache hierarchy.
 *
 * These are stateful latency calculators: an access updates tags, LRU
 * state, and MSHR bookkeeping immediately and returns the absolute
 * cycle at which the data is available. The requester (the CU's memory
 * pipelines) schedules its own completion callback at that cycle. Same
 * fidelity class as the classic-cache style used by the simulators the
 * paper studies.
 */

#ifndef LAST_MEMORY_CACHE_HH
#define LAST_MEMORY_CACHE_HH

#include <cstdint>
#include <list>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/config.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "obs/trace.hh"

namespace last::mem
{

/** Anything that can serve a line-granularity timing access. */
class MemLevel
{
  public:
    virtual ~MemLevel() = default;

    /**
     * Perform a timing access for the line containing addr.
     *
     * @param addr byte address (the line containing it is accessed)
     * @param isWrite true for stores
     * @param now current cycle
     * @return absolute cycle when the access completes
     */
    virtual Cycle access(Addr addr, bool isWrite, Cycle now) = 0;
};

/**
 * A set-associative (or fully associative) cache with LRU replacement,
 * MSHR-based miss merging, and write-through or write-back policy.
 */
class Cache : public MemLevel, public stats::Group
{
  public:
    Cache(const std::string &name, const CacheConfig &cfg, MemLevel *next,
          stats::Group *statParent);

    Cycle access(Addr addr, bool isWrite, Cycle now) override;

    /** Drop all tags and MSHRs (between kernel launches in tests). */
    void invalidateAll();

    /** True if the line holding addr is present (for tests). */
    bool isCached(Addr addr) const;

    /**
     * Fault injection: perturb the completion time of demand accesses.
     * Starting with the first access at or after cycle `from`, the
     * next `count` accesses (0 = all of them) complete `extra` cycles
     * late. An `extra` beyond any watchdog budget models a response
     * that never arrives (sim::DroppedResponseLatency). Tags, MSHRs,
     * and hit/miss statistics are untouched — only the returned
     * completion cycle moves, exactly like a flaky interconnect.
     */
    void injectResponseFault(Cycle from, Cycle extra, unsigned count);

    /** Attach this cache's structured-trace stream (nullptr = off);
     *  demand misses are recorded as miss->fill spans. */
    void setTraceStream(obs::TraceStream *s) { trace = s; }

    stats::Scalar hits;
    stats::Scalar misses;
    stats::Scalar mshrMerges;
    stats::Scalar writebacks;
    stats::Scalar accessLatencyTotal; ///< sum over accesses, for mean

  private:
    /**
     * Tag/LRU state in structure-of-arrays layout. The paper's Table 4
     * L1D is fully associative (256 ways), so neither the tag probe
     * nor the victim pick may scan a set: tags are found through
     * `wayIndex` (below) when sets are wide, and the victim is the
     * head of the set's recency list. A per-set valid count makes the
     * first-invalid victim pick O(1). The decisions (hit way, victim
     * way, LRU order, tie-breaks) are bit-identical to the naive
     * array-of-structs scan.
     */
    static constexpr size_t NoWay = size_t(-1);

    Addr lineAddr(Addr addr) const { return addr >> lineShift; }
    unsigned setIndex(Addr line_addr) const;
    size_t findLine(Addr line_addr) const;
    size_t victimLine(unsigned set, Cycle now);
    void unlinkLru(size_t line);
    void linkLru(size_t line, unsigned set, Cycle now);

    CacheConfig cfg;
    MemLevel *next;
    obs::TraceStream *trace = nullptr;
    unsigned numSets;
    unsigned ways;
    /** @{ numSets x ways; tag == InvalidAddr encodes an invalid way.
     *  Valid ways always form a prefix of each set (fills take the
     *  first invalid way; only invalidateAll() clears them). */
    std::vector<Addr> tags;
    std::vector<Cycle> lastUse;
    std::vector<uint8_t> dirty;
    std::vector<unsigned> validCount; ///< per set
    /** @} */

    /**
     * Recency lists: each set's valid ways, circularly doubly linked
     * in ascending (lastUse, way) order through a per-set sentinel, so
     * the first entry is exactly the scan's victim — the strict
     * minimum lastUse, lowest way on ties. A touch relinks its line by
     * walking back from the last entry to the first one ordered before
     * (now, way). That walk is exact for any order of `now` and O(1)
     * when `now` never falls (the L1D: its one VMem pipe issues line i
     * at start + i); the shared L1I, SQC and L2 interleave callers,
     * and there it takes at most `ways` steps. Entries 0..lines-1 are
     * the lines; entry lines + s is set s's sentinel.
     */
    struct Link
    {
        uint32_t prev, next;
    };
    std::vector<Link> lru;
    uint32_t
    sentinel(unsigned set) const
    {
        return uint32_t(tags.size() + set);
    }

    /**
     * Exact line-addr -> way index, maintained iff the configuration
     * makes set scans expensive (the fully associative L1D has 256
     * ways; an early-exit tag scan cannot vectorize). The index always
     * mirrors `tags` exactly — insert on fill, erase on eviction — so
     * lookups return precisely what the scan would. Open-addressed
     * with linear probing and backward-shift deletion: the entry count
     * is bounded by the line count, so the table is sized once (4x
     * lines, power of two) and never rehashes.
     */
    class LineWayMap
    {
      public:
        void
        init(size_t num_lines)
        {
            shift = 63;
            while ((size_t(1) << (64 - shift)) < 4 * num_lines)
                --shift;
            slots.assign(size_t(1) << (64 - shift), {InvalidAddr, 0});
        }

        size_t
        find(Addr key, size_t miss) const
        {
            for (size_t i = home(key);; i = next(i)) {
                if (slots[i].key == key)
                    return slots[i].way;
                if (slots[i].key == InvalidAddr)
                    return miss;
            }
        }

        void
        insert(Addr key, size_t way)
        {
            size_t i = home(key);
            while (slots[i].key != InvalidAddr)
                i = next(i);
            slots[i] = {key, way};
        }

        void
        erase(Addr key)
        {
            size_t i = home(key);
            while (slots[i].key != key)
                i = next(i);
            // Backward-shift deletion keeps probe chains intact
            // without tombstones.
            for (size_t j = next(i);; j = next(j)) {
                if (slots[j].key == InvalidAddr)
                    break;
                size_t h = home(slots[j].key);
                // Move slots[j] into the hole iff its home position
                // lies outside (i, j] on the probe circle.
                if (((j - h) & mask()) >= ((j - i) & mask())) {
                    slots[i] = slots[j];
                    i = j;
                }
            }
            slots[i].key = InvalidAddr;
        }

        void
        clear()
        {
            for (auto &s : slots)
                s.key = InvalidAddr;
        }

      private:
        struct Slot
        {
            Addr key;
            size_t way;
        };

        size_t mask() const { return slots.size() - 1; }
        size_t next(size_t i) const { return (i + 1) & mask(); }
        size_t
        home(Addr key) const
        {
            return size_t(key * 0x9e3779b97f4a7c15ull >> shift);
        }

        std::vector<Slot> slots;
        unsigned shift = 63;
    };

    bool useWayIndex = false;
    LineWayMap wayIndex;

    /** @{ Fast address decomposition: lineBytes is asserted a power of
     *  two; numSets usually is one too (mask), with a modulo fallback
     *  for odd configurations. */
    unsigned lineShift = 0;
    bool setsPow2 = false;
    unsigned setMask = 0;
    /** @} */

    /** line addr -> cycle the fill completes. Entries retire lazily
     *  (only when the same line is touched after its fill), so the map
     *  holds many stale entries and the all-MSHRs-busy check fires on
     *  most misses once the footprint exceeds the MSHR count. */
    std::unordered_map<Addr, Cycle> mshrs;

    /** Cached max fill cycle over all `mshrs` entries, so the
     *  all-MSHRs-busy serialization does not rescan the map per miss.
     *  Invalidated (recomputed on next use) only when an entry holding
     *  the max value retires — rare, since retirement needs a re-touch
     *  after the fill completed. Values are exact at every query. */
    Cycle mshrMaxFill = 0;
    bool mshrMaxDirty = false;

    /** @{ Injected response fault (see injectResponseFault). */
    bool faultArmed = false;
    Cycle faultFrom = 0;
    Cycle faultExtra = 0;
    unsigned faultRemaining = 0; ///< 0 while armed = unlimited
    /** @} */
};

} // namespace last::mem

#endif // LAST_MEMORY_CACHE_HH
