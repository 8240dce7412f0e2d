#include "memory/cache.hh"

#include <algorithm>

#include "common/bitfield.hh"
#include "common/logging.hh"

namespace last::mem
{

Cache::Cache(const std::string &name, const CacheConfig &cfg_,
             MemLevel *next_, stats::Group *stat_parent)
    : stats::Group(name, stat_parent),
      hits(this, "hits", "demand hits"),
      misses(this, "misses", "demand misses"),
      mshrMerges(this, "mshrMerges", "misses merged into an MSHR"),
      writebacks(this, "writebacks", "dirty lines written back"),
      accessLatencyTotal(this, "accessLatencyTotal",
                         "sum of access latencies"),
      cfg(cfg_), next(next_)
{
    panic_if(!isPowerOf2(cfg.lineBytes), "line size must be a power of 2");
    uint64_t num_lines = cfg.sizeBytes / cfg.lineBytes;
    ways = cfg.associativity == 0 ? unsigned(num_lines)
                                  : cfg.associativity;
    numSets = unsigned(num_lines / ways);
    panic_if(numSets == 0, "cache too small for its associativity");
    tags.assign(size_t(numSets) * ways, InvalidAddr);
    lastUse.assign(size_t(numSets) * ways, 0);
    dirty.assign(size_t(numSets) * ways, 0);
    validCount.assign(numSets, 0);
    panic_if(num_lines + numSets > UINT32_MAX,
             "too many lines for the recency lists");
    lru.resize(num_lines + numSets);
    for (unsigned s = 0; s < numSets; ++s)
        lru[sentinel(s)] = {sentinel(s), sentinel(s)};
    useWayIndex = ways > 16;
    if (useWayIndex)
        wayIndex.init(num_lines);
    lineShift = unsigned(findLsb(cfg.lineBytes));
    setsPow2 = isPowerOf2(numSets);
    setMask = numSets - 1;
}

unsigned
Cache::setIndex(Addr line_addr) const
{
    return setsPow2 ? unsigned(line_addr) & setMask
                    : unsigned(line_addr % numSets);
}

size_t
Cache::findLine(Addr line_addr) const
{
    if (useWayIndex)
        return wayIndex.find(line_addr, NoWay);
    // A line address never collides with the InvalidAddr sentinel, so
    // one tag compare covers both the valid check and the match. Only
    // the valid prefix of the set can hold the tag.
    unsigned set = setIndex(line_addr);
    size_t base = size_t(set) * ways;
    const Addr *tag = tags.data() + base;
    unsigned n = validCount[set];
    for (unsigned w = 0; w < n; ++w)
        if (tag[w] == line_addr)
            return base + w;
    return NoWay;
}

size_t
Cache::victimLine(unsigned set, Cycle now)
{
    size_t base = size_t(set) * ways;
    // First invalid way wins; valid ways are a prefix, so it is just
    // the valid count.
    if (validCount[set] < ways)
        return base + validCount[set]++;
    // Full set: the LRU victim heads the recency list.
    size_t victim = lru[sentinel(set)].next;
    unlinkLru(victim);
    if (dirty[victim]) {
        // Account the writeback as bandwidth on the next level.
        ++writebacks;
        if (next)
            next->access(tags[victim] * cfg.lineBytes, true, now);
    }
    return victim;
}

void
Cache::unlinkLru(size_t line)
{
    const Link l = lru[line];
    lru[l.prev].next = l.next;
    lru[l.next].prev = l.prev;
}

void
Cache::linkLru(size_t line, unsigned set, Cycle now)
{
    lastUse[line] = now;
    // Walk back from the most recent entry to the first one ordered
    // before (now, line); line indices order like ways within a set.
    const uint32_t head = sentinel(set);
    uint32_t p = lru[head].prev;
    while (p != head &&
           (lastUse[p] > now || (lastUse[p] == now && p > line)))
        p = lru[p].prev;
    const uint32_t n = lru[p].next;
    lru[line] = {p, n};
    lru[p].next = lru[n].prev = uint32_t(line);
}

Cycle
Cache::access(Addr addr, bool is_write, Cycle now)
{
    Addr la = lineAddr(addr);
    unsigned set = setIndex(la);

    // Lazily retire MSHRs whose fill completed in the past.
    auto mshr = mshrs.find(la);
    if (mshr != mshrs.end() && mshr->second <= now) {
        if (mshr->second == mshrMaxFill)
            mshrMaxDirty = true;
        mshrs.erase(mshr), mshr = mshrs.end();
    }

    Cycle done;
    size_t line = findLine(la);
    if (line != NoWay) {
        ++hits;
        unlinkLru(line);
        linkLru(line, set, now);
        if (is_write) {
            if (cfg.writeBack) {
                dirty[line] = 1;
            } else if (next) {
                // Write-through: forward for bandwidth accounting; the
                // store completes at hit latency (store buffer).
                next->access(addr, true, now);
            }
        }
        done = now + cfg.hitLatency;
        // A hit on a line whose fill is still in flight cannot return
        // data before the fill arrives.
        if (mshr != mshrs.end())
            done = std::max(done, mshr->second);
    } else if (mshr != mshrs.end()) {
        // Miss on an already-outstanding line: merge.
        ++mshrMerges;
        done = mshr->second;
        if (is_write && !cfg.writeBack && next)
            next->access(addr, true, now);
    } else {
        ++misses;
        Cycle fill = next ? next->access(addr, false, now)
                          : now + cfg.hitLatency;
        fill += cfg.hitLatency;
        if (mshrs.size() >= cfg.mshrs) {
            // All MSHRs busy: serialize behind the soonest-finishing
            // outstanding miss.
            if (mshrMaxDirty) {
                mshrMaxFill = 0;
                for (const auto &kv : mshrs)
                    mshrMaxFill = std::max(mshrMaxFill, kv.second);
                mshrMaxDirty = false;
            }
            fill = std::max(fill, mshrMaxFill) + 1;
        }
        mshrs[la] = fill;
        if (!mshrMaxDirty)
            mshrMaxFill = std::max(mshrMaxFill, fill);
        size_t victim = victimLine(set, now);
        if (useWayIndex) {
            if (tags[victim] != InvalidAddr)
                wayIndex.erase(tags[victim]);
            wayIndex.insert(la, victim);
        }
        tags[victim] = la;
        dirty[victim] = 0;
        linkLru(victim, set, now);
        if (is_write) {
            if (cfg.writeBack)
                dirty[victim] = 1;
            else if (next)
                next->access(addr, true, now);
        }
        done = fill;
        if (trace)
            trace->emit(obs::TraceKind::CacheMiss, now, fill - now, addr,
                        is_write);
    }

    if (faultArmed && now >= faultFrom) {
        done += faultExtra;
        if (faultRemaining && --faultRemaining == 0)
            faultArmed = false;
    }

    accessLatencyTotal += double(done - now);
    return done;
}

void
Cache::injectResponseFault(Cycle from, Cycle extra, unsigned count)
{
    faultArmed = true;
    faultFrom = from;
    faultExtra = extra;
    faultRemaining = count;
}

void
Cache::invalidateAll()
{
    std::fill(tags.begin(), tags.end(), InvalidAddr);
    std::fill(lastUse.begin(), lastUse.end(), Cycle(0));
    std::fill(dirty.begin(), dirty.end(), uint8_t(0));
    std::fill(validCount.begin(), validCount.end(), 0u);
    for (unsigned s = 0; s < numSets; ++s)
        lru[sentinel(s)] = {sentinel(s), sentinel(s)};
    wayIndex.clear();
    mshrs.clear();
    mshrMaxFill = 0;
    mshrMaxDirty = false;
}

bool
Cache::isCached(Addr addr) const
{
    return findLine(lineAddr(addr)) != NoWay;
}

} // namespace last::mem
