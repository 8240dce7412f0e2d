/**
 * @file
 * Sparse, paged, byte-addressable functional memory with a
 * data-footprint probe.
 *
 * The footprint probe counts distinct 64 B lines ever touched; Table 6
 * of the paper compares this between the two ISAs (the interesting
 * cases are the private/spill segments, which the HSAIL runtime path
 * re-allocates per kernel launch while GCN3 reuses a per-process
 * arena).
 *
 * Hot-path notes: every active lane of every load, store and atomic
 * is one access, and consecutive lanes almost always stay inside one
 * 4096 B page. One page memo (the last page an access resolved: its
 * data, or nullptr while it is absent, and its footprint bitmap)
 * serves them inline from this header: an access of len >= 1 that
 * lies inside the memoized page copies its bytes (zeros on a read of
 * an absent page) and ORs its line bits into the page's bitmap. The
 * memo only ever holds a page that an earlier access reached through
 * checkRange, so every address in it is below 2^48 and such an access
 * cannot wrap. Everything else takes the one general out-of-line path
 * (readSlow/writeSlow): the first touch of a page, a page-crossing
 * access, len 0, a write to an absent page, the first access after
 * resetFootprint, and every error. The maps are node-based, so the
 * memoized pointers stay valid across rehashes. The footprint is kept
 * as one 64-bit touched-line bitmap per 4096 B page (64 lines of
 * 64 B) plus a running popcount, so footprintLines() is O(1).
 */

#ifndef LAST_MEMORY_FUNCTIONAL_MEMORY_HH
#define LAST_MEMORY_FUNCTIONAL_MEMORY_HH

#include <array>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <unordered_map>

#include "common/bitfield.hh"
#include "common/types.hh"

namespace last::mem
{

class FunctionalMemory
{
  public:
    static constexpr unsigned PageBytes = 4096;
    static constexpr unsigned LineBytes = 64;
    static constexpr unsigned LinesPerPage = PageBytes / LineBytes;

    /** Size of the simulated virtual address space (48-bit, like the
     *  canonical user half of x86-64/GCN). Accesses beyond it — or
     *  ones whose [addr, addr+len) range wraps the 64-bit space, the
     *  classic symptom of a negative-offset address-calculation bug —
     *  raise a MemoryError naming the address, size, and owner
     *  instead of silently growing the page map. */
    static constexpr Addr AddrSpaceBytes = Addr(1) << 48;

    /** Read len bytes at addr into buf. Unwritten memory reads 0.
     *  @throws MemoryError on out-of-range or wrap-around ranges. */
    void
    read(Addr addr, void *buf, size_t len)
    {
        const Addr off = addr % PageBytes;
        if (addr / PageBytes == memoVpn && insidePage(off, len)) {
            touchMemo(off, len);
            if (memoPage)
                std::memcpy(buf, memoPage->data() + off, len);
            else
                std::memset(buf, 0, len);
            return;
        }
        readSlow(addr, buf, len);
    }

    /** Write len bytes from buf at addr.
     *  @throws MemoryError on out-of-range or wrap-around ranges. */
    void
    write(Addr addr, const void *buf, size_t len)
    {
        const Addr off = addr % PageBytes;
        if (addr / PageBytes == memoVpn && memoPage &&
            insidePage(off, len)) {
            touchMemo(off, len);
            std::memcpy(memoPage->data() + off, buf, len);
            return;
        }
        writeSlow(addr, buf, len);
    }

    /** Label attached to MemoryErrors (the workload or test driving
     *  this memory); helps attribute faults inside a parallel sweep. */
    void setOwner(std::string who) { ownerLabel = std::move(who); }
    const std::string &owner() const { return ownerLabel; }

    template <typename T>
    T
    read(Addr addr)
    {
        T val;
        read(addr, &val, sizeof(T));
        return val;
    }

    template <typename T>
    void
    write(Addr addr, const T &val)
    {
        write(addr, &val, sizeof(T));
    }

    /** Distinct 64 B lines touched (reads + writes). */
    uint64_t footprintLines() const { return touchedLineCount; }
    uint64_t footprintBytes() const { return footprintLines() * LineBytes; }

    /** Forget footprint history (not contents). */
    void resetFootprint()
    {
        touchedMasks.clear();
        touchedLineCount = 0;
        memoVpn = InvalidAddr;
        memoPage = nullptr;
        memoLines = nullptr;
    }

    /** Number of resident pages (for tests). */
    size_t numPages() const { return pages.size(); }

  private:
    using Page = std::array<uint8_t, PageBytes>;

    void readSlow(Addr addr, void *buf, size_t len);
    void writeSlow(Addr addr, const void *buf, size_t len);
    void checkRange(Addr addr, size_t len, bool is_write) const;
    /** True iff len >= 1 and [off, off + len) lies inside one page
     *  (len 0 wraps len - 1 past any bound). */
    static bool
    insidePage(Addr off, size_t len)
    {
        return len - 1 < PageBytes - off;
    }

    /** Point the memo at page `vpn`, creating the page if `create`. */
    void memoize(Addr vpn, bool create);

    /** Mark the lines of [off, off + len) of the memoized page touched
     *  (len >= 1, off + len <= PageBytes). */
    void
    touchMemo(Addr off, size_t len)
    {
        const unsigned lo = unsigned(off / LineBytes);
        const unsigned hi = unsigned((off + len - 1) / LineBytes);
        const uint64_t lines = (~0ull >> (63 - hi)) & (~0ull << lo);
        const uint64_t added = lines & ~*memoLines;
        if (added) {
            *memoLines |= added;
            touchedLineCount += popCount(added);
        }
    }

    std::unordered_map<Addr, std::unique_ptr<Page>> pages;

    /** Per-page bitmap of 64 B lines ever touched + running count. */
    std::unordered_map<Addr, uint64_t> touchedMasks;
    uint64_t touchedLineCount = 0;

    /** @{ The page memo: the last page an access resolved, its data
     *  (nullptr while absent) and its touched-line bitmap.
     *  InvalidAddr = none (no address maps to that page number). */
    Addr memoVpn = InvalidAddr;
    Page *memoPage = nullptr;
    uint64_t *memoLines = nullptr;
    /** @} */

    std::string ownerLabel;
};

} // namespace last::mem

#endif // LAST_MEMORY_FUNCTIONAL_MEMORY_HH
