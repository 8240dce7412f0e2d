/**
 * @file
 * Execute-path probe fast paths.
 *
 * Every dynamic vector instruction pays for the paper's statistic
 * probes (lane-value uniqueness, reuse distance, coalescing), so these
 * helpers are written for speed — but they are *exact*: each one
 * produces bit-identical statistics to the obvious sort-based
 * reference implementation (tests/test_properties.cc asserts this over
 * randomized masks, widths, and lane values, and over rows built so
 * that their values collide in the uniqueness hash).
 */

#ifndef LAST_CU_PROBES_HH
#define LAST_CU_PROBES_HH

#include <cstdint>

#include "common/bitfield.hh"
#include "common/types.hh"

namespace last::cu
{

/**
 * Exact lane-value uniqueness counter: an open-addressed scratch hash
 * sized for one wavefront (at most 64 lanes in 1024 slots, load
 * factor <= 1/16).
 *
 * Counting distinct values needs no ordering, so a count is one
 * linear insert pass, not a sort. The table is sparse because
 * collisions are what cost: the rows that get past the
 * broadcast/ascending pre-scan are mostly full-mask rows of distinct
 * floats or gathered data. Occupancy is a 16-word bitmap cleared per
 * count (128 B), so a count touches no value slot its lanes do not
 * hash to. Lanes are visited by count-trailing-zeros over the mask,
 * never by testing all 64 bits.
 */
class LaneUniqCounter
{
  public:
    /** Distinct 32-bit values among the masked lanes of `lanes`
     *  (exactly what sort+unique over the masked values returns).
     *  mask == 0 returns 0. */
    unsigned
    count(const uint32_t *lanes, uint64_t mask)
    {
        // Fast paths for the two row shapes that dominate real
        // kernels: broadcast rows (uniform scalars and immediates,
        // exactly 1 distinct value) and strictly ascending rows
        // (thread ids, induction-derived addresses, all distinct).
        // One linear pass classifies the row and bails as soon as it
        // is neither; mixed rows fall through to the exact hash.
        if (mask == ~0ull) {
            // Full-mask rows take a branch-free contiguous scan the
            // compiler can vectorize; mixed rows cost one wasted pass
            // before the hash, which the hash itself dwarfs.
            uint32_t v0 = lanes[0];
            bool all_eq = true, ascending = true;
            for (unsigned l = 1; l < 64; ++l) {
                all_eq &= lanes[l] == v0;
                ascending &= lanes[l] > lanes[l - 1];
            }
            if (all_eq)
                return 1;
            if (ascending)
                return 64;
        } else if (mask) {
            unsigned first = findLsb(mask);
            uint32_t v0 = lanes[first];
            uint32_t prev = v0;
            bool all_eq = true, ascending = true;
            for (uint64_t m = mask & (mask - 1); m; m &= m - 1) {
                uint32_t v = lanes[findLsb(m)];
                all_eq = all_eq && v == v0;
                ascending = ascending && v > prev;
                prev = v;
                if (!all_eq && !ascending)
                    break;
            }
            if (all_eq)
                return 1;
            if (ascending)
                return popCount(mask);
        }
        for (auto &w : used)
            w = 0;
        unsigned uniq = 0;
        for (uint64_t m = mask; m; m &= m - 1)
            uniq += insert(lanes[findLsb(m)]);
        return uniq;
    }

  private:
    static constexpr unsigned SlotBits = 10;
    static constexpr unsigned Slots = 1u << SlotBits; // 16x wavefront

    /** Add v to the table; 1 if it was not there yet. */
    unsigned
    insert(uint32_t v)
    {
        // Fibonacci hashing spreads the common small-integer and
        // stride patterns; linear probing resolves collisions.
        unsigned h = (v * 0x9e3779b9u) >> (32 - SlotBits);
        while (true) {
            const uint64_t bit = 1ull << (h % 64);
            if (!(used[h / 64] & bit)) {
                used[h / 64] |= bit;
                val[h] = v;
                return 1;
            }
            if (val[h] == v)
                return 0;
            h = (h + 1) & (Slots - 1);
        }
    }

    uint32_t val[Slots] = {}; ///< valid where `used` has the bit
    uint64_t used[Slots / 64] = {};
};

/**
 * Insert `line` into the ascending-sorted, duplicate-free prefix
 * [lines, lines + n) and return the new element count (n when the line
 * was already present).
 *
 * One bounded insertion pass per lane replaces the
 * std::sort + std::unique over the full candidate array; the resulting
 * array is identical (sorted ascending, deduplicated), so the line
 * requests issue in the same order with the same timing. Coalesced
 * lane addresses are almost always already ascending, making the
 * backward scan O(1) per insert in practice.
 */
inline unsigned
insertLineSorted(Addr *lines, unsigned n, Addr line)
{
    unsigned i = n;
    while (i > 0 && lines[i - 1] > line)
        --i;
    if (i > 0 && lines[i - 1] == line)
        return n;
    for (unsigned j = n; j > i; --j)
        lines[j] = lines[j - 1];
    lines[i] = line;
    return n + 1;
}

} // namespace last::cu

#endif // LAST_CU_PROBES_HH
