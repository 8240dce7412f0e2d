#include "memory/functional_memory.hh"

#include <algorithm>

#include "common/logging.hh"

namespace last::mem
{

void
FunctionalMemory::memoize(Addr vpn, bool create)
{
    if (vpn != memoVpn) {
        auto it = pages.find(vpn);
        memoVpn = vpn;
        memoPage = it == pages.end() ? nullptr : it->second.get();
        memoLines = &touchedMasks[vpn];
    }
    if (create && !memoPage) {
        auto &slot = pages[vpn];
        slot = std::make_unique<Page>(); // value-initialized: zeros
        memoPage = slot.get();
    }
}

void
FunctionalMemory::checkRange(Addr addr, size_t len, bool is_write) const
{
    // Wrap-around first: addr + len overflowing 64 bits is the
    // signature of a negative offset folded into an unsigned address.
    if (len && addr + (len - 1) < addr) {
        throw MemoryError(
            "address range wraps the 64-bit address space" +
                (ownerLabel.empty() ? "" : " (workload " + ownerLabel + ")"),
            addr, len, is_write, ownerLabel);
    }
    if (addr >= AddrSpaceBytes || (len && addr + (len - 1) >= AddrSpaceBytes)) {
        throw MemoryError(
            "access beyond the 48-bit simulated address space" +
                (ownerLabel.empty() ? "" : " (workload " + ownerLabel + ")"),
            addr, len, is_write, ownerLabel);
    }
}

void
FunctionalMemory::readSlow(Addr addr, void *buf, size_t len)
{
    checkRange(addr, len, false);
    auto *out = static_cast<uint8_t *>(buf);
    do {
        Addr off = addr % PageBytes;
        size_t chunk = std::min<size_t>(len, PageBytes - off);
        memoize(addr / PageBytes, false);
        // A zero-length access still touches the line holding addr.
        touchMemo(off, std::max<size_t>(chunk, 1));
        if (chunk == 0)
            break;
        if (memoPage)
            std::memcpy(out, memoPage->data() + off, chunk);
        else
            std::memset(out, 0, chunk);
        addr += chunk;
        out += chunk;
        len -= chunk;
    } while (len > 0);
}

void
FunctionalMemory::writeSlow(Addr addr, const void *buf, size_t len)
{
    checkRange(addr, len, true);
    const auto *in = static_cast<const uint8_t *>(buf);
    do {
        Addr off = addr % PageBytes;
        size_t chunk = std::min<size_t>(len, PageBytes - off);
        // A zero-length write touches its line but creates no page.
        memoize(addr / PageBytes, chunk != 0);
        touchMemo(off, std::max<size_t>(chunk, 1));
        if (chunk == 0)
            break;
        std::memcpy(memoPage->data() + off, in, chunk);
        addr += chunk;
        in += chunk;
        len -= chunk;
    } while (len > 0);
}

} // namespace last::mem
