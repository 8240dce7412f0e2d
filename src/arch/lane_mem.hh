/**
 * @file
 * The one memory-lane body of all three levels: HSAIL's ld/st/
 * atomic_add, PTXL's LDG/STG/ATOM/LDS/STS/LDL/STL/LDC and GCN3's
 * FLAT_*, DS_* and s_load all move their data here, and both engines
 * (each level's reference execute() and its predecoded handler) call
 * it, so the two cannot drift apart.
 *
 * What stays with a level is only what is its own: how a lane's
 * address is formed (segment bases and strides, the 64-bit address
 * pair, LDS offsets), the kind of a uniform load (HSAIL's
 * kernarg-direct path, or LDC and s_load through the scalar cache),
 * and where s_load's dwords land (SGPRs).
 *
 * The MemAccess is built in place in wf.pendingAccess (no 600-byte
 * copy), and the active lanes are visited count-trailing-zeros style
 * in ascending order, so overlapping stores and atomics land in lane
 * order.
 */

#ifndef LAST_ARCH_LANE_MEM_HH
#define LAST_ARCH_LANE_MEM_HH

#include <bit>
#include <cstdint>

#include "arch/instruction.hh"
#include "arch/wf_state.hh"

namespace last::arch
{

/** What each lane of a vector memory instruction does. */
struct LaneMem
{
    static constexpr unsigned NoReg = ~0u;

    enum class Op : uint8_t { Load, Store, AtomicAdd };

    Op op = Op::Load;
    bool lds = false;     ///< the workgroup's LDS block, not memory
    unsigned bytes = 4;   ///< per lane: 4, or 8 from a register pair
    unsigned data = 0;    ///< first register stored, or the addend
    unsigned dst = NoReg; ///< first register loaded, or the atomic's
                          ///< old value (NoReg: not returned)

    /** The op an instruction's flags name (an atomic is a 32-bit
     *  add). */
    static Op
    opOf(const Instruction &inst)
    {
        if (inst.is(IsAtomic))
            return Op::AtomicAdd;
        return inst.is(IsStore) ? Op::Store : Op::Load;
    }
};

/**
 * Perform `mem` for every active lane of `wf`, at the address
 * `addr_of(lane)`, and describe it in wf.pendingAccess. An 8-byte
 * lane is one FunctionalMemory call, or two 4-byte LDS accesses.
 */
template <class AddrOf>
inline void
laneMemory(WfState &wf, const LaneMem &mem, AddrOf addr_of)
{
    using Kind = MemAccess::Kind;
    const bool store = mem.op == LaneMem::Op::Store;
    const uint64_t mask = wf.activeMask();
    MemAccess &acc = wf.pendingAccess.emplace();
    acc.kind = mem.lds ? (store ? Kind::LdsStore : Kind::LdsLoad)
                       : (store ? Kind::VectorStore : Kind::VectorLoad);
    acc.bytesPerLane = mem.bytes;
    acc.mask = mask;

    for (uint64_t rest = mask; rest; rest &= rest - 1) {
        const unsigned lane = unsigned(std::countr_zero(rest));
        const Addr addr = addr_of(lane);
        acc.laneAddrs[lane] = addr;
        if (mem.lds) {
            for (unsigned d = 0; d < mem.bytes / 4; ++d) {
                if (store)
                    wf.lds->write32(addr + 4 * d,
                                    wf.readVreg(mem.data + d, lane));
                else
                    wf.writeVreg(mem.dst + d, lane,
                                 wf.lds->read32(addr + 4 * d));
            }
        } else if (mem.op == LaneMem::Op::AtomicAdd) {
            const uint32_t old = wf.memory->read<uint32_t>(addr);
            const uint32_t add = wf.readVreg(mem.data, lane);
            wf.memory->write<uint32_t>(addr, old + add);
            if (mem.dst != LaneMem::NoReg)
                wf.writeVreg(mem.dst, lane, old);
        } else if (mem.bytes == 8) {
            uint64_t v = 0;
            if (store) {
                v = wf.readVreg64(mem.data, lane);
                wf.memory->write(addr, &v, 8);
            } else {
                wf.memory->read(addr, &v, 8);
                wf.writeVreg64(mem.dst, lane, v);
            }
        } else {
            uint32_t v = 0;
            if (store) {
                v = wf.readVreg(mem.data, lane);
                wf.memory->write(addr, &v, 4);
            } else {
                wf.memory->read(addr, &v, 4);
                wf.writeVreg(mem.dst, lane, v);
            }
        }
    }
}

/**
 * A uniform load: one read of `bytes` at `addr` into `out`, described
 * as an access of `kind` (KernargDirect or ScalarLoad; the timing
 * model reads only scalarAddr).
 */
inline void
uniformLoad(WfState &wf, MemAccess::Kind kind, Addr addr, unsigned bytes,
            void *out)
{
    wf.memory->read(addr, out, bytes);
    MemAccess &acc = wf.pendingAccess.emplace();
    acc.kind = kind;
    acc.scalarAddr = addr;
    acc.scalarBytes = bytes;
}

/** A uniform load of 4 or 8 bytes, broadcast into the active lanes of
 *  vector register `dst` (a pair for 8 bytes). */
inline void
broadcastLoad(WfState &wf, MemAccess::Kind kind, Addr addr, unsigned bytes,
              unsigned dst)
{
    uint64_t val = 0;
    uniformLoad(wf, kind, addr, bytes, &val);
    for (uint64_t rest = wf.activeMask(); rest; rest &= rest - 1) {
        const unsigned lane = unsigned(std::countr_zero(rest));
        if (bytes == 8)
            wf.writeVreg64(dst, lane, val);
        else
            wf.writeVreg(dst, lane, uint32_t(val));
    }
}

} // namespace last::arch

#endif // LAST_ARCH_LANE_MEM_HH
