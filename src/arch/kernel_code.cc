#include "arch/kernel_code.hh"

#include <sstream>

#include "common/logging.hh"

namespace last::arch
{

const char *
fuTypeName(FuType fu)
{
    switch (fu) {
      case FuType::VAlu: return "VALU";
      case FuType::SAlu: return "SALU";
      case FuType::Branch: return "BRANCH";
      case FuType::VMem: return "VMEM";
      case FuType::SMem: return "SMEM";
      case FuType::Lds: return "LDS";
      case FuType::Special: return "SPECIAL";
    }
    return "?";
}

const char *
instClassName(InstClass c)
{
    switch (c) {
      case InstClass::VAlu: return "valu";
      case InstClass::SAlu: return "salu";
      case InstClass::VMem: return "vmem";
      case InstClass::SMem: return "smem";
      case InstClass::Lds: return "lds";
      case InstClass::Branch: return "branch";
      case InstClass::Waitcnt: return "waitcnt";
      case InstClass::Misc: return "misc";
    }
    return "misc";
}

namespace
{

/** Figure 5's classification of one instruction. */
InstClass
classOf(const ExecMeta &m)
{
    if (m.is(IsWaitcnt))
        return InstClass::Waitcnt;
    switch (m.fu) {
      case FuType::VAlu: return InstClass::VAlu;
      case FuType::SAlu: return InstClass::SAlu;
      case FuType::VMem: return InstClass::VMem;
      case FuType::SMem: return InstClass::SMem;
      case FuType::Lds: return InstClass::Lds;
      case FuType::Branch: return InstClass::Branch;
      case FuType::Special: return InstClass::Misc;
    }
    return InstClass::Misc;
}

} // namespace

KernelCode::KernelCode(IsaKind isa, std::string name)
    : isaKind(isa), kernelName(std::move(name))
{
}

size_t
KernelCode::append(std::unique_ptr<Instruction> inst)
{
    panic_if(isSealed, "appending to sealed kernel %s", kernelName.c_str());
    insts.push_back(std::move(inst));
    return insts.size() - 1;
}

void
KernelCode::seal()
{
    panic_if(isSealed, "kernel %s sealed twice", kernelName.c_str());
    offsets.resize(insts.size());
    Addr off = 0;
    for (size_t i = 0; i < insts.size(); ++i) {
        offsets[i] = off;
        off += insts[i]->sizeBytes();
    }
    totalBytes = off;
    isSealed = true;
}

void
KernelCode::setCodeBase(Addr b) const
{
    Addr expected = 0;
    if (base.compare_exchange_strong(expected, b,
                                     std::memory_order_relaxed))
        return;
    panic_if(expected != b,
             "kernel %s re-based from %llx to %llx: shared artifacts "
             "must load at one deterministic address",
             kernelName.c_str(), (unsigned long long)expected,
             (unsigned long long)b);
}

const std::vector<ExecMeta> &
KernelCode::execMetas() const
{
    panic_if(!isSealed, "predecode of unsealed kernel %s",
             kernelName.c_str());
    std::call_once(metasOnce, [this] { buildMetas(); });
    return metas;
}

void
KernelCode::buildMetas() const
{
    metas.resize(insts.size());
    for (size_t i = 0; i < insts.size(); ++i) {
        const Instruction &in = *insts[i];
        ExecMeta &m = metas[i];
        m.inst = &in;
        m.flags = in.flags();
        m.fu = in.fuType();
        m.instClass = classOf(m);
        m.size = uint8_t(sizeOf(i));

        const auto &ops = in.regOps();
        panic_if(ops.size() > ExecMeta::MaxOps,
                 "%s: %zu operands exceed ExecMeta::MaxOps",
                 in.disassemble().c_str(), ops.size());
        m.numOps = uint8_t(ops.size());
        for (size_t k = 0; k < ops.size(); ++k) {
            // The CU's scalar ready table ends at EXEC, the highest
            // scalar register any level declares.
            panic_if(ops[k].cls == RegClass::Scalar &&
                         ops[k].idx + ops[k].width > RegExecHi + 1,
                     "%s: scalar operand s%u x%u past s%u",
                     in.disassemble().c_str(), unsigned(ops[k].idx),
                     unsigned(ops[k].width), unsigned(RegExecHi));
            m.ops[k] = ops[k];
        }

        // Width-expanded vector register lists, preserving operand
        // order (the reuse-distance probe is order-sensitive) and
        // duplicates (V_MAC_F32 lists its dst as both use and def).
        for (const auto &op : ops) {
            if (op.cls != RegClass::Vector)
                continue;
            for (unsigned w = 0; w < op.width; ++w) {
                if (op.isDef) {
                    panic_if(m.numVecWr >= ExecMeta::MaxVecWr,
                             "%s: too many vector defs",
                             in.disassemble().c_str());
                    m.vecWr[m.numVecWr++] = uint16_t(op.idx + w);
                } else {
                    panic_if(m.numVecRd >= ExecMeta::MaxVecRd,
                             "%s: too many vector uses",
                             in.disassemble().c_str());
                    m.vecRd[m.numVecRd++] = uint16_t(op.idx + w);
                }
            }
        }

        in.predecode(m);
        panic_if(!m.handler, "%s: predecode installed no handler",
                 in.disassemble().c_str());
    }
    metasBuilt = true;
}

size_t
KernelCode::indexAt(Addr offset) const
{
    // Binary search over the (sorted) offsets.
    size_t lo = 0, hi = offsets.size();
    while (lo < hi) {
        size_t mid = (lo + hi) / 2;
        if (offsets[mid] < offset)
            lo = mid + 1;
        else
            hi = mid;
    }
    panic_if(lo >= offsets.size() || offsets[lo] != offset,
             "bad pc offset %llu in kernel %s",
             (unsigned long long)offset, kernelName.c_str());
    return lo;
}

std::string
KernelCode::disassemble() const
{
    std::ostringstream os;
    for (size_t i = 0; i < insts.size(); ++i) {
        os << "  [" << offsets[i] << "]\t" << insts[i]->disassemble()
           << "\n";
    }
    return os.str();
}

} // namespace last::arch
