#include "hsail/brig.hh"

#include <cstring>

#include "common/logging.hh"
#include "hsail/inst.hh"
#include "hsail/ipdom.hh"

namespace last::hsail
{

namespace
{

/** On-disk record layout (verbose on purpose; see header). */
struct BrigRecord
{
    uint8_t opcode;
    uint8_t dtype;
    uint8_t srcDtype;
    uint8_t segment;
    uint8_t cmpOp;
    uint8_t pad0[3];
    uint16_t dst;
    uint16_t src[3];
    uint64_t imm;
    uint64_t target;
    uint8_t pad1[32];
};
static_assert(sizeof(BrigRecord) == BrigRecordBytes,
              "BRIG record must stay verbose and fixed-size");

struct BrigHeader
{
    char magic[8];
    uint64_t numInsts;
    uint32_t vregsUsed;
    uint32_t sregsUsed;
    uint64_t privateBytesPerWi;
    uint64_t spillBytesPerWi;
    uint64_t ldsBytesPerWg;
    uint64_t kernargBytes;
    uint64_t nameLen;
};

constexpr char BrigMagic[8] = {'L', 'A', 'S', 'T', 'B', 'R', 'G', '1'};

} // namespace

BrigBlob
encodeBrig(const arch::KernelCode &code)
{
    panic_if(code.isa() != IsaKind::HSAIL, "can only encode HSAIL kernels");
    panic_if(!code.sealed(), "encode requires a sealed kernel");

    BrigHeader hdr{};
    std::memcpy(hdr.magic, BrigMagic, 8);
    hdr.numInsts = code.numInsts();
    hdr.vregsUsed = code.vregsUsed;
    hdr.sregsUsed = code.sregsUsed;
    hdr.privateBytesPerWi = code.privateBytesPerWi;
    hdr.spillBytesPerWi = code.spillBytesPerWi;
    hdr.ldsBytesPerWg = code.ldsBytesPerWg;
    hdr.kernargBytes = code.kernargBytes;
    hdr.nameLen = code.name().size();

    BrigBlob blob(sizeof(BrigHeader) + hdr.nameLen +
                  code.numInsts() * BrigRecordBytes);
    std::memcpy(blob.data(), &hdr, sizeof(hdr));
    std::memcpy(blob.data() + sizeof(hdr), code.name().data(),
                hdr.nameLen);

    size_t off = sizeof(hdr) + hdr.nameLen;
    for (size_t i = 0; i < code.numInsts(); ++i, off += BrigRecordBytes) {
        const auto &inst = static_cast<const HsailInst &>(code.inst(i));
        BrigRecord rec{};
        rec.opcode = uint8_t(inst.op());
        rec.dtype = uint8_t(inst.type());
        rec.srcDtype = uint8_t(inst.srcType());
        rec.segment = uint8_t(inst.segment());
        rec.cmpOp = uint8_t(inst.cmpOp());
        rec.dst = inst.dst().idx;
        for (unsigned s = 0; s < 3; ++s)
            rec.src[s] = inst.src(s).idx;
        rec.imm = inst.immBits();
        rec.target = inst.targetIndex();
        std::memcpy(blob.data() + off, &rec, sizeof(rec));
    }
    return blob;
}

std::unique_ptr<arch::KernelCode>
decodeBrig(const BrigBlob &blob)
{
    fatal_if(blob.size() < sizeof(BrigHeader), "truncated BRIG blob");
    BrigHeader hdr;
    std::memcpy(&hdr, blob.data(), sizeof(hdr));
    fatal_if(std::memcmp(hdr.magic, BrigMagic, 8) != 0,
             "bad BRIG magic");
    fatal_if(blob.size() != sizeof(hdr) + hdr.nameLen +
                                hdr.numInsts * BrigRecordBytes,
             "BRIG blob size mismatch");

    std::string name(
        reinterpret_cast<const char *>(blob.data() + sizeof(hdr)),
        hdr.nameLen);
    auto code = std::make_unique<arch::KernelCode>(IsaKind::HSAIL, name);
    code->vregsUsed = hdr.vregsUsed;
    code->sregsUsed = hdr.sregsUsed;
    code->privateBytesPerWi = hdr.privateBytesPerWi;
    code->spillBytesPerWi = hdr.spillBytesPerWi;
    code->ldsBytesPerWg = hdr.ldsBytesPerWg;
    code->kernargBytes = hdr.kernargBytes;

    size_t off = sizeof(hdr) + hdr.nameLen;
    for (uint64_t i = 0; i < hdr.numInsts; ++i, off += BrigRecordBytes) {
        BrigRecord rec;
        std::memcpy(&rec, blob.data() + off, sizeof(rec));
        fatal_if(rec.opcode > uint8_t(Opcode::Nop) ||
                     rec.dtype > uint8_t(DataType::F64) ||
                     rec.srcDtype > uint8_t(DataType::F64) ||
                     rec.segment > uint8_t(Segment::Arg) ||
                     rec.cmpOp > uint8_t(CmpOp::Ge),
                 "BRIG record %llu has a field outside its enum",
                 (unsigned long long)i);
        auto op = Opcode(rec.opcode);
        auto t = DataType(rec.dtype);
        Reg dst{rec.dst};
        Reg s0{rec.src[0]}, s1{rec.src[1]}, s2{rec.src[2]};

        HsailInst *inst = nullptr;
        switch (op) {
          case Opcode::Cmp:
            inst = HsailInst::cmp(CmpOp(rec.cmpOp), t, dst, s0, s1);
            break;
          case Opcode::CMov:
            inst = HsailInst::cmov(t, dst, s0, s1, s2);
            break;
          case Opcode::Mov:
            inst = HsailInst::mov(t, dst, s0);
            break;
          case Opcode::MovImm:
            inst = HsailInst::movImm(t, dst, rec.imm);
            break;
          case Opcode::Cvt:
            inst = HsailInst::cvt(t, DataType(rec.srcDtype), dst, s0);
            break;
          case Opcode::Ld:
            inst = HsailInst::ld(Segment(rec.segment), t, dst, s0,
                                 int64_t(rec.imm));
            break;
          case Opcode::St:
            inst = HsailInst::st(Segment(rec.segment), t, s1, s0,
                                 int64_t(rec.imm));
            break;
          case Opcode::AtomicAdd:
            inst = HsailInst::atomicAdd(t, dst, s0, int64_t(rec.imm), s1);
            break;
          case Opcode::Br:
            inst = HsailInst::br(rec.target);
            break;
          case Opcode::CBr:
            inst = rec.imm ? HsailInst::cbrz(s0, rec.target)
                           : HsailInst::cbr(s0, rec.target);
            break;
          case Opcode::Barrier:
            inst = HsailInst::barrier();
            break;
          case Opcode::Ret:
            inst = HsailInst::ret();
            break;
          case Opcode::Nop:
            inst = HsailInst::nop();
            break;
          case Opcode::WorkItemAbsId:
          case Opcode::WorkItemId:
          case Opcode::WorkGroupId:
          case Opcode::WorkGroupSize:
          case Opcode::GridSize:
            inst = HsailInst::special(op, dst);
            break;
          default:
            inst = HsailInst::alu(op, t, dst, s0, s1, s2);
            break;
        }
        code->append(std::unique_ptr<arch::Instruction>(inst));
    }
    code->seal();
    annotateReconvergence(*code);
    code->execMetas(); // predecode with the artifact, not at first run
    return code;
}

} // namespace last::hsail
