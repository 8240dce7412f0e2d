#include "runtime/runtime.hh"

#include "common/logging.hh"
#include "finalizer/abi.hh"

namespace last::runtime
{

Runtime::Runtime(const GpuConfig &cfg_)
    : stats::Group("sim"),
      instFootprint(this, "instFootprint",
                    "loaded kernel code bytes (Figure 8)"),
      dispatches(this, "dispatches", "kernel dispatches"),
      scratchArenaBytes(this, "scratchArenaBytes",
                        "bytes of scratch arenas allocated"),
      cfg(cfg_), cp(memory)
{
    gpuModel = std::make_unique<gpu::Gpu>(cfg, memory, this);
    dynInstsStatIdx = gpuModel->cuStatIndex("dynInsts");
    if (cfg.trace)
        trace = cfg.trace->makeStream("runtime", obs::TidRuntime);
}

Addr
Runtime::allocGlobal(uint64_t bytes, uint64_t align)
{
    globalBrk = (globalBrk + align - 1) / align * align;
    Addr a = globalBrk;
    globalBrk += bytes;
    return a;
}

void
Runtime::writeGlobal(Addr addr, const void *src, size_t len)
{
    memory.write(addr, src, len);
}

void
Runtime::readGlobal(Addr addr, void *dst, size_t len)
{
    memory.read(addr, dst, len);
}

void
Runtime::loadKernel(const arch::KernelCode &code)
{
    if (loaded.count(&code))
        return;
    fatal_if(!code.sealed(), "kernel %s dispatched before sealing",
             code.name().c_str());
    codeBrk = (codeBrk + 255) / 256 * 256;
    code.setCodeBase(codeBrk);
    codeBrk += code.codeBytes();
    instFootprint += double(code.codeBytes());
    loaded.insert(&code);
}

Addr
Runtime::allocScratchArenas(const arch::KernelCode &code,
                            cu::KernelLaunch &launch,
                            unsigned grid_size)
{
    if (code.isa() == IsaKind::GCN3) {
        // Per-process allocation: the runtime reuses one arena across
        // launches, growing it only when a dispatch needs more.
        uint64_t stride = code.privateBytesPerWi;
        uint64_t need = stride * grid_size;
        if (need > 0 && need > processScratchBytes) {
            processScratch = allocGlobal(need, 4096);
            processScratchBytes = need;
            scratchArenaBytes += double(need);
        }
        launch.scratchBase = processScratch;
        launch.scratchStridePerWi = stride;
        return processScratch;
    }

    // HSAIL and PTXL: fresh private/spill arenas on every dynamic
    // launch (the emulated HSAIL ABI and PTXL's driver-managed
    // local-memory windows both keep the segments separate; LDL/STL
    // index them per thread in hardware).
    if (code.privateBytesPerWi > 0) {
        uint64_t bytes = code.privateBytesPerWi * grid_size;
        launch.privateBase = allocGlobal(bytes, 4096);
        launch.privateStridePerWi = code.privateBytesPerWi;
        scratchArenaBytes += double(bytes);
    }
    if (code.spillBytesPerWi > 0) {
        uint64_t bytes = code.spillBytesPerWi * grid_size;
        launch.spillBase = allocGlobal(bytes, 4096);
        launch.spillStridePerWi = code.spillBytesPerWi;
        scratchArenaBytes += double(bytes);
    }
    return 0;
}

void
Runtime::setupLaunch(const arch::KernelCode &code, unsigned grid_size,
                     unsigned wg_size, const void *args,
                     size_t arg_bytes, cu::KernelLaunch &launch)
{
    fatal_if(wg_size == 0 || grid_size == 0, "empty dispatch");
    fatal_if(wg_size % WavefrontSize != 0,
             "workgroup size must be a wavefront multiple");
    loadKernel(code);
    ++dispatches;

    // Kernarg buffer.
    Addr kernarg = 0;
    if (arg_bytes > 0) {
        kernarg = allocGlobal(std::max<uint64_t>(arg_bytes, 8));
        memory.write(kernarg, args, arg_bytes);
    }

    // Dispatch packet.
    Addr pkt = allocGlobal(abi::PktBytes, 64);
    cp.writePacket(pkt, wg_size, grid_size, kernarg);

    launch.code = &code;
    cp.readPacket(pkt, launch);
    allocScratchArenas(code, launch, grid_size);
}

Cycle
Runtime::dispatch(const arch::KernelCode &code, unsigned grid_size,
                  unsigned wg_size, const void *args, size_t arg_bytes)
{
    cu::KernelLaunch launch;
    setupLaunch(code, grid_size, wg_size, args, arg_bytes, launch);

    uint64_t insts_before =
        uint64_t(gpuModel->sumCuStat(dynInstsStatIdx));
    Cycle launched = gpuModel->eventQueue().now();
    gpuModel->launch(launch);
    Cycle cycles = gpuModel->runToCompletion();
    uint64_t insts_after =
        uint64_t(gpuModel->sumCuStat(dynInstsStatIdx));

    if (trace)
        trace->emit(obs::TraceKind::KernelDispatch, launched, cycles,
                    trace->intern(code.name()));

    records.push_back(
        {code.name(), cycles, insts_after - insts_before});
    return cycles;
}

void
Runtime::dispatchAsync(const arch::KernelCode &code, unsigned grid_size,
                       unsigned wg_size, const void *args,
                       size_t arg_bytes)
{
    auto launch = std::make_unique<cu::KernelLaunch>();
    setupLaunch(code, grid_size, wg_size, args, arg_bytes, *launch);
    gpuModel->launch(*launch);
    inFlight.push_back(std::move(launch));
}

Cycle
Runtime::sync()
{
    if (inFlight.empty())
        return 0;
    Cycle cycles = gpuModel->runToCompletion();
    // Records land in dispatch order (not completion order) so the
    // per-kernel sequence stays deterministic and cross-ISA
    // comparable; spans come from the launch's own start/end cycles.
    for (const auto &l : inFlight) {
        if (trace)
            trace->emit(obs::TraceKind::KernelDispatch, l->startCycle,
                        l->endCycle - l->startCycle,
                        trace->intern(l->code->name()));
        records.push_back({l->code->name(),
                           l->endCycle - l->startCycle, l->instsIssued});
    }
    inFlight.clear();
    return cycles;
}

} // namespace last::runtime
