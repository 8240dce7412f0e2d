/**
 * @file
 * Shared test utilities: a bare functional executor that runs a kernel
 * on a single wavefront without the timing model (for ISA semantics
 * tests) through either engine, a random IL kernel generator (for
 * differential property tests), the one field-for-field AppResult
 * equality check, the byte forms of a bench cache and its divergence
 * report, and Table 4's result latencies.
 */

#ifndef LAST_TESTS_HELPERS_HH
#define LAST_TESTS_HELPERS_HH

#include <array>
#include <memory>

#include "arch/exec_meta.hh"
#include "arch/kernel_code.hh"
#include "arch/wf_state.hh"
#include "common/random.hh"
#include "hsail/builder.hh"
#include "memory/functional_memory.hh"
#include "memory/lds.hh"
#include "sim/bench_cache.hh"

namespace last::test
{

/** A one-wavefront functional execution environment. */
struct MiniWf
{
    /** The engine run() dispatches through: each instruction's virtual
     *  execute(), or the handlers KernelCode::execMetas() installs. */
    enum class Engine { Reference, Predecoded };

    mem::FunctionalMemory mem;
    mem::LdsBlock lds{4096};
    arch::WfState st;
    Engine engine = Engine::Reference;

    explicit MiniWf(const arch::KernelCode &code, unsigned wg_size = 64,
                    unsigned grid = 64, unsigned wg_id = 0)
    {
        st.isa = code.isa();
        st.code = &code;
        st.wgId = wg_id;
        st.wgSize = wg_size;
        st.gridSize = grid;
        st.wfIdInWg = 0;
        st.firstWorkitem = wg_id * wg_size;
        st.memory = &mem;
        st.lds = &lds;
        st.vregs.assign(std::max<unsigned>(code.vregsUsed, 1),
                        arch::LaneVec{});
        st.initLaunch(~0ull);
    }

    /** Execute to completion (functional; no timing). Returns the
     *  number of dynamic instructions. */
    uint64_t
    run(uint64_t max_insts = 1000000)
    {
        uint64_t n = 0;
        const arch::KernelCode &code = *st.code;
        while (!st.done && n < max_insts) {
            size_t idx = code.indexAt(st.pc);
            st.pendingAccess.reset();
            st.atBarrier = false;
            if (engine == Engine::Predecoded) {
                const arch::ExecMeta &m = code.execMetas()[idx];
                m.handler(m, st);
            } else {
                code.inst(idx).execute(st);
            }
            ++n;
            if (st.isa == IsaKind::HSAIL) {
                st.rs.back().pc = st.nextPc;
                while (st.rs.size() > 1 &&
                       st.rs.back().pc == st.rs.back().rpc)
                    st.rs.pop_back();
                st.pc = st.rs.back().pc;
            } else {
                st.pc = st.nextPc;
            }
        }
        return n;
    }
};

/**
 * Generate a random-but-valid IL kernel: mixed u32/f32 arithmetic,
 * conditional moves, divergent and uniform ifs, a bounded loop, loads
 * from an input buffer, one store per work-item to out[gid].
 * kernargs: [0]=in (u64), [8]=out (u64).
 */
hsail::IlKernel randomKernel(uint64_t seed);

/**
 * Expect two results to be identical: spec identity, quarantine state,
 * every sim::kStatFields statistic compared exactly (doubles too), and
 * every launch record. For runs where only the execution harness
 * changed (jobs, caches, tracing, engine) — the statistics may not.
 */
void expectSameResult(const sim::AppResult &a, const sim::AppResult &b);

/** The bytes sim::writeBenchCache writes for `cache`. */
std::string cacheBytes(const sim::BenchCacheFile &cache);

/** The `last-divergence-v2` array sim::divergenceFromCache derives
 *  from `cache`, as obs::writeDivergenceJsonArray writes it. */
std::string divergenceBytes(const sim::BenchCacheFile &cache);

/** Table 4's latency configuration, and one with each of its latency
 *  knobs moved. */
std::array<GpuConfig, 2> latencyConfigs();

/** The result latency in cycles, stated per class, of an instruction
 *  on functional unit `fu` under latencyConfigs()[cfg]; `f64` marks a
 *  double-precision or transcendental VALU op. */
unsigned table4Latency(arch::FuType fu, bool f64, unsigned cfg);

} // namespace last::test

#endif // LAST_TESTS_HELPERS_HH
