/**
 * @file
 * The benchmark's workloads and the configuration they share.
 *
 * Every workload runs the library at kHostThreads host threads, set
 * explicitly so MTPU_THREADS in the environment cannot change it, and
 * the cycle model at the paper-default configuration mtpu_sim uses: 4
 * PUs, an 8-entry window, 2048 DB-cache lines, the redundancy
 * optimisation on, and the hotspot optimisation on after warm-up on
 * the first block.
 */

#pragma once

#include <string>
#include <vector>

#include "arch/config.hpp"
#include "core/mtpu.hpp"
#include "harness.hpp"

namespace perfbench {

constexpr int kHostThreads = 2;
/** Genesis account universe (mtpu_sim's default). */
constexpr int kAccounts = 512;
/** Transactions per generated block (the paper's setting). */
constexpr int kBlockTxs = 128;
constexpr double kDepRatio = 0.3;

mtpu::arch::MtpuConfig paperConfig();

/** Spatio-temporal scheme, redundancy on, conflict validation on;
 *  hotspotOpt stays off until the processor has been warmed up. */
mtpu::core::RunOptions paperRun();

/** Cycles of a cold single scalar PU on @p block (the speedup base). */
std::uint64_t scalarBaselineCycles(const mtpu::workload::BlockRun &block);

/** Simulated-cycle totals over a fixed set of blocks. */
struct SimTally
{
    std::uint64_t blocks = 0;
    std::uint64_t txs = 0;
    std::uint64_t makespan = 0;
    std::uint64_t baseline = 0;
    std::uint64_t busy = 0;
    std::uint64_t slots = 0; ///< makespan x PUs
    std::uint64_t instructions = 0;
    std::uint64_t stalls = 0;
    std::uint64_t redundantSteers = 0;
    std::uint64_t conflictAborts = 0;
    std::uint64_t retries = 0;
    std::uint64_t specReplayed = 0;
    std::uint64_t reexecValidationMiss = 0;

    void add(const mtpu::sched::EngineStats &stats,
             std::uint64_t baseline_cycles);
    /** Makespan-only form, for blocks whose full stats are not kept. */
    void addCycles(std::uint64_t block_makespan, std::uint64_t block_txs,
                   std::uint64_t baseline_cycles);

    /** sim_cycles_per_tx and sim_speedup. */
    void reportEndToEnd(RunResult &out) const;
    /** sched.* and arch.* schedule metrics, per block. */
    void reportLayers(RunResult &out) const;
};

/**
 * The paper-default cycle model over @p blocks on a fresh processor,
 * outside the timed part: the first block runs cold, then warms the
 * hotspot tables, as mtpu_sim does. The figures repeat exactly for a
 * block list.
 */
SimTally simulate(const mtpu::evm::WorldState &genesis,
                  const std::vector<mtpu::workload::BlockRun> &blocks);

/** Reset the obs registry and turn it on (traced runs only). */
void startCounters(const Trace &trace);

/** Per-block mean of a registry counter over @p blocks blocks. */
double counterPerBlock(const char *name, std::uint64_t blocks);

/** Set end-to-end / per-layer metric @p name. Names and units are
 *  declared in BENCHMARK.json; run.py refuses a name it does not
 *  declare. */
void setEndToEnd(RunResult &out, const std::string &name, double value);
void setLayer(RunResult &out, const std::string &name, double value);

/** block_ms_p50 as the median of @p typical_ms, plus the per-layer
 *  block_ms_p90 of @p all_ms when it holds at least 100 blocks (a tail
 *  needs ten samples beyond it). */
void reportBlockTimes(RunResult &out, const std::vector<double> &typical_ms,
                      const std::vector<double> &all_ms);

RunResult runVerifier(const RunSettings &settings, Trace &trace);
RunResult runFast(const RunSettings &settings, Trace &trace, bool hot);
RunResult runStream(const RunSettings &settings, Trace &trace);

} // namespace perfbench
