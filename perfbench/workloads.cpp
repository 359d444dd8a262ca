#include "workloads.hpp"

#include "baseline/baseline.hpp"
#include "obs/metrics.hpp"

namespace perfbench {

using namespace mtpu;

arch::MtpuConfig
paperConfig()
{
    arch::MtpuConfig cfg;
    cfg.numPus = 4;
    cfg.windowSize = 8;
    cfg.dbCacheEntries = 2048;
    cfg.threads = kHostThreads;
    return cfg;
}

core::RunOptions
paperRun()
{
    core::RunOptions run;
    run.scheme = core::Scheme::SpatioTemporal;
    run.redundancyOpt = true;
    run.hotspotOpt = false;
    run.threads = kHostThreads;
    run.recovery.validateConflicts = true;
    return run;
}

std::uint64_t
scalarBaselineCycles(const workload::BlockRun &block)
{
    // The baseline is a reference figure, not part of the measured
    // pipeline: keep its PU events out of the traced run's counters.
    obs::Registry &reg = obs::Registry::global();
    const bool counting = reg.enabled();
    reg.enable(false);
    arch::MtpuConfig base = arch::MtpuConfig::baseline();
    base.threads = 1;
    baseline::SequentialExecutor seq(base);
    const std::uint64_t cycles = seq.run(block).makespan;
    reg.enable(counting);
    return cycles;
}

SimTally
simulate(const evm::WorldState &genesis,
         const std::vector<workload::BlockRun> &blocks)
{
    core::MtpuProcessor proc(paperConfig());
    core::RunOptions run = paperRun();
    run.recovery.genesis = &genesis;
    SimTally sim;
    for (std::size_t i = 0; i < blocks.size(); ++i) {
        sim.add(proc.execute(blocks[i], run), scalarBaselineCycles(blocks[i]));
        if (i == 0) {
            proc.warmup(blocks[i], 16);
            run.hotspotOpt = true;
        }
    }
    return sim;
}

void
SimTally::add(const sched::EngineStats &stats,
              std::uint64_t baseline_cycles)
{
    addCycles(stats.makespan, stats.txCount, baseline_cycles);
    for (std::uint64_t b : stats.puBusy)
        busy += b;
    slots += stats.makespan * stats.puBusy.size();
    instructions += stats.instructions;
    stalls += stats.stalls;
    redundantSteers += stats.redundantSteers;
    conflictAborts += stats.conflictAborts;
    retries += stats.retries;
    specReplayed += stats.specReplayed;
    reexecValidationMiss += stats.reexecValidationMiss;
}

void
SimTally::addCycles(std::uint64_t block_makespan, std::uint64_t block_txs,
                    std::uint64_t baseline_cycles)
{
    ++blocks;
    txs += block_txs;
    makespan += block_makespan;
    baseline += baseline_cycles;
}

void
SimTally::reportEndToEnd(RunResult &out) const
{
    setEndToEnd(out, "sim_cycles_per_tx",
                txs ? double(makespan) / double(txs) : 0.0);
    setEndToEnd(out, "sim_speedup",
                makespan ? double(baseline) / double(makespan) : 0.0);
}

void
SimTally::reportLayers(RunResult &out) const
{
    auto per_block = [&](std::uint64_t v) {
        return blocks ? double(v) / double(blocks) : 0.0;
    };
    setLayer(out, "sched.conflict_aborts", per_block(conflictAborts));
    setLayer(out, "sched.retries", per_block(retries));
    setLayer(out, "sched.spec_replayed", per_block(specReplayed));
    setLayer(out, "sched.reexec_validation_miss",
             per_block(reexecValidationMiss));
    setLayer(out, "sched.stalls", per_block(stalls));
    setLayer(out, "sched.redundant_steers", per_block(redundantSteers));
    setLayer(out, "arch.pu_utilization",
             slots ? double(busy) / double(slots) : 0.0);
    setLayer(out, "arch.ipc",
             busy ? double(instructions) / double(busy) : 0.0);
}

void
startCounters(const Trace &trace)
{
    obs::Registry &reg = obs::Registry::global();
    reg.reset();
    reg.enable(trace.on());
}

double
counterPerBlock(const char *name, std::uint64_t blocks)
{
    if (blocks == 0)
        return 0.0;
    return double(obs::Registry::global().snapshot().counter(name))
         / double(blocks);
}

void
setEndToEnd(RunResult &out, const std::string &name, double value)
{
    out.endToEnd[name] = value;
}

void
setLayer(RunResult &out, const std::string &name, double value)
{
    out.perLayer[name] = value;
}

void
reportBlockTimes(RunResult &out, const std::vector<double> &typical_ms,
                 const std::vector<double> &all_ms)
{
    setEndToEnd(out, "block_ms_p50", median(typical_ms));
    setLayer(out, "block_ms_p90",
             all_ms.size() >= 100 ? percentile(all_ms, 0.90) : 0.0);
}

} // namespace perfbench
