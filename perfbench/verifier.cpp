/**
 * @file
 * Workload `verifier-top8`: the paper's pipeline as a verifier node
 * runs it, closed loop, one block at a time. Each block is a natural
 * TOP8 Zipf mix of kBlockTxs transactions at dependency ratio
 * kDepRatio, generated with its consensus stage, executed and audited
 * against genesis as MtpuProcessor::executeAudited does it, and
 * digested.
 *
 * The first block is set-up: it runs with the hotspot optimisation
 * off and then warms the hotspot tables, as mtpu_sim does.
 *
 * The timed blocks run in cycles of kCycleBlocks. Every cycle starts
 * from a fresh Generator on the run's seed with the memo cache
 * cleared, so it generates and verifies the same blocks as the first
 * cycle did, from the same cache state, and a block's time differs
 * between cycles only by what the host takes from it. The end-to-end
 * figures count each block at its fastest cycle (the minimum of
 * repeats, as the fast tier does); the median over fresh blocks spread
 * too widely between runs on a shared host. A short cycle gives each
 * block many repeats spread over the run.
 *
 * The simulated metrics come from the cycle model over the first
 * kSimBlocks blocks of the seed, run after the measurement on a fresh
 * processor, so they repeat exactly for a seed however long the run
 * is.
 */

#include <algorithm>
#include <limits>
#include <optional>

#include "checks.hpp"
#include "evm/memo.hpp"
#include "fault/auditor.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace mtpu;

namespace {

constexpr std::size_t kCycleBlocks = 4;
constexpr int kSimBlocks = 32;
const workload::BlockParams kTop8{kBlockTxs, kDepRatio, -1.0, 1.0, {}};

struct VerifiedBlock
{
    workload::BlockRun block;
    core::AuditedRun run;
    U256 postDigest;
};

/**
 * Generate, execute, audit and digest one block. Execution and audit
 * are the two calls MtpuProcessor::executeAudited makes, made here
 * so each is timed on its own. executeAudited hands the auditor the
 * processor's private host pool; @p audit_pool, of the same size,
 * stands in for it (the processor's pool is only created by
 * executeAudited and compare(), so it never exists here).
 */
VerifiedBlock
verifyOne(workload::Generator &gen, core::MtpuProcessor &proc,
          const core::RunOptions &run, support::ThreadPool &audit_pool,
          Trace &trace)
{
    const evm::WorldState &genesis = gen.genesis();
    VerifiedBlock out;
    {
        Scope s(trace, "workload.generate");
        out.block = gen.generateBlock(kTop8);
    }
    core::RunOptions opts = run;
    opts.recovery.genesis = &genesis;
    {
        Scope s(trace, "core.execute");
        out.run.stats = proc.execute(out.block, opts);
    }
    {
        Scope s(trace, "fault.audit");
        fault::Auditor auditor(genesis, out.block, opts.recovery.plan,
                               proc.config().commutative);
        auditor.usePool(&audit_pool);
        out.run.audit = auditor.audit(out.run.stats);
    }
    if (out.run.stats.finalState) {
        Scope s(trace, "evm.digest");
        out.postDigest = out.run.stats.finalState->digest();
    }
    return out;
}

/** The program-order reference replay of one block of the cycle. */
struct Reference
{
    U256 digest;
    std::uint64_t failedReceipts = 0;
};

Reference
makeReference(const evm::WorldState &genesis,
              const workload::BlockRun &block)
{
    evm::WorldState state = genesis;
    Reference ref;
    for (const evm::Receipt &r : referenceReplay(state, block))
        ref.failedReceipts += r.success ? 0 : 1;
    ref.digest = state.digest();
    return ref;
}

/** Every check on one verified block; false if any failed. A later
 *  cycle's block is checked against the first cycle's replay of the
 *  same position, so a block that differed between cycles fails. */
bool
checkBlock(const VerifiedBlock &v, const Reference &ref,
           const U256 &genesis_total, int pus, RunResult &out)
{
    const sched::EngineStats &stats = v.run.stats;
    if (!out.check("audit", v.run.ok() ? "" : v.run.audit.message
                                                  + " (or watchdog fired)"))
        return false;
    if (!out.check("final state", stats.finalState ? "" : "missing"))
        return false;

    bool ok = out.check("post-state digest vs reference replay",
                        digestsEqual(v.postDigest, ref.digest));
    ok &= out.check("failed receipts vs reference replay",
                    ref.failedReceipts == stats.failedTxs
                        ? ""
                        : std::to_string(stats.failedTxs) + " != "
                              + std::to_string(ref.failedReceipts));
    ok &= out.check("completion order",
                    orderRespectsDag(stats.completionOrder, v.block));
    ok &= out.check("busy cycles", busyWithinMakespan(stats, pus));
    ok &= out.check("balance conservation",
                    balanceConserved(genesis_total,
                                     nativeBalanceTotal(*stats.finalState)));
    return ok;
}

} // namespace

RunResult
runVerifier(const RunSettings &settings, Trace &trace)
{
    RunResult out;
    const arch::MtpuConfig cfg = paperConfig();
    core::RunOptions run = paperRun();

    std::optional<workload::Generator> gen;
    gen.emplace(settings.seed, kAccounts, kHostThreads);
    core::MtpuProcessor proc(cfg);
    support::ThreadPool audit_pool(kHostThreads);

    // Set-up: the first block, cold, then hotspot warm-up on it. Its
    // checks run with the others, after the clock of a timed block.
    // It is the first block of every cycle too.
    std::optional<VerifiedBlock> first;
    {
        Scope setup(trace, "setup");
        first = verifyOne(*gen, proc, run, audit_pool, trace);
        Scope warm(trace, "hotspot.warmup");
        proc.warmup(first->block, 16);
    }
    run.hotspotOpt = true;

    startCounters(trace);
    U256 genesis_total;
    std::vector<Reference> refs;
    std::vector<double> block_ms;
    std::vector<double> best_ms(kCycleBlocks,
                                std::numeric_limits<double>::infinity());
    std::optional<VerifiedBlock> last;
    const std::int64_t first_ns = nowNs();
    const std::int64_t deadline =
        first_ns + std::int64_t(settings.seconds * 1e9);
    std::uint64_t accounts = 0;
    auto check = [&](const VerifiedBlock &v, std::size_t pos) {
        out.attempted += v.block.txs.size();
        if (!checkBlock(v, refs[pos], genesis_total, cfg.numPus, out))
            out.failed += v.block.txs.size();
    };
    for (std::size_t n = 0; n < kCycleBlocks || nowNs() < deadline; ++n) {
        const std::size_t pos = n % kCycleBlocks;
        if (pos == 0) {
            evm::MemoCache::global().clear();
            gen.emplace(settings.seed, kAccounts, kHostThreads);
        }
        const std::int64_t t0 = nowNs();
        const int root = trace.begin("block", t0);
        VerifiedBlock v = verifyOne(*gen, proc, run, audit_pool, trace);
        const std::int64_t t1 = nowNs();
        trace.end(root, t1);
        block_ms.push_back(double(t1 - t0) / 1e6);
        best_ms[pos] = std::min(best_ms[pos], block_ms.back());

        Scope s(trace, "check");
        if (refs.size() == pos)
            refs.push_back(makeReference(gen->genesis(), v.block));
        if (first) {
            genesis_total = nativeBalanceTotal(gen->genesis());
            check(*first, 0);
            first.reset();
        }
        check(v, pos);
        if (v.run.stats.finalState)
            accounts = v.run.stats.finalState->accountCount();
        last = std::move(v);
    }

    if (last && last->run.stats.finalState) {
        out.check("self-test",
                  selfTestSchedule(last->block, last->run.stats,
                                   *last->run.stats.finalState,
                                   genesis_total, cfg.numPus));
    }

    double best_cycle_ms = 0.0;
    for (double ms : best_ms)
        best_cycle_ms += ms;
    setEndToEnd(out, "tx_per_s",
                double(kCycleBlocks * kBlockTxs) * 1e3 / best_cycle_ms);
    reportBlockTimes(out, best_ms, block_ms);
    setEndToEnd(out, "setup_s", double(first_ns - settings.startNs) / 1e9);
    if (trace.on()) {
        setLayer(out, "workload.generate_ms",
                 median(trace.selfMs("workload.generate", {}, "block")));
        setLayer(out, "hotspot.warmup_ms",
                 median(trace.selfMs("hotspot.warmup")));
        setLayer(out, "core.execute_ms",
                 median(trace.selfMs("core.execute", {}, "block")));
        setLayer(out, "fault.audit_ms",
                 median(trace.selfMs("fault.audit", {}, "block")));
        setLayer(out, "evm.digest_ms",
                 median(trace.selfMs("evm.digest", {}, "block")));
        setLayer(out, "evm.state_accounts", double(accounts));
    }
    // The cycle model's counters replace the timed blocks' counters.
    startCounters(trace);
    gen.emplace(settings.seed, kAccounts, kHostThreads);
    std::vector<workload::BlockRun> sim_blocks;
    for (int b = 0; b < kSimBlocks; ++b)
        sim_blocks.push_back(gen->generateBlock(kTop8));
    const SimTally sim = simulate(gen->genesis(), sim_blocks);
    sim.reportEndToEnd(out);
    if (trace.on()) {
        sim.reportLayers(out);
        setLayer(out, "arch.db_line_hits",
                 counterPerBlock("db.line_hits", sim.blocks));
        setLayer(out, "arch.db_lines_installed",
                 counterPerBlock("db.lines_installed", sim.blocks));
    }
    return out;
}

} // namespace perfbench
