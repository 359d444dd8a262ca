/**
 * @file
 * Workloads `fast-top8` and `fast-hot`: the functional fast tier
 * (core::FunctionalPipeline, speculative fan-out at kHostThreads)
 * replaying a fixed, pre-generated block set in passes.
 *
 *  - fast-top8 chains kTop8Blocks natural TOP8 blocks at dependency
 *    ratio kDepRatio: mostly independent transactions.
 *  - fast-hot runs commutative mode over one block of each of the six
 *    workload packs, in an order drawn from the seed: contended
 *    writes, validation and bounds misses.
 *
 * Each pass starts a fresh pipeline from genesis with the memo cache
 * cleared, so every pass does identical work; the decode cache stays
 * warm after the set-up pass. A pass is timed over its executeBlock()
 * calls only. Every pass is checked against one sequential
 * reference-interpreter replay of the same blocks.
 *
 * Since the passes are identical, a block's time differs between
 * passes only by what the host takes from it, and the end-to-end
 * figures count each block at its fastest pass of the run (the
 * minimum of repeats, as timeit reports it). On a shared host the
 * median of pass times follows how much of the run fell in the
 * host's slow phases, and spread too widely between runs.
 */

#include <algorithm>
#include <memory>
#include <optional>

#include "checks.hpp"
#include "core/functional.hpp"
#include "obs/metrics.hpp"
#include "support/rng.hpp"
#include "workload/packs.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace mtpu;

namespace {

constexpr int kTop8Blocks = 32;

struct BlockSet
{
    std::vector<workload::BlockRun> blocks;
    std::vector<std::string> labels; ///< pack name per block, or ""
};

BlockSet
makeBlocks(workload::Generator &gen, bool hot, std::uint64_t seed,
           Trace &trace)
{
    BlockSet set;
    Scope s(trace, "workload.generate");
    if (hot) {
        workload::PackParams params;
        params.txCount = kBlockTxs;
        // Pack drafts draw no randomness, so the seed orders the packs.
        std::vector<workload::Pack> packs = workload::allPacks();
        Rng rng(seed);
        for (std::size_t i = packs.size(); i > 1; --i)
            std::swap(packs[i - 1], packs[rng.below(i)]);
        for (workload::Pack pack : packs) {
            set.blocks.push_back(workload::buildPackBlock(gen, pack, params));
            set.labels.push_back(workload::packName(pack));
        }
    } else {
        const workload::BlockParams params{kBlockTxs, kDepRatio, -1.0, 1.0,
                                           {}};
        for (int b = 0; b < kTop8Blocks; ++b) {
            set.blocks.push_back(gen.generateBlock(params));
            set.labels.emplace_back();
        }
    }
    return set;
}

/** The sequential reference replay every pass is checked against. */
struct Reference
{
    std::vector<std::vector<evm::Receipt>> receipts;
    U256 digest;
    U256 balanceTotal;
};

Reference
makeReference(const evm::WorldState &genesis, const BlockSet &set,
              RunResult &out)
{
    Reference ref;
    ref.balanceTotal = nativeBalanceTotal(genesis);
    evm::WorldState state = genesis;
    for (const workload::BlockRun &block : set.blocks) {
        ref.receipts.push_back(referenceReplay(state, block));
        out.check("reference balance conservation",
                  balanceConserved(ref.balanceTotal,
                                   nativeBalanceTotal(state)));
    }
    ref.digest = state.digest();
    return ref;
}

/** One timed pass; the pipeline is kept so the pass can be checked
 *  after the clock stops. */
struct Pass
{
    std::unique_ptr<core::FunctionalPipeline> pipe;
    std::vector<core::FunctionalBlockResult> results;
    std::vector<double> blockMs;
    std::uint64_t txs = 0;
    std::uint64_t replayed = 0;
    std::uint64_t reexecuted = 0;
};

Pass
runPass(const evm::WorldState &genesis, const BlockSet &set, bool hot,
        Trace &trace)
{
    evm::MemoCache::global().clear();
    Pass pass;
    pass.pipe = std::make_unique<core::FunctionalPipeline>(genesis,
                                                           kHostThreads);
    pass.pipe->setCommutative(hot);
    pass.results.reserve(set.blocks.size());
    for (std::size_t i = 0; i < set.blocks.size(); ++i) {
        const std::int64_t t0 = nowNs();
        const int root = trace.begin("block", t0);
        {
            Scope s(trace, "core.fast_block", set.labels[i]);
            pass.results.push_back(pass.pipe->executeBlock(set.blocks[i]));
        }
        const std::int64_t t1 = nowNs();
        trace.end(root, t1);
        pass.blockMs.push_back(double(t1 - t0) / 1e6);
    }
    for (const core::FunctionalBlockResult &r : pass.results) {
        pass.txs += r.txCount;
        pass.replayed += r.replayed;
        pass.reexecuted += r.reexecuted;
    }
    return pass;
}

/** Check one pass against the reference; counts its operations. */
void
checkPass(const Pass &pass, const Reference &ref, RunResult &out)
{
    bool ok = true;
    for (std::size_t i = 0; i < pass.results.size(); ++i)
        ok &= out.check("receipts of block " + std::to_string(i),
                        receiptsMatch(pass.results[i].receipts,
                                      ref.receipts[i]));
    ok &= out.check("pass digest vs reference replay",
                    digestsEqual(pass.pipe->state().digest(), ref.digest));
    ok &= out.check("balance conservation",
                    balanceConserved(ref.balanceTotal,
                                     nativeBalanceTotal(pass.pipe->state())));
    out.attempted += pass.txs;
    out.failed += ok ? 0 : pass.txs;
}

} // namespace

RunResult
runFast(const RunSettings &settings, Trace &trace, bool hot)
{
    RunResult out;
    workload::Generator gen(settings.seed, kAccounts, kHostThreads);
    const evm::WorldState &genesis = gen.genesis();

    // Set-up is the program's own: generation with the consensus stage
    // and a warm-up pass that fills the decode cache. The reference
    // replay and every check run after a pass's clock stops.
    BlockSet set;
    std::optional<Pass> warm;
    {
        Scope setup(trace, "setup");
        set = makeBlocks(gen, hot, settings.seed, trace);
        warm = runPass(genesis, set, hot, trace);
    }

    startCounters(trace);
    std::optional<Reference> ref;
    std::vector<double> best_ms, block_ms;
    Pass last;
    std::uint64_t passes = 0;
    const std::int64_t first_ns = nowNs();
    const std::int64_t deadline =
        first_ns + std::int64_t(settings.seconds * 1e9);
    while (passes == 0 || nowNs() < deadline) {
        last = runPass(genesis, set, hot, trace);
        ++passes;
        if (best_ms.empty())
            best_ms = last.blockMs;
        for (std::size_t i = 0; i < best_ms.size(); ++i)
            best_ms[i] = std::min(best_ms[i], last.blockMs[i]);
        block_ms.insert(block_ms.end(), last.blockMs.begin(),
                        last.blockMs.end());

        Scope s(trace, "check");
        if (!ref) {
            ref = makeReference(genesis, set, out);
            checkPass(*warm, *ref, out);
            warm.reset();
        }
        checkPass(last, *ref, out);
    }

    out.check("self-test", selfTestReceipts(last.results.back().receipts,
                                            genesis, ref->balanceTotal));

    double best_pass_ms = 0.0;
    for (double ms : best_ms)
        best_pass_ms += ms;
    setEndToEnd(out, "tx_per_s", double(last.txs) * 1e3 / best_pass_ms);
    reportBlockTimes(out, best_ms, block_ms);
    setEndToEnd(out, "setup_s", double(first_ns - settings.startNs) / 1e9);
    if (trace.on()) {
        // Every pass does identical work, so per-pass counts are exact.
        const double blocks = double(passes * set.blocks.size());
        const double pass_blocks = double(set.blocks.size());
        setLayer(out, "workload.generate_ms",
                 median(trace.selfMs("workload.generate")));
        setLayer(out, "core.fast_block_ms",
                 median(trace.selfMs("core.fast_block", {}, "block")));
        for (const std::string &label : set.labels)
            if (!label.empty())
                setLayer(out, "core.fast_block_ms." + label,
                         median(trace.selfMs("core.fast_block", label,
                                             "block")));
        setLayer(out, "core.fast_replayed",
                 double(last.replayed) / pass_blocks);
        setLayer(out, "core.fast_reexecuted",
                 double(last.reexecuted) / pass_blocks);
        const obs::Snapshot snap = obs::Registry::global().snapshot();
        auto ratio = [&](const char *hit, std::initializer_list<const char *>
                                              others) {
            double hits = double(snap.counter(hit)), all = hits;
            for (const char *name : others)
                all += double(snap.counter(name));
            return all > 0 ? hits / all : 0.0;
        };
        setLayer(out, "evm.decode_hit_ratio",
                 ratio("evm.decode_cache.hit", {"evm.decode_cache.miss"}));
        setLayer(out, "evm.memo_hit_ratio",
                 ratio("evm.memo.hit", {"evm.memo.miss", "evm.memo.invalid"}));
        // spec.valid.checks counts every validation, passed or not.
        setLayer(out, "evm.spec_pass_ratio",
                 snap.counter("spec.valid.checks")
                     ? double(snap.counter("spec.valid.pass"))
                           / double(snap.counter("spec.valid.checks"))
                     : 0.0);
        setLayer(out, "evm.commutative_hits",
                 double(snap.counter("evm.spec.commutative_hit")) / blocks);
        setLayer(out, "evm.commutative_bounds_miss",
                 double(snap.counter("evm.spec.commutative_bounds_miss"))
                     / blocks);
    }
    // The cycle model over the same blocks: its counters replace the
    // pass counters, which have been read.
    startCounters(trace);
    const SimTally sim = simulate(genesis, set.blocks);
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
