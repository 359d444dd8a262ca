/**
 * @file
 * Workload `stream-durable`: the streaming server with durability.
 * A StreamServer with Persistence over a fresh data directory (WAL
 * record fsynced every block, snapshot every 16 heights) runs slots
 * until the measuring time is up. A StreamGenerator producer offers
 * exactly the block cap per slot, within its credits; at twice the cap
 * some submissions would be refused as nonce gaps by design. The run
 * ends with a restart: a second Persistence::recover over the last
 * episode's directory, whose chain must equal that episode's.
 *
 * The soak runs in episodes of kEpisodeSlots slots. Every episode
 * starts from genesis with a fresh Generator on the run's seed, an
 * empty mempool and an empty data directory, so slot i of every
 * episode does the same work, and its time differs between episodes
 * only by what the host takes from it. The end-to-end figures count
 * each slot at its fastest episode (the minimum of repeats, as the
 * other workloads do); the median over one long soak's slots spread
 * too widely between runs on a shared host.
 *
 * A slot is timed from one producer call to the next. The persist
 * layer is timed through a Storage decorator handed to Persistence.
 *
 * The server's cycle model runs with the hotspot optimisation off:
 * StreamServer owns its MtpuProcessor and offers no way to warm it,
 * so it is handed paperRun() as is. mtpu_sim --stream is in effect
 * the same: it passes hotspotOpt on, but the server's hotspot tables
 * are never filled.
 */

#include <algorithm>
#include <filesystem>
#include <memory>

#include <unistd.h>

#include "checks.hpp"
#include "persist/persistence.hpp"
#include "persist/storage.hpp"
#include "stream/server.hpp"
#include "workload/stream_gen.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace mtpu;

namespace {

/** Block cap = offer per slot: the paper's block size, and mtpu_sim's
 *  default stream block cap. */
constexpr std::size_t kStreamCap = 128;
/** StreamGenerator's gas limit per transaction. The builder's default
 *  30M gas budget would cut blocks at 60 of them; the budget is raised
 *  so the transaction cap, not gas, bounds a block. */
constexpr std::uint64_t kStreamTxGas = 500'000;
constexpr int kSenders = 64;
constexpr std::uint64_t kSnapshotEvery = 16;
/**
 * Slots per episode, and the first height. Snapshots land on multiples
 * of 16, so an episode writes one snapshot (height 1008, its fourth
 * block) and stops 2 blocks past it: the restart replays 2. Short
 * episodes give each slot many repeats spread over the run.
 */
constexpr std::uint64_t kEpisodeSlots = 6;
constexpr std::uint64_t kBaseHeight = 1005;

/** Times the persist layer's I/O while a round is live. */
class TimingStorage : public persist::Storage
{
  public:
    TimingStorage(std::unique_ptr<persist::Storage> inner, Trace &trace)
        : inner_(std::move(inner)), trace_(trace)
    {
    }

    void setLive(bool live) { live_ = live; }
    std::uint64_t snapshotBytes() const { return snapshotBytes_; }

    bool
    append(const std::string &name, const Bytes &data) override
    {
        Scope s(trace_, live_ ? "persist.append" : "persist.io");
        return inner_->append(name, data);
    }
    bool
    sync(const std::string &name) override
    {
        Scope s(trace_, live_ ? "persist.sync" : "persist.io");
        return inner_->sync(name);
    }
    bool
    writeAtomic(const std::string &name, const Bytes &data) override
    {
        Scope s(trace_, live_ ? "persist.snapshot" : "persist.io");
        if (live_)
            snapshotBytes_ = data.size();
        return inner_->writeAtomic(name, data);
    }
    bool
    read(const std::string &name, Bytes &out) const override
    {
        return inner_->read(name, out);
    }
    bool
    truncate(const std::string &name, std::uint64_t size) override
    {
        return inner_->truncate(name, size);
    }
    bool
    remove(const std::string &name) override
    {
        return inner_->remove(name);
    }
    std::uint64_t
    size(const std::string &name) const override
    {
        return inner_->size(name);
    }
    std::vector<std::string>
    list() const override
    {
        return inner_->list();
    }

  private:
    std::unique_ptr<persist::Storage> inner_;
    Trace &trace_;
    bool live_ = false;
    std::uint64_t snapshotBytes_ = 0;
};

/** What one episode leaves for the run's figures and the restart. */
struct Episode
{
    stream::SoakReport rep;
    bool ok = false;
    std::int64_t firstSlotNs = 0;
    std::vector<double> slotMs; ///< whole producer-to-producer intervals
    U256 live;                  ///< chain digest at the end
    std::uint64_t accounts = 0;
    std::uint64_t snapshotBytes = 0;
};

/**
 * One soak of kEpisodeSlots slots from genesis over the emptied data
 * directory, and its checks. The @p first episode also adds its blocks
 * to @p sim and runs the self-test.
 */
Episode
runEpisode(const RunSettings &settings, const persist::PersistConfig &pcfg,
           bool first, SimTally &sim, Trace &trace, RunResult &out)
{
    std::filesystem::remove_all(pcfg.dataDir);
    workload::Generator gen(settings.seed, kAccounts, kHostThreads);
    const arch::MtpuConfig cfg = paperConfig();
    const core::RunOptions run = paperRun();

    auto storage = std::make_unique<TimingStorage>(
        std::make_unique<persist::FileStorage>(pcfg.dataDir), trace);
    TimingStorage *timing = storage.get();
    persist::Persistence persist(pcfg, std::move(storage));
    persist::RecoveryResult fresh = persist.recover(cfg, run, gen.genesis());
    out.check("fresh recovery", fresh.ok ? "" : fresh.error);

    stream::StreamConfig scfg;
    scfg.block.maxTxs = kStreamCap;
    scfg.block.baseHeight = kBaseHeight;
    scfg.block.gasBudget = kStreamCap * kStreamTxGas;
    // A Zipf-hot sender draws about a fifth of a slot's offer, and at
    // times more than the default 32-nonce window: the mempool refuses
    // those as nonce gaps by design. A window and a per-sender limit of
    // one whole offer admit every transaction on every seed.
    scfg.pool.nonceWindow = kStreamCap;
    scfg.pool.perSenderLimit = kStreamCap;
    scfg.keepBlocks = true;
    stream::StreamServer server(cfg, run, gen.genesis(), gen.contracts(),
                                scfg);
    server.setChainState(fresh.state);
    server.attachPersistence(&persist);
    workload::StreamGenerator wires(gen, settings.seed, kSenders);

    std::vector<std::int64_t> slot_starts;
    int slot_span = -1;
    auto producer = [&](std::uint64_t slot, std::size_t credits) {
        const std::int64_t now = nowNs();
        if (slot_span >= 0)
            trace.end(slot_span, now);
        slot_starts.push_back(now);
        slot_span = trace.begin("slot", now);
        Scope s(trace, "workload.draft");
        wires.resyncNonces([&](const evm::Address &a) {
            return server.mempool().pendingNonce(a);
        });
        return wires.slotTxs(slot, std::min(kStreamCap, credits));
    };

    Episode ep;
    timing->setLive(true);
    ep.rep = server.run(producer, kEpisodeSlots);
    timing->setLive(false);
    trace.end(slot_span, nowNs());
    ep.firstSlotNs = slot_starts.front();
    // The last slot also holds run()'s own wrap-up, so only whole
    // producer-to-producer intervals count.
    for (std::size_t i = 1; i < slot_starts.size(); ++i)
        ep.slotMs.push_back(double(slot_starts[i] - slot_starts[i - 1])
                            / 1e6);
    if (first)
        for (std::size_t i = 0; i < ep.rep.committedBlocks.size(); ++i)
            sim.addCycles(ep.rep.blockLog[i].makespan, ep.rep.blockLog[i].txs,
                          scalarBaselineCycles(ep.rep.committedBlocks[i]));

    Scope check(trace, "check");
    {
        Scope s(trace, "evm.digest");
        ep.live = server.chainState().digest();
    }
    ep.ok = out.check("soak outcome",
                      ep.rep.outcome == stream::SoakOutcome::Ok
                          ? ""
                          : stream::soakOutcomeName(ep.rep.outcome));
    ep.ok &= out.check("live digest",
                       digestsEqual(ep.live, ep.rep.chainDigest));
    ep.ok &= out.check("stream accounting",
                       streamAccounting(ep.rep.submitted,
                                        ep.rep.committedTxs,
                                        server.mempool().size()));
    ep.ok &= out.check("balance conservation",
                       balanceConserved(nativeBalanceTotal(gen.genesis()),
                                        nativeBalanceTotal(
                                            server.chainState())));
    ep.ok &= out.check("WAL", ep.rep.walBroken ? "broken" : "");
    if (first && ep.ok)
        out.check("self-test",
                  selfTestStream(ep.rep.submitted, ep.rep.committedTxs,
                                 server.mempool().size(),
                                 server.chainState()));
    ep.accounts = server.chainState().accountCount();
    ep.snapshotBytes = timing->snapshotBytes();
    return ep;
}

} // namespace

RunResult
runStream(const RunSettings &settings, Trace &trace)
{
    RunResult out;
    persist::PersistConfig pcfg;
    pcfg.dataDir = settings.outDir + "/stream-" + std::to_string(getpid());
    pcfg.snapshotEvery = kSnapshotEvery;

    auto count = [&](const Episode &ep, bool ok) {
        out.attempted += ep.rep.submitted;
        out.failed += ok ? ep.rep.submitted - ep.rep.committedTxs
                         : ep.rep.submitted;
    };
    SimTally sim;
    std::vector<double> best_ms, slot_ms;
    Episode ep;
    std::int64_t first_ns = 0, deadline = 0;
    for (bool first = true;; first = false) {
        const std::int64_t start = nowNs();
        ep = runEpisode(settings, pcfg, first, sim, trace, out);
        const std::int64_t took = nowNs() - start;
        if (first) {
            first_ns = ep.firstSlotNs;
            deadline = first_ns + std::int64_t(settings.seconds * 1e9);
            best_ms = ep.slotMs;
        }
        for (std::size_t i = 0; i < best_ms.size(); ++i)
            best_ms[i] = std::min(best_ms[i], ep.slotMs[i]);
        slot_ms.insert(slot_ms.end(), ep.slotMs.begin(), ep.slotMs.end());
        // Stop at the episode boundary nearest the deadline.
        if (!ep.ok || nowNs() + took / 2 >= deadline)
            break;
        count(ep, ep.ok);
    }

    // Restart: a second recovery over the last episode's directory.
    bool restarted;
    double recover_ms = 0.0;
    std::uint64_t recover_replayed = 0;
    {
        Scope check(trace, "check");
        workload::Generator gen(settings.seed, kAccounts, kHostThreads);
        Scope s(trace, "persist.recover");
        persist::Persistence again(
            pcfg, std::make_unique<TimingStorage>(
                      std::make_unique<persist::FileStorage>(pcfg.dataDir),
                      trace));
        persist::RecoveryResult rec =
            again.recover(paperConfig(), paperRun(), gen.genesis());
        recover_ms = s.stop();
        recover_replayed = rec.blocksReplayed;
        restarted = out.check("restart recovery", rec.ok ? "" : rec.error);
        restarted &= out.check("recovered digest vs live chain",
                               digestsEqual(rec.chainDigest, ep.live));
    }
    std::filesystem::remove_all(pcfg.dataDir);
    count(ep, ep.ok && restarted);

    double best_total_ms = 0.0;
    for (double ms : best_ms)
        best_total_ms += ms;
    const double slot_txs =
        double(ep.rep.committedTxs) / double(ep.rep.slots);
    setEndToEnd(out, "tx_per_s",
                slot_txs * double(best_ms.size()) * 1e3 / best_total_ms);
    reportBlockTimes(out, best_ms, slot_ms);
    setEndToEnd(out, "setup_s", double(first_ns - settings.startNs) / 1e9);
    sim.reportEndToEnd(out);
    if (trace.on()) {
        setLayer(out, "workload.draft_ms",
                 median(trace.selfMs("workload.draft", {}, "slot")));
        setLayer(out, "stream.slot_self_ms",
                 median(trace.selfMs("slot", {}, "slot")));
        setLayer(out, "persist.append_ms",
                 median(trace.selfMs("persist.append", {}, "slot")));
        setLayer(out, "persist.sync_ms",
                 median(trace.selfMs("persist.sync", {}, "slot")));
        setLayer(out, "persist.snapshot_ms",
                 median(trace.selfMs("persist.snapshot", {}, "slot")));
        setLayer(out, "evm.digest_ms", median(trace.selfMs("evm.digest")));
        setLayer(out, "evm.state_accounts", double(ep.accounts));
        setLayer(out, "stream.admitted",
                 double(ep.rep.pool.admitted) / double(ep.rep.slots));
        setLayer(out, "stream.peak_pool_depth",
                 double(ep.rep.pool.peakDepth));
        setLayer(out, "persist.wal_bytes_per_block",
                 ep.rep.walAppends
                     ? double(ep.rep.walBytes) / double(ep.rep.walAppends)
                     : 0.0);
        setLayer(out, "persist.snapshot_bytes", double(ep.snapshotBytes));
        setLayer(out, "persist.recover_ms", recover_ms);
        setLayer(out, "persist.recover_replayed_blocks",
                 double(recover_replayed));
    }
    return out;
}

} // namespace perfbench
