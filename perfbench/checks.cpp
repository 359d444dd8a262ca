#include "checks.hpp"

#include <algorithm>

#include "evm/interpreter.hpp"
#include "support/rlp.hpp"

namespace perfbench {

using namespace mtpu;

std::vector<evm::Receipt>
referenceReplay(evm::WorldState &state, const workload::BlockRun &block)
{
    evm::Interpreter interp;
    std::vector<evm::Receipt> receipts;
    receipts.reserve(block.txs.size());
    for (const workload::TxRecord &rec : block.txs)
        receipts.push_back(
            interp.applyTransaction(state, block.header, rec.tx));
    return receipts;
}

U256
nativeBalanceTotal(const evm::WorldState &state)
{
    // The canonical state encoding lists every account as
    // [address, nonce, balance, code, storage].
    rlp::Item root = rlp::decode(state.toRlp());
    U256 total;
    for (const rlp::Item &acct : root.list)
        total = total + acct.list.at(2).toWord();
    return total;
}

std::string
digestsEqual(const U256 &actual, const U256 &expected)
{
    if (actual == expected)
        return {};
    return "digest " + actual.toHex64() + " != expected "
         + expected.toHex64();
}

std::string
balanceConserved(const U256 &before, const U256 &after)
{
    if (before == after)
        return {};
    return "native balance total changed from " + before.toHex64()
         + " to " + after.toHex64();
}

std::string
orderRespectsDag(const std::vector<int> &order,
                 const workload::BlockRun &block)
{
    const std::size_t n = block.txs.size();
    if (order.size() != n)
        return "completion order holds " + std::to_string(order.size())
             + " of " + std::to_string(n) + " transactions";
    std::vector<int> position(n, -1);
    for (std::size_t pos = 0; pos < n; ++pos) {
        int tx = order[pos];
        if (tx < 0 || std::size_t(tx) >= n || position[std::size_t(tx)] >= 0)
            return "completion order is not a permutation (entry "
                 + std::to_string(tx) + ")";
        position[std::size_t(tx)] = int(pos);
    }
    for (std::size_t tx = 0; tx < n; ++tx)
        for (int dep : block.txs[tx].deps)
            if (position[std::size_t(dep)] > position[tx])
                return "tx " + std::to_string(tx)
                     + " completed before its dependency "
                     + std::to_string(dep);
    return {};
}

std::string
busyWithinMakespan(const sched::EngineStats &stats, int pus)
{
    std::uint64_t busy = 0;
    for (std::uint64_t b : stats.puBusy)
        busy += b;
    if (stats.puBusy.size() == std::size_t(pus)
        && busy <= stats.makespan * std::uint64_t(pus))
        return {};
    return "PU busy cycles " + std::to_string(busy) + " over "
         + std::to_string(stats.puBusy.size()) + " PUs exceed makespan "
         + std::to_string(stats.makespan) + " x " + std::to_string(pus);
}

std::string
receiptsMatch(const std::vector<evm::Receipt> &actual,
              const std::vector<evm::Receipt> &expected)
{
    if (actual.size() != expected.size())
        return std::to_string(actual.size()) + " receipts, expected "
             + std::to_string(expected.size());
    for (std::size_t i = 0; i < actual.size(); ++i)
        if (actual[i].success != expected[i].success
            || actual[i].gasUsed != expected[i].gasUsed)
            return "receipt " + std::to_string(i) + " (success "
                 + std::to_string(actual[i].success) + ", gas "
                 + std::to_string(actual[i].gasUsed) + ") != reference ("
                 + std::to_string(expected[i].success) + ", "
                 + std::to_string(expected[i].gasUsed) + ")";
    return {};
}

std::string
streamAccounting(std::uint64_t submitted, std::uint64_t committed,
                 std::uint64_t pooled)
{
    if (submitted == committed + pooled)
        return {};
    return "submitted " + std::to_string(submitted) + " != committed "
         + std::to_string(committed) + " + pooled "
         + std::to_string(pooled);
}

namespace {

/** A check that accepts a corrupted input is itself broken. */
std::string
mustReject(const char *corruption, const std::string &verdict)
{
    return verdict.empty() ? std::string("accepted ") + corruption : "";
}

/** First non-empty string, in argument order. */
std::string
firstError(std::initializer_list<std::string> errors)
{
    for (const std::string &e : errors)
        if (!e.empty())
            return e;
    return {};
}

/** Copy of @p state with one account's balance raised by one. */
evm::WorldState
withChangedBalance(const evm::WorldState &state, const evm::Address &who)
{
    evm::WorldState bad = state;
    bad.addBalance(who, U256(1));
    bad.commit();
    return bad;
}

} // namespace

std::string
selfTestSchedule(const workload::BlockRun &block,
                 const sched::EngineStats &stats,
                 const evm::WorldState &final_state,
                 const U256 &balance_before, int pus)
{
    std::vector<int> reversed = stats.completionOrder;
    std::string edge_error = "no dependency edge to reverse";
    for (std::size_t tx = 0; tx < block.txs.size(); ++tx) {
        if (block.txs[tx].deps.empty())
            continue;
        auto a = std::find(reversed.begin(), reversed.end(), int(tx));
        auto b = std::find(reversed.begin(), reversed.end(),
                           block.txs[tx].deps.front());
        if (a != reversed.end() && b != reversed.end()) {
            std::iter_swap(a, b);
            edge_error = mustReject("a reversed dependency edge",
                                    orderRespectsDag(reversed, block));
        }
        break;
    }

    std::vector<int> dropped = stats.completionOrder;
    if (!dropped.empty())
        dropped.pop_back();

    sched::EngineStats inflated = stats;
    if (!inflated.puBusy.empty())
        inflated.puBusy.front() += stats.makespan * std::uint64_t(pus) + 1;

    evm::WorldState bad =
        withChangedBalance(final_state, block.txs.front().tx.from);
    return firstError({
        edge_error,
        mustReject("a dropped transaction", orderRespectsDag(dropped, block)),
        mustReject("inflated busy cycles", busyWithinMakespan(inflated, pus)),
        mustReject("a changed balance (conservation)",
                   balanceConserved(balance_before, nativeBalanceTotal(bad))),
        mustReject("a changed balance (digest)",
                   digestsEqual(bad.digest(), final_state.digest())),
    });
}

std::string
selfTestReceipts(const std::vector<evm::Receipt> &receipts,
                 const evm::WorldState &final_state,
                 const U256 &balance_before)
{
    if (receipts.empty())
        return "no receipts to corrupt";
    std::vector<evm::Receipt> dropped(receipts.begin(), receipts.end() - 1);
    std::vector<evm::Receipt> flipped = receipts;
    flipped.back().success = !flipped.back().success;
    std::vector<evm::Receipt> regassed = receipts;
    regassed.front().gasUsed += 1;

    evm::WorldState bad = withChangedBalance(final_state, U256(1));
    return firstError({
        mustReject("a dropped transaction", receiptsMatch(dropped, receipts)),
        mustReject("a flipped status", receiptsMatch(flipped, receipts)),
        mustReject("a changed gas figure", receiptsMatch(regassed, receipts)),
        mustReject("a changed balance",
                   balanceConserved(balance_before, nativeBalanceTotal(bad))),
    });
}

std::string
selfTestStream(std::uint64_t submitted, std::uint64_t committed,
               std::uint64_t pooled, const evm::WorldState &live_state)
{
    evm::WorldState bad = withChangedBalance(live_state, U256(1));
    return firstError({
        mustReject("a dropped transaction",
                   streamAccounting(submitted, committed - 1, pooled)),
        mustReject("a changed balance in the recovered state",
                   digestsEqual(bad.digest(), live_state.digest())),
    });
}

} // namespace perfbench
