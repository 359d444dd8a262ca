/**
 * @file
 * Correctness checks made apart from the program's fast paths: a
 * program-order replay on the reference interpreter, the DAG and
 * busy-cycle invariants of a schedule, receipt equality, native
 * balance conservation and stream accounting. Every check returns an
 * empty string when it holds and a reason when it does not.
 *
 * Each workload also feeds its checks deliberately corrupted copies
 * of a real result (selfTest*) to show that they can fail.
 */

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "evm/state.hpp"
#include "evm/types.hpp"
#include "sched/engine.hpp"
#include "support/u256.hpp"
#include "workload/workload.hpp"

namespace perfbench {

using mtpu::U256;

/** Execute @p block in program order on the reference interpreter,
 *  mutating @p state; returns one receipt per transaction. */
std::vector<mtpu::evm::Receipt>
referenceReplay(mtpu::evm::WorldState &state,
                const mtpu::workload::BlockRun &block);

/** Sum of the native balance of every account (wrapping). */
U256 nativeBalanceTotal(const mtpu::evm::WorldState &state);

std::string digestsEqual(const U256 &actual, const U256 &expected);

std::string balanceConserved(const U256 &before, const U256 &after);

/** @p order is a permutation of the block's transactions in which
 *  every shipped dependency precedes its dependent. */
std::string orderRespectsDag(const std::vector<int> &order,
                             const mtpu::workload::BlockRun &block);

/** Sum of PU busy cycles is at most makespan x PUs. */
std::string busyWithinMakespan(const mtpu::sched::EngineStats &stats,
                               int pus);

/** Same count, and per transaction the same success flag and gas. */
std::string receiptsMatch(const std::vector<mtpu::evm::Receipt> &actual,
                          const std::vector<mtpu::evm::Receipt> &expected);

/** Every submitted transaction is committed or still pooled. */
std::string streamAccounting(std::uint64_t submitted,
                             std::uint64_t committed,
                             std::uint64_t pooled);

/**
 * Feed the schedule and state checks corrupted copies of one real
 * engine result: one balance changed, a dependency edge reversed, a
 * transaction dropped, busy cycles inflated. Returns "" when every
 * corruption is rejected, else which one slipped through.
 */
std::string selfTestSchedule(const mtpu::workload::BlockRun &block,
                             const mtpu::sched::EngineStats &stats,
                             const mtpu::evm::WorldState &final_state,
                             const U256 &balance_before, int pus);

/** Corrupted receipt lists (dropped tx, flipped status, gas off by
 *  one) and a changed balance must all be rejected. */
std::string selfTestReceipts(const std::vector<mtpu::evm::Receipt> &receipts,
                             const mtpu::evm::WorldState &final_state,
                             const U256 &balance_before);

/** A dropped commit and a changed recovered state must be rejected. */
std::string selfTestStream(std::uint64_t submitted, std::uint64_t committed,
                           std::uint64_t pooled,
                           const mtpu::evm::WorldState &live_state);

} // namespace perfbench
