#include "seq/transfer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>

#include "base/rng.h"
#include "fsm/state_table.h"
#include "kiss/benchmarks.h"

namespace fstg {
namespace {

/// The transfer search as it was before the successor index: one guard
/// tick per input combination of every expanded state. Kept only as the
/// reference for the differential test below.
TransferSearch per_input_transfer(const StateTable& table, int from,
                                  int max_length,
                                  const std::function<bool(int)>& target,
                                  robust::RunGuard& guard) {
  TransferSearch result;
  if (max_length <= 0) return result;
  struct Node {
    int state;
    int parent;
    std::uint32_t via;
    int depth;
  };
  std::vector<Node> arena{{from, -1, 0, 0}};
  std::deque<int> queue{0};
  std::vector<bool> seen(static_cast<std::size_t>(table.num_states()), false);
  seen[static_cast<std::size_t>(from)] = true;
  while (!queue.empty()) {
    const int id = queue.front();
    queue.pop_front();
    const Node node = arena[static_cast<std::size_t>(id)];
    if (node.depth >= max_length) continue;
    for (std::uint32_t a = 0; a < table.num_input_combos(); ++a) {
      if (!guard.tick()) {
        result.budget_exhausted = true;
        return result;
      }
      const int t = table.next(node.state, a);
      if (target(t)) {
        std::vector<std::uint32_t> seq{a};
        for (int cur = id; cur > 0;
             cur = arena[static_cast<std::size_t>(cur)].parent)
          seq.push_back(arena[static_cast<std::size_t>(cur)].via);
        std::reverse(seq.begin(), seq.end());
        result.seq = std::move(seq);
        return result;
      }
      if (seen[static_cast<std::size_t>(t)]) continue;
      seen[static_cast<std::size_t>(t)] = true;
      arena.push_back({t, id, a, node.depth + 1});
      queue.push_back(static_cast<int>(arena.size()) - 1);
    }
  }
  return result;
}

StateTable lion_table() {
  return expand_fsm(load_benchmark("lion"), FillPolicy::kError);
}

TEST(Transfer, FindsLengthOneTransfer) {
  // The paper's walkthrough: from state 0, input 01 (=1) reaches state 1.
  StateTable t = lion_table();
  auto seq = find_transfer(t, 0, 1, [](int s) { return s == 1; });
  ASSERT_TRUE(seq.has_value());
  EXPECT_EQ(*seq, (std::vector<std::uint32_t>{1}));
}

TEST(Transfer, InputOrderTieBreak) {
  // From state 1, both inputs 00 (self) and 01 (self) reach state 1; the
  // first target hit in ascending input order wins.
  StateTable t = lion_table();
  auto seq = find_transfer(t, 1, 1, [](int s) { return s == 1 || s == 0; });
  ASSERT_TRUE(seq.has_value());
  EXPECT_EQ(*seq, (std::vector<std::uint32_t>{0}));  // 1 --00--> 1
}

TEST(Transfer, RespectsMaxLength) {
  StateTable t = lion_table();
  // State 0 -> state 2 needs two steps in lion (0 ->1 ->3? actually
  // 0 --01--> 1 --10--> 3 --01--> 2: three steps minimum... verify via BFS).
  auto one = find_transfer(t, 0, 1, [](int s) { return s == 2; });
  EXPECT_FALSE(one.has_value());
  auto many = find_transfer(t, 0, 4, [](int s) { return s == 2; });
  ASSERT_TRUE(many.has_value());
  EXPECT_EQ(t.run(0, *many), 2);
  EXPECT_GE(many->size(), 2u);
}

TEST(Transfer, ZeroLengthAlwaysFails) {
  StateTable t = lion_table();
  EXPECT_FALSE(
      find_transfer(t, 0, 0, [](int) { return true; }).has_value());
}

TEST(Transfer, FromStateNotTestedAgainstTarget) {
  // Even if `from` satisfies the target, a move is required.
  StateTable t = lion_table();
  auto seq = find_transfer(t, 0, 1, [](int s) { return s == 0; });
  ASSERT_TRUE(seq.has_value());
  EXPECT_EQ(t.run(0, *seq), 0);   // 0 --00--> 0 is a real transition
  EXPECT_EQ(seq->size(), 1u);
}

TEST(Transfer, UnreachableTargetFails) {
  // In shiftreg every state is reachable; craft a single-direction chain.
  StateTable t(1, 1, 3);
  t.set(0, 0, 1, 0);
  t.set(0, 1, 1, 0);
  t.set(1, 0, 2, 0);
  t.set(1, 1, 2, 0);
  t.set(2, 0, 2, 0);
  t.set(2, 1, 2, 0);
  EXPECT_FALSE(
      find_transfer(t, 2, 5, [](int s) { return s == 0; }).has_value());
}

TEST(Transfer, ResultIsShortest) {
  StateTable t = expand_fsm(load_benchmark("shiftreg"), FillPolicy::kError);
  // From state 0 (000) to state 7 (111) takes exactly 3 shifts of 1.
  auto seq = find_transfer(t, 0, 5, [](int s) { return s == 7; });
  ASSERT_TRUE(seq.has_value());
  EXPECT_EQ(seq->size(), 3u);
  EXPECT_EQ(t.run(0, *seq), 7);
}

TEST(SuccessorIndex, DistinctSuccessorsInFirstInputOrder) {
  StateTable t(2, 1, 3);
  // State 0: inputs 0..3 go to 2, 0, 2, 1.
  t.set(0, 0, 2, 0);
  t.set(0, 1, 0, 0);
  t.set(0, 2, 2, 0);
  t.set(0, 3, 1, 0);
  for (int s = 1; s < 3; ++s)
    for (std::uint32_t a = 0; a < 4; ++a) t.set(s, a, s, 0);  // self-loops
  SuccessorIndex index(t);
  ASSERT_EQ(index.num_states(), 3);
  EXPECT_EQ(index.num_input_combos(), 4u);
  const auto succ = index.successors(0);
  ASSERT_EQ(succ.size(), 3u);
  EXPECT_EQ(succ[0].state, 2);
  EXPECT_EQ(succ[0].first_input, 0u);
  EXPECT_EQ(succ[1].state, 0);
  EXPECT_EQ(succ[1].first_input, 1u);
  EXPECT_EQ(succ[2].state, 1);
  EXPECT_EQ(succ[2].first_input, 3u);
  ASSERT_EQ(index.successors(1).size(), 1u);
  EXPECT_EQ(index.successors(1)[0].state, 1);
}

/// A random table over `states` states and 2^input_bits inputs. Successors
/// are drawn from a few "popular" states so inputs collide heavily (as in
/// real machines, where nic far exceeds the state count); some states are
/// absorbing self-loops, which leaves targets unreachable from them.
StateTable random_table(Rng& rng, int input_bits, int states) {
  StateTable t(input_bits, 1, states);
  for (int s = 0; s < states; ++s) {
    const bool absorbing = rng.chance(1, 6);
    const int fan = static_cast<int>(rng.range(1, 6));
    std::vector<int> popular;
    for (int k = 0; k < fan; ++k)
      popular.push_back(static_cast<int>(rng.below(states)));
    for (std::uint32_t a = 0; a < t.num_input_combos(); ++a) {
      int next = s;
      if (!absorbing && !rng.chance(1, 8))
        next = popular[rng.below(popular.size())];
      t.set(s, a, next, 0);
    }
  }
  return t;
}

TEST(Transfer, IndexedSearchMatchesPerInputSearch) {
  Rng rng(0x7a5f);
  int cases = 0, found = 0, exhausted = 0;
  for (int input_bits = 1; input_bits <= 13; ++input_bits) {
    const int tables = input_bits >= 11 ? 2 : 6;
    for (int k = 0; k < tables; ++k) {
      const int states = static_cast<int>(rng.range(1, 24));
      const StateTable t = random_table(rng, input_bits, states);
      const SuccessorIndex index(t);
      for (int q = 0; q < 8; ++q) {
        const int from = static_cast<int>(rng.below(states));
        const int max_length = static_cast<int>(rng.range(1, 4));
        // Targets: a random subset, possibly empty (nothing reachable).
        std::vector<bool> is_target(static_cast<std::size_t>(states));
        const std::uint64_t density = rng.range(0, 4);
        for (int s = 0; s < states; ++s)
          is_target[static_cast<std::size_t>(s)] = rng.chance(density, 16);
        const auto target = [&](int s) {
          return bool(is_target[static_cast<std::size_t>(s)]);
        };
        // Half the searches run unbudgeted, half under an expansion limit
        // that may trip anywhere in the search.
        robust::Budget budget;
        if (q % 2 == 1) budget.max_expansions = rng.range(1, 4 * t.num_input_combos());
        robust::RunGuard ref_guard(budget, "test.reference");
        robust::RunGuard guard(budget, "test.indexed");
        const TransferSearch ref =
            per_input_transfer(t, from, max_length, target, ref_guard);
        const TransferSearch got =
            find_transfer_guarded(index, from, max_length, target, guard);
        SCOPED_TRACE(testing::Message()
                     << "nic " << t.num_input_combos() << " states " << states
                     << " from " << from << " max_length " << max_length
                     << " limit " << budget.max_expansions);
        EXPECT_EQ(got.seq, ref.seq);
        EXPECT_EQ(got.budget_exhausted, ref.budget_exhausted);
        // A tick that trips charges its whole batch of inputs, so the count
        // can only be compared when the limit was not reached.
        if (!ref.budget_exhausted)
          EXPECT_EQ(guard.expansions(), ref_guard.expansions());
        EXPECT_LE(guard.expansions(),
                  ref_guard.expansions() + t.num_input_combos());
        ++cases;
        found += ref.seq.has_value() ? 1 : 0;
        exhausted += ref.budget_exhausted ? 1 : 0;
      }
    }
  }
  // The random mix must exercise every outcome.
  EXPECT_GT(found, cases / 8);
  EXPECT_GT(exhausted, 0);
  EXPECT_GT(cases - found - exhausted, 0);
}

}  // namespace
}  // namespace fstg
