#include "seq/transfer.h"

#include <algorithm>
#include <deque>

#include "base/error.h"

namespace fstg {

SuccessorIndex::SuccessorIndex(const StateTable& table)
    : nic_(table.num_input_combos()) {
  const int n = table.num_states();
  offset_.reserve(static_cast<std::size_t>(n) + 1);
  offset_.push_back(0);
  // last_seen[t] = the last state that listed t as a successor.
  std::vector<int> last_seen(static_cast<std::size_t>(n), -1);
  for (int s = 0; s < n; ++s) {
    for (std::uint32_t a = 0; a < nic_; ++a) {
      const int t = table.next(s, a);
      if (last_seen[static_cast<std::size_t>(t)] == s) continue;
      last_seen[static_cast<std::size_t>(t)] = s;
      edges_.push_back({t, a});
    }
    offset_.push_back(edges_.size());
  }
}

std::optional<std::vector<std::uint32_t>> find_transfer(
    const StateTable& table, int from, int max_length,
    const std::function<bool(int)>& target) {
  robust::RunGuard guard(robust::Budget{}, "transfer.bfs");
  return find_transfer_guarded(table, from, max_length, target, guard).seq;
}

TransferSearch find_transfer_guarded(const StateTable& table, int from,
                                     int max_length,
                                     const std::function<bool(int)>& target,
                                     robust::RunGuard& guard) {
  return find_transfer_guarded(SuccessorIndex(table), from, max_length, target,
                               guard);
}

TransferSearch find_transfer_guarded(const SuccessorIndex& index, int from,
                                     int max_length,
                                     const std::function<bool(int)>& target,
                                     robust::RunGuard& guard) {
  require(from >= 0 && from < index.num_states(), "find_transfer: bad state");
  TransferSearch result;
  if (max_length <= 0) return result;

  struct Node {
    int state;
    int parent;
    std::uint32_t via;
    int depth;
  };
  std::vector<Node> arena;
  std::deque<int> queue;
  std::vector<bool> seen(static_cast<std::size_t>(index.num_states()), false);

  arena.push_back({from, -1, 0, 0});
  queue.push_back(0);
  seen[static_cast<std::size_t>(from)] = true;

  const std::uint32_t nic = index.num_input_combos();
  while (!queue.empty()) {
    const int id = queue.front();
    queue.pop_front();
    const Node node = arena[static_cast<std::size_t>(id)];
    if (node.depth >= max_length) continue;
    const std::span<const SuccessorIndex::Edge> succ =
        index.successors(node.state);
    // Inputs between two first-inputs lead to earlier successors, which
    // were already rejected; each tick charges them with the next one, and
    // the last tick also charges the inputs after the last first-input.
    std::uint32_t charged = 0;
    for (std::size_t j = 0; j < succ.size(); ++j) {
      const auto [t, a] = succ[j];
      const bool hit = target(t);
      const std::uint32_t upto = (hit || j + 1 < succ.size()) ? a + 1 : nic;
      if (!guard.tick(upto - charged)) {
        result.budget_exhausted = true;
        return result;
      }
      charged = upto;
      if (hit) {
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

}  // namespace fstg
