#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <vector>

#include "base/robust/budget.h"
#include "fsm/state_table.h"

namespace fstg {

/// For every state, its distinct successors ordered by the lowest input
/// that reaches each one. A breadth-first search that visits these in order
/// meets states exactly as a search over every input in ascending order
/// would, with one step per distinct successor instead of one per input.
class SuccessorIndex {
 public:
  struct Edge {
    int state;                  ///< the successor
    std::uint32_t first_input;  ///< lowest input reaching it
  };

  explicit SuccessorIndex(const StateTable& table);

  int num_states() const { return static_cast<int>(offset_.size()) - 1; }
  std::uint32_t num_input_combos() const { return nic_; }
  std::span<const Edge> successors(int state) const {
    const auto s = static_cast<std::size_t>(state);
    return std::span<const Edge>(edges_).subspan(offset_[s],
                                                 offset_[s + 1] - offset_[s]);
  }

 private:
  std::uint32_t nic_ = 0;
  std::vector<std::size_t> offset_;  ///< num_states + 1 entries
  std::vector<Edge> edges_;
};

/// Shortest input sequence of length 1..max_length from `from` to any state
/// satisfying `target`, exploring inputs in ascending order (so ties match
/// the paper's deterministic walkthrough). Returns nullopt if none exists.
/// `from` itself is not tested against `target` (the caller has already
/// decided it needs to move).
std::optional<std::vector<std::uint32_t>> find_transfer(
    const StateTable& table, int from, int max_length,
    const std::function<bool(int)>& target);

/// Typed outcome of a budgeted transfer search: `budget_exhausted`
/// distinguishes "the budget ended the BFS early" (a transfer may still
/// exist) from "no transfer exists within max_length". In both cases the
/// generator's fallback — end the test with a scan-out — is sound.
struct TransferSearch {
  std::optional<std::vector<std::uint32_t>> seq;
  bool budget_exhausted = false;
};

/// Budgeted search over a successor index: one `guard` tick per distinct
/// successor visited, charging the number of inputs it covers. A run that
/// completes charges the same expansions as a search ticking once per
/// input, and a limit trips at the same successor (the tripping tick
/// charges its whole batch). `target` must be pure within the search.
TransferSearch find_transfer_guarded(const SuccessorIndex& index, int from,
                                     int max_length,
                                     const std::function<bool(int)>& target,
                                     robust::RunGuard& guard);

/// Same search on a table (builds the index first).
TransferSearch find_transfer_guarded(const StateTable& table, int from,
                                     int max_length,
                                     const std::function<bool(int)>& target,
                                     robust::RunGuard& guard);

}  // namespace fstg
