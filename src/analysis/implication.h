#pragma once

#include <cstdint>
#include <vector>

#include "netlist/netlist.h"

namespace fstg::analysis {

/// Result of assuming one literal (gate = value) and propagating it to a
/// fixpoint over the netlist's gate constraints plus the learned
/// implication edges. Every recorded assignment holds in *every* input
/// combination where the assumption holds — the propagation rules are all
/// sound implications, so a conflict proves the assumption can never hold.
struct Implications {
  bool conflict = false;
  /// Implied value per gate: -1 unknown, 0, 1. Includes the assumption
  /// itself and the engine's global constants. Empty when `conflict`.
  std::vector<signed char> value;
  /// Gates with a non-global implied value (the assumption's closure),
  /// in derivation order. Empty when `conflict`.
  std::vector<int> assigned;

  signed char value_of(int gate) const {
    return value.empty() ? static_cast<signed char>(-1)
                         : value[static_cast<std::size_t>(gate)];
  }
};

/// Static implication engine over one combinational netlist.
///
/// Construction runs three passes:
///  1. *Direct implications / constant propagation*: ternary forward
///     evaluation folds Const0/Const1 gates through the netlist.
///  2. *Static learning*: every literal of every non-constant gate is
///     assumed and propagated (forward gate evaluation + backward
///     justification, which together realize the direct implication graph
///     and its contrapositive completion). Each derived assignment
///     (m = w) under assumption (g = v) records the contrapositive edge
///     (m = ¬w) → (g = ¬v) — the classic indirect implications that plain
///     per-query propagation cannot reach. A conflict proves the gate
///     constant at the opposite value.
///  3. Newly proven constants are folded back in and learning repeats
///     until no gate changes (reconvergence can cascade).
///
/// Queries (`implications`, `implies`) run propagation again with the
/// learned edges available, so they return the transitive closure of
/// direct + indirect implications. The engine never throws after
/// construction and is immutable (thread-safe to share read-only).
class ImplicationEngine {
 public:
  struct Options {
    /// Skip the quadratic learning pass above this gate count (direct
    /// implications and constant folding still run). 0 = no cap.
    int learn_max_gates = 20000;
  };

  explicit ImplicationEngine(const Netlist& nl)
      : ImplicationEngine(nl, Options()) {}
  ImplicationEngine(const Netlist& nl, const Options& options);

  const Netlist& netlist() const { return *nl_; }

  /// Statically implied constant value of a gate: -1 (unknown), 0, or 1.
  signed char constant(int gate) const {
    return base_[static_cast<std::size_t>(gate)];
  }
  const std::vector<signed char>& constants() const { return base_; }
  std::size_t num_constants() const { return num_constants_; }
  std::size_t num_learned() const { return learned_edges_; }
  bool learning_ran() const { return learning_ran_; }

  /// Closure of assuming (gate = value) on top of the global constants.
  /// `conflict` means the assumption is statically impossible (the gate is
  /// constant at the opposite value).
  Implications implications(int gate, bool value) const;

  /// Joint closure of assuming (g1 = v1) AND (g2 = v2) together.
  /// `conflict` means the two literals can never hold simultaneously —
  /// e.g. a bridge direction whose excitation condition is impossible.
  Implications implications(int g1, bool v1, int g2, bool v2) const;

  /// The closure `from` (a result of this engine's queries) extended by
  /// the literal (gate = value). Every rule is monotone, so the closure of
  /// a literal set is its unique least fixpoint: extending closure(A) by
  /// `b` yields exactly closure(A + b), and conflicts exactly when it
  /// does, while re-deducing only what `b` newly implies. A conflicting
  /// `from` stays conflicting.
  Implications extend(const Implications& from, int gate, bool value) const;

  /// Does (gate = value) statically imply (other = other_value)?
  bool implies(int gate, bool value, int other, bool other_value) const;

 private:
  /// Per-propagation working state. `queue` holds the gates still to be
  /// deduced, FIFO from index 0; `queued[g]` marks g as already waiting, so
  /// a gate whose fanins change several times is deduced once, after the
  /// last change that precedes its turn.
  struct Scratch {
    std::vector<signed char> val;
    std::vector<int> trail;
    std::vector<int> queue;
    std::vector<char> queued;
  };

  int lit(int gate, bool value) const { return 2 * gate + (value ? 1 : 0); }

  /// Assume `count` seed literals on top of `base_` and propagate to
  /// fixpoint. Fills `s.val` and `s.trail` (the non-base assignments, in
  /// derivation order); returns false on conflict.
  bool propagate(const int* seed_gates, const bool* seed_values,
                 std::size_t count, Scratch& s) const;
  /// Deduce every gate of `s.val` to fixpoint (constant folding after the
  /// global constants change). Returns false on conflict.
  bool close_all(Scratch& s) const;
  /// Deduce queued gates until the queue is empty; false on conflict.
  bool drain(Scratch& s) const;

  /// One forward/backward consistency step for gate `g` over `s.val`;
  /// appends new assignments via assign(). Returns false on conflict.
  bool deduce(int g, Scratch& s) const;
  bool assign(int g, bool v, Scratch& s) const;
  void enqueue(int g, Scratch& s) const {
    char& pending = s.queued[static_cast<std::size_t>(g)];
    if (pending) return;
    pending = 1;
    s.queue.push_back(g);
  }
  /// Package a finished propagation as a query result.
  static Implications result_of(bool ok, Scratch& s);

  void run_learning();

  const Netlist* nl_;
  std::vector<std::vector<int>> fanouts_;
  /// Global constants: -1 unknown, 0, 1.
  std::vector<signed char> base_;
  /// learned_[lit] = literals implied by `lit` beyond gate-constraint
  /// propagation (contrapositives recorded during learning).
  std::vector<std::vector<int>> learned_;
  std::size_t num_constants_ = 0;
  std::size_t learned_edges_ = 0;
  bool learning_ran_ = false;
};

}  // namespace fstg::analysis
