#include "analysis/implication.h"

#include <numeric>

namespace fstg::analysis {

namespace {

constexpr signed char kUnknown = -1;

}  // namespace

ImplicationEngine::ImplicationEngine(const Netlist& nl, const Options& options)
    : nl_(&nl) {
  const int n = nl.num_gates();
  fanouts_ = nl.fanouts();
  base_.assign(static_cast<std::size_t>(n), kUnknown);
  learned_.assign(static_cast<std::size_t>(2 * n), {});

  // Pass 1: fold the declared constants through the netlist (ternary
  // forward evaluation; deduce() also fires the backward rules, which is
  // harmless here — everything derived is an unconditional fact).
  {
    Scratch s;
    s.val = base_;
    // A conflict here would mean the netlist has no consistent evaluation,
    // which a combinational circuit cannot; keep whatever was derived.
    close_all(s);
    base_ = std::move(s.val);
  }

  const bool learn = options.learn_max_gates == 0 || n <= options.learn_max_gates;
  if (learn) run_learning();
  num_constants_ = 0;
  for (int g = 0; g < n; ++g)
    if (base_[static_cast<std::size_t>(g)] != kUnknown) ++num_constants_;
}

bool ImplicationEngine::assign(int g, bool v, Scratch& s) const {
  signed char& slot = s.val[static_cast<std::size_t>(g)];
  const signed char want = v ? 1 : 0;
  if (slot == want) return true;
  if (slot != kUnknown) return false;  // conflict
  slot = want;
  s.trail.push_back(g);
  enqueue(g, s);
  for (int f : fanouts_[static_cast<std::size_t>(g)]) enqueue(f, s);
  // Learned (indirect) implications attached to this literal.
  for (int t : learned_[static_cast<std::size_t>(lit(g, v))]) {
    if (!assign(t >> 1, (t & 1) != 0, s)) return false;
  }
  return true;
}

bool ImplicationEngine::deduce(int g, Scratch& s) const {
  const std::vector<signed char>& val = s.val;
  const Gate& gate = nl_->gate(g);
  const signed char out = val[static_cast<std::size_t>(g)];
  auto fanin_val = [&](std::size_t i) {
    return val[static_cast<std::size_t>(gate.fanins[i])];
  };

  switch (gate.type) {
    case GateType::kInput:
      return true;
    case GateType::kConst0:
      return assign(g, false, s);
    case GateType::kConst1:
      return assign(g, true, s);
    case GateType::kBuf:
    case GateType::kNot: {
      if (gate.fanins.empty()) return true;
      const bool invert = gate.type == GateType::kNot;
      const signed char in = fanin_val(0);
      if (in != kUnknown && !assign(g, invert ? in == 0 : in != 0, s))
        return false;
      if (out != kUnknown &&
          !assign(gate.fanins[0], invert ? out == 0 : out != 0, s))
        return false;
      return true;
    }
    default:
      break;
  }

  const std::size_t n = gate.fanins.size();
  if (n == 0) return true;
  int zeros = 0, ones = 0, parity = 0;
  int last_unknown = -1;
  for (std::size_t i = 0; i < n; ++i) {
    const signed char v = fanin_val(i);
    if (v == 0) ++zeros;
    else if (v == 1) { ++ones; parity ^= 1; }
    else last_unknown = gate.fanins[i];
  }
  const int unknowns = static_cast<int>(n) - zeros - ones;
  const bool and_like =
      gate.type == GateType::kAnd || gate.type == GateType::kNand;
  const bool or_like =
      gate.type == GateType::kOr || gate.type == GateType::kNor;
  const bool inverted =
      gate.type == GateType::kNand || gate.type == GateType::kNor ||
      gate.type == GateType::kXnor;

  if (and_like || or_like) {
    const bool ctrl = or_like;  // controlling fanin value: AND 0, OR 1
    const int ctrl_count = or_like ? ones : zeros;
    // Forward: a controlling fanin, or all fanins non-controlling.
    if (ctrl_count > 0) {
      if (!assign(g, ctrl != inverted, s)) return false;
    } else if (unknowns == 0) {
      if (!assign(g, !ctrl != inverted, s)) return false;
    }
    const signed char now = val[static_cast<std::size_t>(g)];
    if (now == kUnknown) return true;
    const bool gv = now != 0;
    // Backward: the non-controlled output forces every fanin; the
    // controlled output with one unknown fanin forces that fanin to the
    // controlling value.
    if (gv == (!ctrl != inverted)) {
      for (std::size_t i = 0; i < n; ++i)
        if (!assign(gate.fanins[i], !ctrl, s)) return false;
    } else if (ctrl_count == 0 && unknowns == 1) {
      if (!assign(last_unknown, ctrl, s)) return false;
    }
    return true;
  }

  if (gate.type == GateType::kXor || gate.type == GateType::kXnor) {
    if (unknowns == 0) {
      const bool gv = (parity != 0) != inverted;
      if (!assign(g, gv, s)) return false;
    } else if (unknowns == 1 && out != kUnknown) {
      const bool want = ((out != 0) != inverted) != (parity != 0);
      if (!assign(last_unknown, want, s)) return false;
    }
    return true;
  }
  return true;
}

bool ImplicationEngine::drain(Scratch& s) const {
  for (std::size_t head = 0; head < s.queue.size(); ++head) {
    const int g = s.queue[head];
    s.queued[static_cast<std::size_t>(g)] = 0;
    if (!deduce(g, s)) return false;
  }
  s.queue.clear();
  return true;
}

bool ImplicationEngine::close_all(Scratch& s) const {
  const int n = nl_->num_gates();
  s.queue.resize(static_cast<std::size_t>(n));
  std::iota(s.queue.begin(), s.queue.end(), 0);
  s.queued.assign(static_cast<std::size_t>(n), 1);
  return drain(s);
}

bool ImplicationEngine::propagate(const int* seed_gates,
                                  const bool* seed_values, std::size_t count,
                                  Scratch& s) const {
  s.val.assign(base_.begin(), base_.end());
  s.trail.clear();
  s.queue.clear();
  s.queued.assign(base_.size(), 0);
  for (std::size_t i = 0; i < count; ++i)
    if (!assign(seed_gates[i], seed_values[i], s)) return false;
  return drain(s);
}

void ImplicationEngine::run_learning() {
  const int n = nl_->num_gates();
  Scratch s;
  bool changed = true;
  while (changed) {
    changed = false;
    // Rebuild from scratch each round: every edge is re-derived, so a
    // rebuild costs nothing but avoids cross-round duplicates.
    for (auto& edges : learned_) edges.clear();
    learned_edges_ = 0;
    for (int g = 0; g < n; ++g) {
      if (base_[static_cast<std::size_t>(g)] != kUnknown) continue;
      for (int v = 0; v < 2 && base_[static_cast<std::size_t>(g)] == kUnknown;
           ++v) {
        const bool bv = v == 1;
        if (!propagate(&g, &bv, 1, s)) {
          // The assumption is impossible: the gate is constant at ¬v.
          // Fold it in and re-close the base (new constants cascade).
          base_[static_cast<std::size_t>(g)] =
              static_cast<signed char>(1 - v);
          s.val = base_;
          if (close_all(s)) base_ = s.val;
          changed = true;
          continue;
        }
        // Record contrapositives of everything derived: (m = w) under the
        // assumption (g = v) yields the indirect edge (m = ¬w) → (g = ¬v).
        const int target = lit(g, !bv);
        for (int m : s.trail) {
          if (m == g) continue;
          const bool w = s.val[static_cast<std::size_t>(m)] != 0;
          learned_[static_cast<std::size_t>(lit(m, !w))].push_back(target);
          ++learned_edges_;
        }
      }
    }
  }
  learning_ran_ = true;
}

Implications ImplicationEngine::result_of(bool ok, Scratch& s) {
  Implications result;
  if (!ok) {
    result.conflict = true;
    return result;
  }
  result.value = std::move(s.val);
  result.assigned = std::move(s.trail);
  return result;
}

Implications ImplicationEngine::implications(int gate, bool value) const {
  Scratch s;
  const bool ok = propagate(&gate, &value, 1, s);
  return result_of(ok, s);
}

Implications ImplicationEngine::implications(int g1, bool v1, int g2,
                                             bool v2) const {
  const int gates[2] = {g1, g2};
  const bool values[2] = {v1, v2};
  Scratch s;
  const bool ok = propagate(gates, values, 2, s);
  return result_of(ok, s);
}

Implications ImplicationEngine::extend(const Implications& from, int gate,
                                       bool value) const {
  if (from.conflict) return from;
  // `from` is a fixpoint, so only what the new literal changes needs
  // deducing: assign() queues exactly those gates.
  Scratch s;
  s.val = from.value;
  s.trail = from.assigned;
  s.queued.assign(s.val.size(), 0);
  const bool ok = assign(gate, value, s) && drain(s);
  return result_of(ok, s);
}

bool ImplicationEngine::implies(int gate, bool value, int other,
                                bool other_value) const {
  const Implications imp = implications(gate, value);
  if (imp.conflict) return true;  // ex falso: the antecedent never holds
  return imp.value_of(other) == (other_value ? 1 : 0);
}

}  // namespace fstg::analysis
