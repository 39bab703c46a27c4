#include "netlist/netlist.h"

#include <algorithm>

#include "base/error.h"

namespace fstg {

const char* gate_type_name(GateType type) {
  switch (type) {
    case GateType::kInput: return "INPUT";
    case GateType::kConst0: return "CONST0";
    case GateType::kConst1: return "CONST1";
    case GateType::kBuf: return "BUF";
    case GateType::kNot: return "NOT";
    case GateType::kAnd: return "AND";
    case GateType::kOr: return "OR";
    case GateType::kNand: return "NAND";
    case GateType::kNor: return "NOR";
    case GateType::kXor: return "XOR";
    case GateType::kXnor: return "XNOR";
  }
  return "?";
}

int Netlist::add_input(std::string name) {
  Gate g;
  g.type = GateType::kInput;
  g.name = std::move(name);
  gates_.push_back(std::move(g));
  inputs_.push_back(num_gates() - 1);
  return num_gates() - 1;
}

int Netlist::add_gate(GateType type, std::vector<int> fanins,
                      std::string name) {
  require(type != GateType::kInput, "use add_input for primary inputs");
  const int id = num_gates();
  switch (type) {
    case GateType::kConst0:
    case GateType::kConst1:
      require(fanins.empty(), "constants take no fanins");
      break;
    case GateType::kBuf:
    case GateType::kNot:
      require(fanins.size() == 1, "BUF/NOT take exactly one fanin");
      break;
    case GateType::kXor:
    case GateType::kXnor:
      require(fanins.size() >= 2, "XOR/XNOR take at least two fanins");
      break;
    default:
      require(!fanins.empty(), "AND/OR/NAND/NOR need at least one fanin");
      break;
  }
  for (int f : fanins)
    require(f >= 0 && f < id, "fanin id out of order (netlist is topological)");
  Gate g;
  g.type = type;
  g.fanins = std::move(fanins);
  g.name = std::move(name);
  gates_.push_back(std::move(g));
  return id;
}

void Netlist::add_output(int gate_id) {
  require(gate_id >= 0 && gate_id < num_gates(), "bad output gate id");
  outputs_.push_back(gate_id);
}

std::vector<std::vector<int>> Netlist::fanouts() const {
  std::vector<std::vector<int>> out(gates_.size());
  for (int id = 0; id < num_gates(); ++id)
    for (int f : gates_[static_cast<std::size_t>(id)].fanins)
      out[static_cast<std::size_t>(f)].push_back(id);
  return out;
}

std::vector<int> Netlist::levels() const {
  std::vector<int> level(gates_.size(), 0);
  for (int id = 0; id < num_gates(); ++id) {
    int l = 0;
    for (int f : gates_[static_cast<std::size_t>(id)].fanins)
      l = std::max(l, level[static_cast<std::size_t>(f)] + 1);
    level[static_cast<std::size_t>(id)] = l;
  }
  return level;
}

int Netlist::depth() const {
  std::vector<int> l = levels();
  return l.empty() ? 0 : *std::max_element(l.begin(), l.end());
}

std::vector<int> Netlist::type_histogram() const {
  std::vector<int> hist(static_cast<std::size_t>(GateType::kXnor) + 1, 0);
  for (const Gate& g : gates_) ++hist[static_cast<std::size_t>(g.type)];
  return hist;
}

void Netlist::evaluate(std::span<const std::uint64_t> input_words,
                       std::vector<std::uint64_t>& values) const {
  require(input_words.size() == inputs_.size(),
          "evaluate: one input word per primary input");
  values.resize(gates_.size());
  std::size_t input_index = 0;
  for (std::size_t id = 0; id < gates_.size(); ++id) {
    const Gate& g = gates_[id];
    const auto in = [&](std::size_t k) {
      return values[static_cast<std::size_t>(g.fanins[k])];
    };
    std::uint64_t v = 0;
    switch (g.type) {
      case GateType::kInput: v = input_words[input_index++]; break;
      case GateType::kConst0: v = 0; break;
      case GateType::kConst1: v = ~std::uint64_t{0}; break;
      case GateType::kBuf: v = in(0); break;
      case GateType::kNot: v = ~in(0); break;
      case GateType::kAnd:
      case GateType::kNand:
        v = ~std::uint64_t{0};
        for (std::size_t k = 0; k < g.fanins.size(); ++k) v &= in(k);
        if (g.type == GateType::kNand) v = ~v;
        break;
      case GateType::kOr:
      case GateType::kNor:
        for (std::size_t k = 0; k < g.fanins.size(); ++k) v |= in(k);
        if (g.type == GateType::kNor) v = ~v;
        break;
      case GateType::kXor:
      case GateType::kXnor:
        // Parity over *all* fanins; difftest corpus case xor_nary_parity
        // pins this.
        for (std::size_t k = 0; k < g.fanins.size(); ++k) v ^= in(k);
        if (g.type == GateType::kXnor) v = ~v;
        break;
    }
    values[id] = v;
  }
}

std::uint64_t Netlist::evaluate_outputs(std::uint64_t input_bits) const {
  std::vector<std::uint64_t> in(inputs_.size());
  for (std::size_t i = 0; i < in.size(); ++i) in[i] = (input_bits >> i) & 1u;
  std::vector<std::uint64_t> values;
  evaluate(in, values);
  std::uint64_t out = 0;
  for (std::size_t k = 0; k < outputs_.size(); ++k)
    out |= (values[static_cast<std::size_t>(outputs_[k])] & 1u) << k;
  return out;
}

void ScanCircuit::step(std::uint32_t state, std::uint32_t pi_bits,
                       std::uint32_t& po_bits,
                       std::uint32_t& next_state) const {
  const std::uint64_t in =
      (static_cast<std::uint64_t>(state) << num_pi) |
      (pi_bits & ((std::uint64_t{1} << num_pi) - 1));
  const std::uint64_t out = comb.evaluate_outputs(in);
  po_bits = static_cast<std::uint32_t>(out & ((std::uint64_t{1} << num_po) - 1));
  next_state = static_cast<std::uint32_t>(out >> num_po);
}

}  // namespace fstg
