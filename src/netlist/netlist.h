#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace fstg {

enum class GateType : std::uint8_t {
  kInput,
  kConst0,
  kConst1,
  kBuf,
  kNot,
  kAnd,
  kOr,
  kNand,
  kNor,
  kXor,
  kXnor,
};

const char* gate_type_name(GateType type);

/// One gate; its id is its index in the netlist. Fanins are gate ids.
struct Gate {
  GateType type = GateType::kBuf;
  std::vector<int> fanins;
  std::string name;
};

/// A combinational gate-level netlist. Gates must be added in topological
/// order (every fanin id < the gate's own id), which the builder enforces;
/// this makes single-pass levelized evaluation trivial.
class Netlist {
 public:
  /// Add a primary-input gate; returns its id.
  int add_input(std::string name);
  /// Add a logic gate; fanin ids must already exist. Returns its id.
  int add_gate(GateType type, std::vector<int> fanins, std::string name = "");
  /// Mark a gate as driving a primary output (in order of registration).
  void add_output(int gate_id);

  int num_gates() const { return static_cast<int>(gates_.size()); }
  int num_inputs() const { return static_cast<int>(inputs_.size()); }
  int num_outputs() const { return static_cast<int>(outputs_.size()); }
  const Gate& gate(int id) const { return gates_[static_cast<std::size_t>(id)]; }
  const std::vector<int>& inputs() const { return inputs_; }
  const std::vector<int>& outputs() const { return outputs_; }

  /// fanouts()[g] = ids of gates with g among their fanins.
  std::vector<std::vector<int>> fanouts() const;

  /// Logic level of each gate (inputs/constants = 0).
  std::vector<int> levels() const;
  int depth() const;

  /// Count of gates per type (reporting).
  std::vector<int> type_histogram() const;

  /// Evaluate 64 input patterns at once: bit l of `input_words[i]` is the
  /// i-th primary input's value in lane l. Fills `values` with one word per
  /// gate (bit l = the gate's value in lane l). The fault-free reference
  /// used by read-back verification; the fault simulator lives in sim/.
  void evaluate(std::span<const std::uint64_t> input_words,
                std::vector<std::uint64_t>& values) const;

  /// Output word for one input pattern (bit i of `input_bits` = i-th
  /// primary input, bit k of the result = k-th primary output): lane 0 of
  /// `evaluate`.
  std::uint64_t evaluate_outputs(std::uint64_t input_bits) const;

 private:
  std::vector<Gate> gates_;
  std::vector<int> inputs_;
  std::vector<int> outputs_;
};

/// A full-scan sequential circuit: combinational core plus scan bookkeeping.
/// The core's inputs are ordered [primary inputs][present-state variables]
/// and its outputs [primary outputs][next-state variables].
struct ScanCircuit {
  Netlist comb;
  int num_pi = 0;
  int num_po = 0;
  int num_sv = 0;
  std::string name;

  int comb_inputs() const { return num_pi + num_sv; }
  int comb_outputs() const { return num_po + num_sv; }

  /// One functional clock: (present state, primary inputs) ->
  /// (primary outputs, next state).
  void step(std::uint32_t state, std::uint32_t pi_bits,
            std::uint32_t& po_bits, std::uint32_t& next_state) const;
};

}  // namespace fstg
