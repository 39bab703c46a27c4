#include "netlist/verify.h"

#include <algorithm>

#include "base/error.h"
#include "base/string_util.h"

namespace fstg {

StateTable read_back_table(const ScanCircuit& circuit, const Kiss2Fsm* fsm,
                           const Encoding* enc) {
  const int num_states = 1 << circuit.num_sv;
  StateTable table(circuit.num_pi, circuit.num_po, num_states);
  table.name = circuit.name;
  table.state_names.resize(static_cast<std::size_t>(num_states));
  for (int code = 0; code < num_states; ++code) {
    int sym = (enc != nullptr) ? enc->state_of_code[static_cast<std::size_t>(code)] : -1;
    table.state_names[static_cast<std::size_t>(code)] =
        (sym >= 0 && fsm != nullptr)
            ? fsm->state_names[static_cast<std::size_t>(sym)]
            : "c" + std::to_string(code);
  }

  // Minterm m = (code << num_pi) | ic, and bit i of m drives comb input i
  // (ScanCircuit::step's ordering). Lane l of a pass holds minterm base + l:
  // the low six inputs take the fixed lane patterns, the rest are constant
  // within a pass.
  static constexpr std::uint64_t kLaneBit[6] = {
      0xAAAAAAAAAAAAAAAAull, 0xCCCCCCCCCCCCCCCCull, 0xF0F0F0F0F0F0F0F0ull,
      0xFF00FF00FF00FF00ull, 0xFFFF0000FFFF0000ull, 0xFFFFFFFF00000000ull};
  const int num_in = circuit.comb_inputs();
  const std::uint64_t minterms = std::uint64_t{1} << num_in;
  const std::uint64_t pi_mask = (std::uint64_t{1} << circuit.num_pi) - 1;
  const std::uint64_t po_mask = (std::uint64_t{1} << circuit.num_po) - 1;
  const std::vector<int>& outputs = circuit.comb.outputs();
  std::vector<std::uint64_t> in(static_cast<std::size_t>(num_in));
  std::vector<std::uint64_t> values;
  for (std::uint64_t base = 0; base < minterms; base += 64) {
    for (int i = 0; i < num_in; ++i)
      in[static_cast<std::size_t>(i)] =
          i < 6 ? kLaneBit[i] : ((base >> i) & 1u) ? ~std::uint64_t{0} : 0;
    circuit.comb.evaluate(in, values);
    const std::uint64_t lanes = std::min<std::uint64_t>(64, minterms - base);
    for (std::uint64_t l = 0; l < lanes; ++l) {
      std::uint64_t out = 0;
      for (std::size_t k = 0; k < outputs.size(); ++k)
        out |= ((values[static_cast<std::size_t>(outputs[k])] >> l) & 1u) << k;
      const std::uint64_t m = base + l;
      table.set(static_cast<int>(m >> circuit.num_pi),
                static_cast<std::uint32_t>(m & pi_mask),
                static_cast<int>(out >> circuit.num_po),
                static_cast<std::uint32_t>(out & po_mask));
    }
  }
  return table;
}

bool circuit_matches_fsm(const ScanCircuit& circuit, const Kiss2Fsm& fsm,
                         const Encoding& enc, std::string* message) {
  return table_matches_fsm(read_back_table(circuit), fsm, enc, message);
}

bool table_matches_fsm(const StateTable& table, const Kiss2Fsm& fsm,
                       const Encoding& enc, std::string* message) {
  const int pi = fsm.num_inputs;
  for (const auto& row : fsm.rows) {
    const std::uint32_t ps_code =
        enc.code_of_state[static_cast<std::size_t>(fsm.state_index(row.present))];
    const std::uint32_t ns_code =
        enc.code_of_state[static_cast<std::size_t>(fsm.state_index(row.next))];

    // Enumerate the row's input minterms (field characters are MSB-first).
    std::uint32_t value = 0;
    std::vector<int> free_bits;
    for (int b = 0; b < pi; ++b) {
      char c = row.input[static_cast<std::size_t>(pi - 1 - b)];
      if (c == '-')
        free_bits.push_back(b);
      else if (c == '1')
        value |= 1u << b;
    }
    const std::uint32_t n_free = 1u << free_bits.size();
    for (std::uint32_t m = 0; m < n_free; ++m) {
      std::uint32_t ic = value;
      for (std::size_t k = 0; k < free_bits.size(); ++k)
        if ((m >> k) & 1u) ic |= 1u << free_bits[k];

      const std::uint32_t po = table.output(static_cast<int>(ps_code), ic);
      const auto ns =
          static_cast<std::uint32_t>(table.next(static_cast<int>(ps_code), ic));
      if (ns != ns_code) {
        if (message)
          *message = strf("state %s input %u: next code %u, expected %u",
                          row.present.c_str(), ic, ns, ns_code);
        return false;
      }
      for (int b = 0; b < fsm.num_outputs; ++b) {
        char expect =
            row.output[static_cast<std::size_t>(fsm.num_outputs - 1 - b)];
        if (expect == '-') continue;
        bool bit = (po >> b) & 1u;
        if (bit != (expect == '1')) {
          if (message)
            *message = strf("state %s input %u: output bit %d is %d, expected %c",
                            row.present.c_str(), ic, b, bit ? 1 : 0, expect);
          return false;
        }
      }
    }
  }
  return true;
}

}  // namespace fstg
