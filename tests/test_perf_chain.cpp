// Timing-free performance guard for test chaining: the transfer searches
// tick their budget guard once per distinct successor visited, not once per
// input combination. Counts come from the obs registry, never a clock, so
// the test is exact on any machine.
#include <gtest/gtest.h>

#include <algorithm>

#include "atpg/generator.h"
#include "base/obs/metrics.h"
#include "kiss/benchmarks.h"
#include "netlist/synth.h"
#include "netlist/verify.h"
#include "seq/transfer.h"
#include "seq/uio.h"

namespace fstg {
namespace {

TEST(ChainGuard, TicksBoundedByDistinctSuccessorVisits) {
  // nucpwr: 32 states x 8192 inputs, but few distinct successors per state.
  const SynthesisResult synth =
      synthesize_scan_circuit(load_benchmark("nucpwr"));
  const StateTable table = read_back_table(synth.circuit);
  const GeneratorOptions options;
  ASSERT_EQ(options.transfer_max_length, 1);
  UioOptions uio_options;
  uio_options.max_length = options.uio_max_length;
  uio_options.eval_budget = options.uio_eval_budget;
  UioSet uios = derive_uio_sequences(table, uio_options);

  // With max_length 1 a search expands only its start state, so it visits
  // at most that state's distinct successors.
  const SuccessorIndex index(table);
  std::size_t max_successors = 0;
  for (int s = 0; s < table.num_states(); ++s)
    max_successors = std::max(max_successors, index.successors(s).size());

  const obs::MetricsSnapshot before = obs::snapshot_metrics();
  const GeneratorResult r =
      generate_functional_tests(table, options, std::move(uios));
  const obs::MetricsSnapshot after = obs::snapshot_metrics();
  const auto delta = [&](const char* name) {
    return after.counter_value(name) - before.counter_value(name);
  };
  const std::uint64_t ticks = delta("budget.ticks");
  const std::uint64_t expansions = delta("budget.expansions");
  // Each successful search continues the current test; each failed one
  // ends it, so there are at most hits + tests searches.
  const std::uint64_t searches = delta("atpg.transfer_hits") + r.tests.size();

  ASSERT_GT(ticks, 0u);
  EXPECT_LE(ticks, searches * max_successors);
  // Each tick still charges every input it covers: the work the budget
  // sees is far larger than the tick count.
  EXPECT_GT(expansions, 100 * ticks);
}

}  // namespace
}  // namespace fstg
