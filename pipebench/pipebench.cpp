// pipebench — in-process companion of pipebench/run.py.
//
//   pipebench stream      --seed N
//   pipebench serve-warm  --socket P --out-dir D
//   pipebench serve-load  --socket P --seed N --seconds S --tests-dir D
//                         --out F
//   pipebench trace       --workload W --out F [--circuits a,b,..]
//                         [--seed N] [--tests-dir D] [--out-dir D]
//   pipebench check-gen   --dir D --circuits a,b,.. [--seed N]
//   pipebench check-sim   --dir D --circuits a,b,.. [--seed N]
//
// `stream` prints the seeded serve-mixed request stream. `serve-warm` and
// `serve-load` drive a running `fstg serve` daemon from the outside through
// serve::Client. `trace` makes, in this process, the same sequence of
// public library calls that `fstg gen`, `fstg sim` and the serve handlers
// make, with a span around each call, and prints the per-layer figures.
// `check-gen` and `check-sim` are the output checks that need the library.
// Every subcommand prints one JSON object on stdout and exits 0 on
// success, 1 on bad usage and 2 on any failure.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "analysis/static_faults.h"
#include "atpg/coverage.h"
#include "atpg/cycles.h"
#include "atpg/generator.h"
#include "atpg/test_io.h"
#include "base/error.h"
#include "base/log.h"
#include "base/obs/json_check.h"
#include "base/obs/metrics.h"
#include "base/robust/budget.h"
#include "difftest/reference_sim.h"
#include "fault/bridging.h"
#include "fault/compaction.h"
#include "fault/fault.h"
#include "fault/fault_sim.h"
#include "fault/redundancy.h"
#include "harness/experiment.h"
#include "kiss/benchmarks.h"
#include "lint/diagnostic.h"
#include "lint/fsm_lint.h"
#include "netlist/reach.h"
#include "netlist/synth.h"
#include "netlist/verify.h"
#include "seq/uio.h"
#include "serve/protocol.h"
#include "serve/server.h"

namespace {

using namespace fstg;
using Clock = std::chrono::steady_clock;

/// The serve-mixed circuit set: small and mid-size machines whose compiled
/// experiments all fit the daemon's default hot cache (8 circuits).
const std::vector<std::string> kServeCircuits = {
    "bbsse", "cse", "ex4", "mark1", "dk16", "ex2", "keyb", "log"};

/// Length of the serve-mixed request stream. Every run sends it at least
/// once, so the latency percentiles always rest on at least this many
/// samples.
constexpr int kPassRequests = 128;

/// Closed-loop client connections of serve-mixed, one per daemon worker.
constexpr int kClients = 4;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

struct Args {
  std::map<std::string, std::string> kv;

  std::string get(const std::string& key, const std::string& dflt = "") const {
    auto it = kv.find(key);
    return it == kv.end() ? dflt : it->second;
  }
  std::string need(const std::string& key) const {
    auto it = kv.find(key);
    if (it == kv.end()) throw std::invalid_argument("missing --" + key);
    return it->second;
  }
  long long num(const std::string& key, long long dflt) const {
    auto it = kv.find(key);
    return it == kv.end() ? dflt : std::stoll(it->second);
  }
};

std::vector<std::string> split_csv(const std::string& text) {
  std::vector<std::string> out;
  std::stringstream ss(text);
  for (std::string item; std::getline(ss, item, ',');)
    if (!item.empty()) out.push_back(item);
  return out;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw Error("cannot read " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  out << text;
  if (!out) throw Error("cannot write " + path);
}

std::string jstr(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string jnum(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6f", v);
  return buf;
}

// --- the seeded serve-mixed request stream ----------------------------------

struct StreamItem {
  std::string type;  ///< "gen" or "sim"
  std::string circuit;
  bool static_prune = false;
};

/// The stream is drawn in pairs of 16-request blocks. In each block every
/// circuit appears once as a `gen` and once as a `sim`, in a seeded order;
/// a seeded half of the circuits send their sim with static_prune in the
/// first block of the pair and the other half in the second. So every seed
/// asks for the same work, half gens and half sims with half of the sims
/// pruned, and the seed varies only the order — which requests contend.
/// Only mt19937_64's raw output is used (its sequence is fixed by the
/// standard), so a seed gives the same stream with every standard library.
std::vector<StreamItem> make_stream(std::uint64_t seed, int count) {
  std::mt19937_64 rng(seed);
  const auto shuffle = [&](auto& v) {
    for (std::size_t i = v.size() - 1; i > 0; --i)
      std::swap(v[i], v[rng() % (i + 1)]);
  };
  const std::size_t n = kServeCircuits.size();
  std::vector<StreamItem> out;
  while (static_cast<int>(out.size()) < count) {
    std::vector<std::size_t> order(n);
    for (std::size_t c = 0; c < n; ++c) order[c] = c;
    shuffle(order);
    std::vector<bool> prune_first(n, false);
    for (std::size_t k = 0; k < n / 2; ++k) prune_first[order[k]] = true;
    for (int half = 0; half < 2; ++half) {
      std::vector<StreamItem> block;
      for (std::size_t c = 0; c < n; ++c) {
        block.push_back({"gen", kServeCircuits[c], false});
        block.push_back({"sim", kServeCircuits[c], prune_first[c] == (half == 0)});
      }
      shuffle(block);
      for (const StreamItem& item : block)
        if (static_cast<int>(out.size()) < count) out.push_back(item);
    }
  }
  return out;
}

int cmd_stream(const Args& args) {
  const auto stream =
      make_stream(static_cast<std::uint64_t>(args.num("seed", 1)), kPassRequests);
  for (std::size_t i = 0; i < stream.size(); ++i)
    std::printf("%zu %s %s %d\n", i, stream[i].type.c_str(),
                stream[i].circuit.c_str(), stream[i].static_prune ? 1 : 0);
  return 0;
}

// --- serve client side -------------------------------------------------------

std::string request_json(const std::string& id, const StreamItem& item,
                         const std::string& tests) {
  serve::ServeRequest req;
  req.id = id;
  req.type = item.type;
  req.circuit = item.circuit;
  req.static_prune = item.static_prune;
  if (item.type == "sim") req.tests = tests;
  return serve::serve_request_to_json(req);
}

void connect_or_throw(serve::Client& client, const std::string& socket) {
  std::string error;
  if (!client.connect_unix(socket, 30'000, &error))
    throw Error("cannot connect to " + socket + ": " + error);
}

std::string round_trip(serve::Client& client, const std::string& payload) {
  std::string error;
  std::string reply;
  if (!client.send(payload, &error) || !client.recv(&reply, 120'000, &error))
    throw Error("serve round trip failed: " + error);
  return reply;
}

/// Field of a top-level response, or of its nested "result" object, as
/// raw text (strings unescaped). Only for the fields this tool reads.
std::string response_field(const std::string& response, const std::string& key,
                           bool in_result) {
  std::vector<obs::JsonField> fields;
  std::string error;
  std::string text = response;
  if (in_result) {
    const std::size_t at = response.find("\"result\": ");
    if (at == std::string::npos) return "";
    text = response.substr(at + 10, response.size() - (at + 10) - 1);
  }
  if (!obs::json_parse_object(text, &fields, nullptr, &error)) return "";
  const obs::JsonField* f = obs::json_find_field(fields, key);
  if (!f) return "";
  return f->kind == 's' ? f->sval : std::to_string(f->nval);
}

int cmd_serve_warm(const Args& args) {
  const std::string out_dir = args.need("out-dir");
  serve::Client client;
  connect_or_throw(client, args.need("socket"));
  int failed = 0;
  for (const std::string& c : kServeCircuits) {
    const std::string reply =
        round_trip(client, request_json("warm-" + c, {"gen", c, false}, ""));
    if (response_field(reply, "status", false) != "ok") {
      ++failed;
      continue;
    }
    write_file(out_dir + "/" + c + ".tst",
               response_field(reply, "test_file", true));
  }
  std::printf("{\"warmed\": %zu, \"failed\": %d}\n", kServeCircuits.size(),
              failed);
  return failed == 0 ? 0 : 2;
}

/// Closed loop: kClients connections each send their next request only
/// after the previous reply. They walk the 128-request stream cyclically
/// and stop once `seconds` have passed and at least one full stream has
/// been sent (exactly one with `--seconds 0`). The loop never drains
/// between streams, so throughput is measured in steady state.
int cmd_serve_load(const Args& args) {
  const std::string socket = args.need("socket");
  const std::string tests_dir = args.need("tests-dir");
  const auto seconds = std::chrono::duration<double>(
      static_cast<double>(args.num("seconds", 10)));
  const std::vector<StreamItem> stream =
      make_stream(static_cast<std::uint64_t>(args.num("seed", 1)), kPassRequests);

  std::map<std::string, std::string> tests;
  for (const std::string& c : kServeCircuits)
    tests[c] = read_file(tests_dir + "/" + c + ".tst");
  std::vector<std::string> payloads;
  for (std::size_t i = 0; i < stream.size(); ++i)
    payloads.push_back(request_json("r" + std::to_string(i), stream[i],
                                    tests[stream[i].circuit]));

  std::vector<std::unique_ptr<serve::Client>> conns;
  for (int c = 0; c < kClients; ++c) {
    conns.push_back(std::make_unique<serve::Client>());
    connect_or_throw(*conns.back(), socket);
  }

  struct Record {
    std::size_t index = 0;
    double sent_ms = 0.0, done_ms = 0.0;
    std::string reply;
  };
  std::vector<std::vector<Record>> per_client(static_cast<std::size_t>(kClients));
  std::atomic<std::size_t> next{0};
  std::atomic<bool> transport_failed{false};
  const Clock::time_point start = Clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<Clock::duration>(seconds);
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      auto& mine = per_client[static_cast<std::size_t>(c)];
      try {
        for (;;) {
          const std::size_t i = next++;
          if (i >= stream.size() && Clock::now() >= deadline) break;
          Record r;
          r.index = i;
          const Clock::time_point t0 = Clock::now();
          r.reply = round_trip(*conns[static_cast<std::size_t>(c)],
                               payloads[i % stream.size()]);
          const Clock::time_point t1 = Clock::now();
          r.sent_ms = ms_between(start, t0);
          r.done_ms = ms_between(start, t1);
          mine.push_back(std::move(r));
        }
      } catch (const std::exception& e) {
        std::fprintf(stderr, "pipebench: client %d: %s\n", c, e.what());
        transport_failed = true;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const double elapsed_ms = ms_between(start, Clock::now());

  std::size_t count = 0;
  std::ofstream out(args.need("out"), std::ios::binary);
  for (int c = 0; c < kClients; ++c) {
    for (const Record& r : per_client[static_cast<std::size_t>(c)]) {
      const StreamItem& item = stream[r.index % stream.size()];
      out << "{\"index\": " << r.index << ", \"client\": " << c
          << ", \"type\": " << jstr(item.type)
          << ", \"circuit\": " << jstr(item.circuit)
          << ", \"static_prune\": " << (item.static_prune ? "true" : "false")
          << ", \"sent_ms\": " << jnum(r.sent_ms)
          << ", \"done_ms\": " << jnum(r.done_ms)
          << ", \"latency_ms\": " << jnum(r.done_ms - r.sent_ms)
          << ", \"bytes\": " << r.reply.size() << ", \"response\": " << r.reply
          << "}\n";
      ++count;
    }
  }
  out.close();
  const std::string metrics = round_trip(
      *conns[0], "{\"schema\": \"fstg.serve_request.v1\", \"type\": "
                 "\"metrics\", \"id\": \"scrape\"}");
  std::printf("{\"requests\": %zu, \"stream_length\": %zu, \"elapsed_ms\": %s, "
              "\"transport_failed\": %s, \"metrics\": %s}\n",
              count, stream.size(), jnum(elapsed_ms).c_str(),
              transport_failed ? "true" : "false", metrics.c_str());
  return transport_failed ? 2 : 0;
}

// --- spans -------------------------------------------------------------------

/// Counters each span records as start/end deltas.
const std::vector<std::string> kSpanCounters = {
    "pool.busy_us",           "pool.idle_us",
    "fault_sim.faults_simulated", "fault_sim.faults_dropped",
    "scan.cycles_skipped",    "scan.cycles_overlay",
    "scan.cycles_full",       "budget.expansions",
    "analysis.pruned"};

/// A span's delta of one of kSpanCounters.
double span_counter(const std::vector<std::uint64_t>& deltas,
                    const std::string& name) {
  const auto pos = std::find(kSpanCounters.begin(), kSpanCounters.end(), name);
  return static_cast<double>(
      deltas[static_cast<std::size_t>(pos - kSpanCounters.begin())]);
}

std::vector<std::uint64_t> read_span_counters() {
  const obs::MetricsSnapshot snap = obs::snapshot_metrics();
  std::vector<std::uint64_t> out;
  for (const std::string& name : kSpanCounters)
    out.push_back(snap.counter_value(name));
  return out;
}

/// Spans kept in memory and written out when the run ends. Replays are
/// sequential, so a span's children never overlap and its self time is its
/// duration minus theirs.
class Tracer {
 public:
  struct Span {
    std::string name;
    std::string detail;
    int parent = -1;
    double start_ms = 0.0;
    double dur_ms = 0.0;
    double child_ms = 0.0;
    std::vector<std::uint64_t> counters;  ///< deltas, kSpanCounters order
  };

  class Scope {
   public:
    Scope(Tracer& t, std::string name, std::string detail = "")
        : t_(t), id_(t.open(std::move(name), std::move(detail))) {}
    ~Scope() { t_.close(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& t_;
    int id_;
  };

  const std::vector<Span>& spans() const { return spans_; }

  double self_ms(const Span& s) const { return s.dur_ms - s.child_ms; }

 private:
  int open(std::string name, std::string detail) {
    Span s;
    s.name = std::move(name);
    s.detail = std::move(detail);
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.start_ms = ms_between(epoch_, Clock::now());
    s.counters = read_span_counters();  // absolute for now; delta at close
    spans_.push_back(std::move(s));
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }
  void close(int id) {
    Span& s = spans_[static_cast<std::size_t>(id)];
    const std::vector<std::uint64_t> now = read_span_counters();
    for (std::size_t i = 0; i < now.size(); ++i) s.counters[i] = now[i] - s.counters[i];
    s.dur_ms = ms_between(epoch_, Clock::now()) - s.start_ms;
    stack_.pop_back();
    if (s.parent >= 0) spans_[static_cast<std::size_t>(s.parent)].child_ms += s.dur_ms;
  }

  Clock::time_point epoch_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// Per-layer aggregation of a finished trace, by span name.
struct Layers {
  std::map<std::string, double> self_ms;  ///< summed self time
  std::map<std::string, std::vector<std::uint64_t>> counters;  ///< summed deltas
};

/// Work counts the replays report (gates, tests, faults, ...), summed.
using Figures = std::map<std::string, double>;

Layers aggregate(const Tracer& tracer) {
  Layers out;
  for (const Tracer::Span& s : tracer.spans()) {
    out.self_ms[s.name] += tracer.self_ms(s);
    auto& sum = out.counters[s.name];
    sum.resize(kSpanCounters.size(), 0);
    for (std::size_t i = 0; i < s.counters.size(); ++i) sum[i] += s.counters[i];
  }
  return out;
}

double counter_of(const Layers& l, const std::string& span,
                  const std::string& counter) {
  auto it = l.counters.find(span);
  return it == l.counters.end() ? 0.0 : span_counter(it->second, counter);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// pool busy / (busy + idle) over a set of counter deltas.
double busy_frac(const std::vector<std::uint64_t>& deltas) {
  const double busy = span_counter(deltas, "pool.busy_us");
  return ratio(busy, busy + span_counter(deltas, "pool.idle_us"));
}

double busy_frac(const Layers& l, const std::string& span) {
  auto it = l.counters.find(span);
  return it == l.counters.end() ? 0.0 : busy_frac(it->second);
}

// --- traced replays ----------------------------------------------------------

/// The calls run_fsm makes for a built-in circuit with default options:
/// load, lint pre-flight, synthesis, read-back verification, UIO
/// derivation and test chaining.
CircuitExperiment traced_compile(Tracer& tr, Figures& figures,
                                 const std::string& circuit) {
  CircuitExperiment exp;
  const ExperimentOptions options;
  {
    Tracer::Scope s(tr, "kiss.load", circuit);
    exp.fsm = load_benchmark(circuit);
  }
  {
    Tracer::Scope s(tr, "lint.preflight", circuit);
    lint::LintReport report;
    report.source = exp.fsm.name;
    {
      robust::RunGuard guard(options.lint.budget, "lint.preflight");
      lint::lint_fsm_symbolic(exp.fsm, guard, report);
    }
    lint::record_lint_metrics(report);
    require(!report.has_errors(), "lint pre-flight rejected " + circuit);
  }
  {
    Tracer::Scope s(tr, "netlist.synth", circuit);
    exp.synth = synthesize_scan_circuit(exp.fsm, options.synth);
  }
  figures["netlist.gates"] += exp.synth.circuit.comb.num_gates();
  {
    Tracer::Scope s(tr, "netlist.verify_match", circuit);
    std::string message;
    require(circuit_matches_fsm(exp.synth.circuit, exp.fsm, exp.synth.encoding,
                                &message),
            "synthesis self-check failed for " + circuit + ": " + message);
  }
  {
    Tracer::Scope s(tr, "netlist.readback", circuit);
    exp.table = read_back_table(exp.synth.circuit, &exp.fsm, &exp.synth.encoding);
  }
  UioSet uios;
  {
    Tracer::Scope s(tr, "seq.uio", circuit);
    UioOptions uio_options;
    uio_options.max_length = options.gen.uio_max_length;
    uio_options.eval_budget = options.gen.uio_eval_budget;
    uio_options.budget = options.gen.budget;
    uios = derive_uio_sequences(exp.table, uio_options);
  }
  figures["seq.uio_states"] += uios.count();
  {
    Tracer::Scope s(tr, "atpg.chain", circuit);
    exp.gen = generate_functional_tests(exp.table, options.gen, std::move(uios));
  }
  figures["atpg.tests"] += static_cast<double>(exp.gen.tests.size());
  return exp;
}

TestFile test_file_of(const CircuitExperiment& exp) {
  TestFile file;
  file.circuit = exp.fsm.name;
  file.input_bits = exp.table.input_bits();
  file.state_bits = exp.synth.circuit.num_sv;
  file.tests = exp.gen.tests;
  return file;
}

/// run_gate_level's fault lists: stuck-at, then bridging strided down to
/// the cap in AND/OR pairs.
void enumerate_gate_faults(const Netlist& comb, std::vector<FaultSpec>* sa,
                           std::vector<FaultSpec>* br) {
  *sa = enumerate_stuck_at(comb);
  *br = enumerate_bridging(comb);
  const std::size_t cap = GateLevelOptions{}.max_bridging_faults;
  if (cap > 0 && br->size() > cap) {
    const std::size_t pairs = br->size() / 2;
    const std::size_t want_pairs = cap / 2;
    const std::size_t stride = (pairs + want_pairs - 1) / want_pairs;
    std::vector<FaultSpec> sampled;
    for (std::size_t p = 0; p < pairs; p += stride) {
      sampled.push_back((*br)[2 * p]);
      sampled.push_back((*br)[2 * p + 1]);
    }
    *br = std::move(sampled);
  }
}

/// Outcome of the gate-level part of a sim, in the CLI's coverage-line
/// form (detectable coverage only when redundancy is classified).
struct SimOutcome {
  std::size_t sa_detected = 0, sa_total = 0, br_detected = 0, br_total = 0;
  std::size_t sa_effective = 0, br_effective = 0;
  std::size_t sa_pruned = 0, br_pruned = 0;
  double sa_cov = 0, br_cov = 0, sa_det_cov = 100, br_det_cov = 100;
};

/// The calls cmd_sim and the serve sim handler make after the circuit is
/// compiled and the test file is parsed: the budgeted stuck-at pre-pass,
/// the experiment copy, then run_gate_level's fault lists, reachability,
/// optional static pruning, compaction and (CLI only) redundancy.
SimOutcome traced_gate_level(Tracer& tr, Figures& figures,
                             const CircuitExperiment& exp, const TestSet& tests,
                             bool static_prune, bool classify) {
  const ScanCircuit& circuit = exp.synth.circuit;
  {
    std::vector<FaultSpec> pre;
    {
      Tracer::Scope s(tr, "fault.enum", "pre-pass");
      pre = enumerate_stuck_at(circuit.comb);
    }
    Tracer::Scope s(tr, "fault.sim_guard");
    robust::RunGuard guard(robust::Budget{}, "fault_sim.batch");
    const FaultSimResult sa = simulate_faults_guarded(circuit, tests, pre, guard);
    require(sa.complete, "unbudgeted stuck-at pre-pass stopped early");
  }
  std::unique_ptr<CircuitExperiment> shim;
  {
    Tracer::Scope s(tr, "harness.copy");
    shim = std::make_unique<CircuitExperiment>(exp);
    shim->gen.tests = tests;
  }
  std::vector<FaultSpec> sa_faults, br_faults;
  {
    Tracer::Scope s(tr, "fault.enum");
    enumerate_gate_faults(circuit.comb, &sa_faults, &br_faults);
  }
  figures["fault.sa_faults"] += static_cast<double>(sa_faults.size());
  figures["fault.br_faults"] += static_cast<double>(br_faults.size());
  std::vector<BitVec> reach;
  {
    Tracer::Scope s(tr, "netlist.reach");
    reach = forward_reachability(circuit.comb);
  }
  SimOutcome out;
  std::unique_ptr<analysis::StaticAnalyzer> statics;
  if (static_prune) {
    Tracer::Scope s(tr, "analysis.static");
    static const obs::Counter c_pruned = obs::counter("analysis.pruned");
    statics = std::make_unique<analysis::StaticAnalyzer>(
        circuit.comb, analysis::AnalyzerOptions{}, &reach);
    const auto prune = [&](std::vector<FaultSpec>& faults) {
      const analysis::FaultAnalysis a = statics->analyze(faults);
      std::size_t kept = 0;
      for (std::size_t f = 0; f < faults.size(); ++f)
        if (a.verdict[f] == analysis::FaultVerdict::kUnknown)
          faults[kept++] = faults[f];
      const std::size_t pruned = faults.size() - kept;
      faults.resize(kept);
      return pruned;
    };
    out.sa_pruned = prune(sa_faults);
    out.br_pruned = prune(br_faults);
    c_pruned.add(out.sa_pruned + out.br_pruned);
  }
  FaultSimOptions sim_options;
  sim_options.reachability = &reach;
  CompactionResult sa, br;
  {
    Tracer::Scope s(tr, "fault.compact_sa");
    sa = select_effective_tests(circuit, shim->gen.tests, sa_faults, sim_options);
  }
  {
    Tracer::Scope s(tr, "fault.compact_br");
    br = select_effective_tests(circuit, shim->gen.tests, br_faults, sim_options);
  }
  out.sa_detected = sa.sim.detected_faults;
  out.sa_total = sa.sim.total_faults;
  out.br_detected = br.sim.detected_faults;
  out.br_total = br.sim.total_faults;
  out.sa_effective = sa.effective_tests.size();
  out.br_effective = br.effective_tests.size();
  out.sa_cov = sa.sim.coverage_percent();
  out.br_cov = br.sim.coverage_percent();
  if (classify) {
    Tracer::Scope s(tr, "fault.redundancy");
    RedundancyResult sr = classify_faults_from(circuit, sa_faults,
                                               sa.sim.detected_by, &reach,
                                               statics.get());
    RedundancyResult brr = classify_faults_from(circuit, br_faults,
                                                br.sim.detected_by, &reach,
                                                statics.get());
    sr.undetectable += out.sa_pruned;
    brr.undetectable += out.br_pruned;
    out.sa_det_cov = sr.detectable_coverage_percent();
    out.br_det_cov = brr.detectable_coverage_percent();
  }
  return out;
}

/// The two coverage lines `fstg sim` prints (without --static-prune).
std::string coverage_lines(const SimOutcome& o) {
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "stuck-at : %zu/%zu detected (%.2f%%), detectable coverage "
                "%.2f%%, %zu effective tests\n"
                "bridging : %zu/%zu detected (%.2f%%), detectable coverage "
                "%.2f%%, %zu effective tests\n",
                o.sa_detected, o.sa_total, o.sa_cov, o.sa_det_cov,
                o.sa_effective, o.br_detected, o.br_total, o.br_cov,
                o.br_det_cov, o.br_effective);
  return buf;
}

std::string outcome_json(const SimOutcome& o) {
  std::ostringstream os;
  os << "{\"sa_detected\": " << o.sa_detected << ", \"sa_total\": " << o.sa_total
     << ", \"br_detected\": " << o.br_detected << ", \"br_total\": " << o.br_total
     << ", \"sa_pruned\": " << o.sa_pruned << ", \"br_pruned\": " << o.br_pruned
     << "}";
  return os.str();
}

int cmd_trace(const Args& args) {
  const std::string workload = args.need("workload");
  const std::string out_dir = args.get("out-dir", ".");
  Tracer tr;
  Figures figures;
  std::vector<std::string> outputs;  ///< per-job output records (JSON)
  std::map<std::string, CircuitExperiment> hot;  ///< serve-mixed hot cache
  if (workload == "serve-mixed") {
    // The daemon compiles these during set-up (the cache warm-up), so the
    // replay compiles them untraced as well: only requests are measured.
    Tracer untraced;
    Figures unused;
    for (const std::string& c : kServeCircuits)
      hot.emplace(c, traced_compile(untraced, unused, c));
  }
  {
    Tracer::Scope root(tr, "run", workload);
    if (workload == "gen-suite") {
      for (const std::string& c : split_csv(args.need("circuits"))) {
        Tracer::Scope job(tr, "job.gen", c);
        const CircuitExperiment exp = traced_compile(tr, figures, c);
        Tracer::Scope s(tr, "atpg.test_io", c);
        save_test_file(test_file_of(exp), out_dir + "/" + c + ".tst");
      }
    } else if (workload == "sim-large") {
      const std::string tests_dir = args.need("tests-dir");
      for (const std::string& c : split_csv(args.need("circuits"))) {
        Tracer::Scope job(tr, "job.sim", c);
        const CircuitExperiment exp = traced_compile(tr, figures, c);
        TestFile file;
        {
          Tracer::Scope s(tr, "atpg.test_io", c);
          file = load_test_file(tests_dir + "/" + c + ".tst");
          require(file.input_bits == exp.table.input_bits() &&
                      file.state_bits == exp.synth.circuit.num_sv,
                  "test file widths do not match " + c);
          file.tests.validate(exp.table);
        }
        const SimOutcome o = traced_gate_level(tr, figures, exp, file.tests,
                                               false, true);
        write_file(out_dir + "/" + c + ".cov", coverage_lines(o));
      }
    } else if (workload == "serve-mixed") {
      const std::string tests_dir = args.need("tests-dir");
      const auto stream =
          make_stream(static_cast<std::uint64_t>(args.num("seed", 1)), kPassRequests);
      for (std::size_t i = 0; i < stream.size(); ++i) {
        const StreamItem& item = stream[i];
        const CircuitExperiment& exp = hot.at(item.circuit);
        Tracer::Scope job(tr, "serve." + item.type, item.circuit);
        if (item.type == "gen") {
          std::string text;
          {
            Tracer::Scope s(tr, "atpg.test_io", item.circuit);
            text = write_test_file(test_file_of(exp));
          }
          outputs.push_back("{\"index\": " + std::to_string(i) +
                            ", \"type\": \"gen\", \"circuit\": " +
                            jstr(item.circuit) + ", \"test_file_bytes\": " +
                            std::to_string(text.size()) + "}");
          continue;
        }
        TestFile file;
        {
          Tracer::Scope s(tr, "atpg.test_io", item.circuit);
          file = parse_test_file(read_file(tests_dir + "/" + item.circuit + ".tst"));
          file.tests.validate(exp.table);
        }
        const SimOutcome o = traced_gate_level(tr, figures, exp, file.tests,
                                               item.static_prune, false);
        outputs.push_back("{\"index\": " + std::to_string(i) +
                          ", \"type\": \"sim\", \"circuit\": " +
                          jstr(item.circuit) + ", \"static_prune\": " +
                          (item.static_prune ? "true" : "false") +
                          ", \"result\": " + outcome_json(o) + "}");
      }
    } else {
      throw std::invalid_argument("unknown workload " + workload);
    }
  }

  // Spans, written once the run is over.
  {
    std::ostringstream os;
    os << "{\"spans\": [\n";
    const auto& spans = tr.spans();
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Tracer::Span& s = spans[i];
      os << (i ? ",\n" : "") << "{\"id\": " << i << ", \"parent\": " << s.parent
         << ", \"name\": " << jstr(s.name) << ", \"detail\": " << jstr(s.detail)
         << ", \"start_ms\": " << jnum(s.start_ms)
         << ", \"dur_ms\": " << jnum(s.dur_ms)
         << ", \"self_ms\": " << jnum(tr.self_ms(s))
         << ", \"pool_busy_frac\": " << jnum(busy_frac(s.counters))
         << ", \"counters\": {";
      for (std::size_t k = 0; k < kSpanCounters.size(); ++k)
        os << (k ? ", " : "") << jstr(kSpanCounters[k]) << ": " << s.counters[k];
      os << "}}";
    }
    os << "\n], \"outputs\": [\n";
    for (std::size_t i = 0; i < outputs.size(); ++i)
      os << (i ? ",\n" : "") << outputs[i];
    os << "\n]}\n";
    write_file(args.need("out"), os.str());
  }

  const Layers l = aggregate(tr);
  const auto self = [&](const std::string& span) {
    auto it = l.self_ms.find(span);
    return it == l.self_ms.end() ? 0.0 : it->second;
  };
  const auto fig = [&](const std::string& key) {
    auto it = figures.find(key);
    return it == figures.end() ? 0.0 : it->second;
  };
  // Self time of the glue spans (the run and its jobs): time spent between
  // the layer calls, which no layer metric accounts for.
  double unattributed = 0.0;
  for (const auto& [name, ms] : l.self_ms)
    if (name == "run" || name.rfind("job.", 0) == 0 || name.rfind("serve.", 0) == 0)
      unattributed += ms;
  const Tracer::Span& root = tr.spans().front();
  const auto fault_total = [&](const std::string& counter) {
    double v = 0.0;
    for (const char* span : {"fault.sim_guard", "fault.compact_sa",
                             "fault.compact_br", "fault.redundancy"})
      v += counter_of(l, span, counter);
    return v;
  };
  const double skipped = fault_total("scan.cycles_skipped");
  const double evaluated =
      fault_total("scan.cycles_overlay") + fault_total("scan.cycles_full");

  std::vector<std::pair<std::string, double>> m = {
      {"kiss.load_ms", self("kiss.load")},
      {"lint.preflight_ms", self("lint.preflight")},
      {"netlist.synth_ms", self("netlist.synth")},
      {"netlist.gates", fig("netlist.gates")},
      {"netlist.verify_match_ms", self("netlist.verify_match")},
      {"netlist.readback_ms", self("netlist.readback")},
      {"netlist.reach_ms", self("netlist.reach")},
      {"seq.uio_ms", self("seq.uio")},
      {"seq.uio_states", fig("seq.uio_states")},
      {"budget.expansions",
       span_counter(root.counters, "budget.expansions")},
      {"atpg.chain_ms", self("atpg.chain")},
      {"atpg.tests", fig("atpg.tests")},
      {"atpg.test_io_ms", self("atpg.test_io")},
      {"harness.copy_ms", self("harness.copy")},
      {"fault.enum_ms", self("fault.enum")},
      {"fault.sa_faults", fig("fault.sa_faults")},
      {"fault.br_faults", fig("fault.br_faults")},
      {"fault.sim_guard_ms", self("fault.sim_guard")},
      {"fault.compact_sa_ms", self("fault.compact_sa")},
      {"fault.compact_br_ms", self("fault.compact_br")},
      {"fault.redundancy_ms", self("fault.redundancy")},
      {"fault.useful_ratio", ratio(fault_total("fault_sim.faults_dropped"),
                                   fault_total("fault_sim.faults_simulated"))},
      {"scan.skip_ratio", ratio(skipped, skipped + evaluated)},
      {"pool.busy_frac", busy_frac(root.counters)},
      {"pool.busy_frac.sim_guard", busy_frac(l, "fault.sim_guard")},
      {"pool.busy_frac.compact_sa", busy_frac(l, "fault.compact_sa")},
      {"pool.busy_frac.compact_br", busy_frac(l, "fault.compact_br")},
      {"analysis.static_ms", self("analysis.static")},
      {"analysis.pruned", span_counter(root.counters, "analysis.pruned")},
      {"trace.wall_s", root.dur_ms / 1000.0},
      {"trace.unattributed_s", unattributed / 1000.0},
      {"trace.spans", static_cast<double>(tr.spans().size())},
  };
  std::printf("{");
  for (std::size_t i = 0; i < m.size(); ++i)
    std::printf("%s%s: %s", i ? ", " : "", jstr(m[i].first).c_str(),
                jnum(m[i].second).c_str());
  std::printf("}\n");
  return 0;
}

// --- output checks -----------------------------------------------------------

/// The completed state table the generator works on, without generating:
/// synthesis plus read-back.
struct TableOf {
  Kiss2Fsm fsm;
  SynthesisResult synth;
  StateTable table;
};

TableOf table_of(const std::string& circuit) {
  TableOf t;
  t.fsm = load_benchmark(circuit);
  t.synth = synthesize_scan_circuit(t.fsm, SynthesisOptions{});
  t.table = read_back_table(t.synth.circuit, &t.fsm, &t.synth.encoding);
  return t;
}

/// Faults of one transition in enumerate_st_faults' order: every wrong
/// next state, then every single output-bit flip.
StFault st_fault_at(const StateTable& table, int s, std::uint32_t a,
                    std::size_t j) {
  const int good_next = table.next(s, a);
  const std::uint32_t good_out = table.output(s, a);
  const std::size_t wrong_next = static_cast<std::size_t>(table.num_states()) - 1;
  if (j < wrong_next) {
    const int t = static_cast<int>(j) < good_next ? static_cast<int>(j)
                                                   : static_cast<int>(j) + 1;
    return {s, a, t, good_out};
  }
  return {s, a, good_next, good_out ^ (1u << (j - wrong_next))};
}

/// Checks every state-transition fault of tables up to this many faults,
/// and a seeded sample of this many on larger ones.
constexpr std::size_t kMaxStFaults = 4096;

struct GenCheck {
  std::size_t transitions = 0, st_total = 0, st_checked = 0, st_detected = 0;
  std::size_t cycles = 0, baseline = 0;
  std::string error;
};

/// Every state-transition is tested: the test set detects every
/// state-transition fault (simulate_st_faults). A fault on transition
/// (s, a) can only be detected by a test that applies (s, a), so each
/// fault is simulated against those tests alone, which is exact. Also
/// reports test-application cycles and the per-transition baseline.
GenCheck check_gen_one(const std::string& dir, const std::string& c,
                       std::uint64_t seed) {
  GenCheck r;
  try {
    const TableOf t = table_of(c);
    const TestFile file = load_test_file(dir + "/" + c + ".tst");
    require(file.input_bits == t.table.input_bits() &&
                file.state_bits == t.synth.circuit.num_sv,
            "test file widths do not match the circuit");
    file.tests.validate(t.table);
    const int sv = t.synth.circuit.num_sv;
    r.transitions = t.table.num_transitions();
    r.cycles = test_application_cycles(sv, file.tests);
    r.baseline = per_transition_cycles(sv, r.transitions);

    const std::uint32_t nic = t.table.num_input_combos();
    std::vector<std::vector<int>> applying(r.transitions);
    for (std::size_t k = 0; k < file.tests.tests.size(); ++k) {
      const FunctionalTest& test = file.tests.tests[k];
      int s = test.init_state;
      for (std::uint32_t a : test.inputs) {
        auto& list = applying[static_cast<std::size_t>(s) * nic + a];
        if (list.empty() || list.back() != static_cast<int>(k))
          list.push_back(static_cast<int>(k));
        s = t.table.next(s, a);
      }
    }
    const std::size_t per_transition =
        static_cast<std::size_t>(t.table.num_states()) - 1 +
        static_cast<std::size_t>(t.table.output_bits());
    r.st_total = r.transitions * per_transition;
    std::vector<StFault> faults;
    if (r.st_total <= kMaxStFaults) {
      faults = enumerate_st_faults(t.table);
    } else {
      std::mt19937_64 rng(seed);
      for (std::size_t i = 0; i < kMaxStFaults; ++i) {
        const std::size_t id = rng() % r.transitions;
        faults.push_back(st_fault_at(t.table, static_cast<int>(id / nic),
                                     static_cast<std::uint32_t>(id % nic),
                                     rng() % per_transition));
      }
    }
    for (const StFault& f : faults) {
      TestSet subset;
      for (int k : applying[static_cast<std::size_t>(f.state) * nic + f.input])
        subset.tests.push_back(file.tests.tests[static_cast<std::size_t>(k)]);
      r.st_detected += simulate_st_faults(t.table, subset, {f}).detected;
    }
    r.st_checked = faults.size();
    if (r.st_detected != r.st_checked) r.error = "state-transition fault missed";
  } catch (const std::exception& e) {
    r.error = e.what();
  }
  return r;
}

/// Runs `check(i)` for i in [0, n) on up to four threads.
template <typename F>
void for_each_parallel(std::size_t n, F check) {
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> threads;
  for (int w = 0; w < 4; ++w)
    threads.emplace_back([&] {
      for (std::size_t i = next++; i < n; i = next++) check(i);
    });
  for (std::thread& t : threads) t.join();
}

int cmd_check_gen(const Args& args) {
  const std::string dir = args.need("dir");
  const auto seed = static_cast<std::uint64_t>(args.num("seed", 1));
  const std::vector<std::string> circuits = split_csv(args.need("circuits"));
  std::vector<GenCheck> results(circuits.size());
  for_each_parallel(circuits.size(), [&](std::size_t i) {
    results[i] = check_gen_one(dir, circuits[i], seed + i);
  });
  int failed = 0;
  std::printf("{");
  for (std::size_t i = 0; i < circuits.size(); ++i) {
    const GenCheck& r = results[i];
    if (!r.error.empty()) ++failed;
    std::printf("%s%s: {\"transitions\": %zu, \"st_total\": %zu, "
                "\"st_checked\": %zu, \"st_detected\": %zu, \"cycles\": %zu, "
                "\"per_transition_cycles\": %zu, \"error\": %s}",
                i ? ", " : "", jstr(circuits[i]).c_str(), r.transitions,
                r.st_total, r.st_checked, r.st_detected, r.cycles, r.baseline,
                jstr(r.error).c_str());
  }
  std::printf("}\n");
  return failed == 0 ? 0 : 2;
}

/// Faults per type (stuck-at, bridging) and length of the seeded window of
/// consecutive tests they are re-simulated on. The scalar reference costs
/// a full simulation per (fault, test) pair, so it sees a window, not the
/// whole file; first detections inside the window must still agree.
constexpr std::size_t kRefFaults = 32;
constexpr std::size_t kRefTests = 64;

struct SimCheck {
  std::size_t checked = 0, agree = 0;
  std::string error;
};

/// A seeded sample of the circuit's stuck-at and bridging faults is
/// simulated by the engine and by the independent scalar reference over a
/// seeded window of the test file; every fault's first detecting test must
/// agree.
SimCheck check_sim_one(const std::string& dir, const std::string& c,
                       std::uint64_t seed) {
  SimCheck r;
  try {
    std::mt19937_64 rng(seed);
    const Kiss2Fsm fsm = load_benchmark(c);
    const SynthesisResult synth = synthesize_scan_circuit(fsm, SynthesisOptions{});
    const TestFile file = load_test_file(dir + "/" + c + ".tst");
    TestSet window;
    const std::size_t n = file.tests.tests.size();
    const std::size_t first = n > kRefTests ? rng() % (n - kRefTests + 1) : 0;
    for (std::size_t k = first; k < std::min(n, first + kRefTests); ++k)
      window.tests.push_back(file.tests.tests[k]);
    std::vector<FaultSpec> sa, br;
    enumerate_gate_faults(synth.circuit.comb, &sa, &br);
    for (const std::vector<FaultSpec>* list : {&sa, &br}) {
      std::vector<FaultSpec> sample;
      for (std::size_t i = 0; i < kRefFaults && !list->empty(); ++i)
        sample.push_back((*list)[rng() % list->size()]);
      const FaultSimResult engine = simulate_faults(synth.circuit, window, sample);
      const difftest::ReferenceResult ref =
          difftest::reference_simulate(synth.circuit, window, sample);
      for (std::size_t f = 0; f < sample.size(); ++f) {
        ++r.checked;
        if (engine.detected_by[f] == ref.detected_by[f]) ++r.agree;
      }
    }
    if (r.agree != r.checked) r.error = "engine and reference disagree";
  } catch (const std::exception& e) {
    r.error = e.what();
  }
  return r;
}

int cmd_check_sim(const Args& args) {
  const std::string dir = args.need("dir");
  const auto seed = static_cast<std::uint64_t>(args.num("seed", 1));
  const std::vector<std::string> circuits = split_csv(args.need("circuits"));
  std::vector<SimCheck> results(circuits.size());
  for_each_parallel(circuits.size(), [&](std::size_t i) {
    results[i] = check_sim_one(dir, circuits[i], seed + i);
  });
  int failed = 0;
  std::printf("{");
  for (std::size_t i = 0; i < circuits.size(); ++i) {
    const SimCheck& r = results[i];
    if (!r.error.empty()) ++failed;
    std::printf("%s%s: {\"checked\": %zu, \"agree\": %zu, \"error\": %s}",
                i ? ", " : "", jstr(circuits[i]).c_str(), r.checked, r.agree,
                jstr(r.error).c_str());
  }
  std::printf("}\n");
  return failed == 0 ? 0 : 2;
}

int usage() {
  std::fprintf(stderr,
               "usage: pipebench stream|serve-warm|serve-load|trace|"
               "check-gen|check-sim [--key value]...\n");
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  Args args;
  for (int i = 2; i < argc; ++i) {
    if (std::strncmp(argv[i], "--", 2) != 0 || i + 1 >= argc) return usage();
    args.kv[argv[i] + 2] = argv[i + 1];
    ++i;
  }
  fstg::set_log_level(fstg::LogLevel::kWarn);
  const std::string cmd = argv[1];
  try {
    if (cmd == "stream") return cmd_stream(args);
    if (cmd == "serve-warm") return cmd_serve_warm(args);
    if (cmd == "serve-load") return cmd_serve_load(args);
    if (cmd == "trace") return cmd_trace(args);
    if (cmd == "check-gen") return cmd_check_gen(args);
    if (cmd == "check-sim") return cmd_check_sim(args);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "pipebench: %s\n", e.what());
    return 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pipebench %s: %s\n", cmd.c_str(), e.what());
    return 2;
  }
  return usage();
}
