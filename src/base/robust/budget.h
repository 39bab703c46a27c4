#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "base/robust/status.h"
#include "base/timer.h"

namespace fstg::robust {

/// Resource envelope for one run of an expensive kernel (UIO search, PODEM,
/// fault simulation, bridging enumeration, reachability). Every limit is
/// opt-in: 0 means unlimited, so a default Budget changes nothing. The
/// paper's procedure degrades gracefully when a search comes back empty
/// (no UIO => scan-out); Budget is the engineering-level version of the
/// same discipline: exhaustion produces a typed partial result, never a
/// hang or an OOM.
struct Budget {
  double time_budget_ms = 0.0;       ///< wall-clock deadline; 0 = unlimited
  std::uint64_t max_expansions = 0;  ///< node/step expansions; 0 = unlimited
  std::size_t max_memory_bytes = 0;  ///< peak-allocation estimate; 0 = unlimited

  bool unlimited() const {
    return time_budget_ms <= 0.0 && max_expansions == 0 &&
           max_memory_bytes == 0;
  }
};

/// Which limit a RunGuard tripped on (kInjected = test-only fault injection).
enum class BudgetTrip : std::uint8_t {
  kNone = 0,
  kDeadline,
  kExpansions,
  kMemory,
  kInjected,
};

const char* trip_name(BudgetTrip trip);

/// Per-run enforcement of a Budget, checked at kernel loop heads.
///
///   RunGuard guard(budget, "uio.search");
///   while (...) {
///     if (!guard.tick(children)) break;   // exhausted: return partial
///     ...
///   }
///
/// `tick` is cheap: the wall clock is only read every few thousand calls.
/// Once a guard trips it stays tripped (`exhausted()`), and `status()`
/// renders the trip as a structured kBudgetExhausted error naming the site.
///
/// Thread safety: a single RunGuard may be shared by the workers of one
/// parallel kernel (the parallel fault simulator ticks one guard from every
/// worker). Counters are relaxed atomics, the trip flag is a sticky
/// compare-exchange (the first limit to trip wins and every subsequent tick
/// on every thread returns false), so the guard doubles as the kernel's
/// cooperative-cancellation flag. Construction and `status()` remain
/// single-threaded: create the guard before the parallel region and read
/// the status after it joins.
///
/// Guard sites have stable string names so the fault-injection test harness
/// can force exhaustion at any specific site deterministically (see
/// `inject_budget_exhaustion`).
class RunGuard {
 public:
  RunGuard(const Budget& budget, const char* site);
  /// Flushes this run's consumption into the observability registry
  /// (counters `budget.expansions` and `budget.ticks`, and
  /// `budget.trips.<reason>` if tripped).
  ~RunGuard();

  /// Charge `work` expansions and re-check every limit. Returns true while
  /// the run is still within budget. Sticky: keeps returning false after
  /// the first trip (on any thread).
  bool tick(std::uint64_t work = 1);

  /// Check the deadline now, without charging work: for loop heads whose
  /// iterations are too coarse (a whole good-machine batch) to wait for
  /// tick's amortized clock read. Returns true while within budget; sticky
  /// like tick.
  bool poll();

  /// Charge an allocation estimate against max_memory_bytes. Call before
  /// the allocation itself so the guard can veto it. Returns true while
  /// within budget.
  bool charge_memory(std::size_t bytes);

  bool exhausted() const {
    return trip_.load(std::memory_order_relaxed) != BudgetTrip::kNone;
  }
  BudgetTrip trip() const { return trip_.load(std::memory_order_relaxed); }
  const char* site() const { return site_; }
  std::uint64_t expansions() const {
    return expansions_.load(std::memory_order_relaxed);
  }
  std::size_t memory_bytes() const {
    return memory_bytes_.load(std::memory_order_relaxed);
  }

  /// kOk while within budget; otherwise kBudgetExhausted naming the site
  /// and the limit that tripped.
  Status status() const;

 private:
  static constexpr std::uint64_t kDeadlineCheckInterval = 4096;

  /// First trip wins; later trips on other threads are dropped.
  void trip_once(BudgetTrip trip);

  Budget budget_;
  const char* site_;
  Timer timer_;
  std::atomic<std::uint64_t> expansions_{0};
  std::atomic<std::uint64_t> ticks_{0};
  std::atomic<std::uint64_t> next_deadline_check_{1};  // check early, amortize
  std::atomic<std::size_t> memory_bytes_{0};
  std::atomic<BudgetTrip> trip_{BudgetTrip::kNone};
  std::uint64_t inject_after_ = UINT64_MAX;  ///< tick count; resolved at ctor
};

/// --- Deterministic fault injection (tests and the fuzz harness) ---------
///
/// Arms synthetic budget exhaustion for every *subsequently constructed*
/// guard whose site name equals `site`: the guard trips (BudgetTrip::
/// kInjected) on its `after_ticks`-th tick (0 = the first). Thread-local,
/// so parallel tests do not interfere. Injection works even on unlimited
/// budgets — that is the point: every guard site can be forced to its
/// exhaustion path without constructing an adversarial workload.
void inject_budget_exhaustion(const std::string& site,
                              std::uint64_t after_ticks = 0);

/// Clear all armed injections in this thread.
void clear_budget_injections();

/// Snapshot of one thread's armed injections. Injections are thread-local
/// by design (parallel tests must not interfere), so a harness that fans a
/// pipeline out over worker threads must explicitly carry the coordinating
/// thread's injections across: snapshot on the coordinator, install inside
/// each worker task. `install_injections` *replaces* the calling thread's
/// armed set, so pooled workers reused across runs always start from the
/// current coordinator's state, never a stale one.
struct InjectionSnapshot {
  std::vector<std::pair<std::string, std::uint64_t>> armed;
};
InjectionSnapshot injections_snapshot();
void install_injections(const InjectionSnapshot& snapshot);

/// Names of guard sites constructed in this thread since the last
/// `clear_guard_site_log` (deduplicated, in first-seen order). The fuzz
/// harness runs the pipeline once to discover the sites, then replays it
/// injecting exhaustion at each.
const std::vector<std::string>& guard_sites_seen();
void clear_guard_site_log();

}  // namespace fstg::robust
