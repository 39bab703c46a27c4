#include "base/robust/budget.h"

#include <algorithm>

#include "base/obs/metrics.h"

namespace fstg::robust {

namespace {

struct Injection {
  std::string site;
  std::uint64_t after_ticks = 0;
};

thread_local std::vector<Injection> g_injections;
thread_local std::vector<std::string> g_sites_seen;

void log_site(const char* site) {
  for (const std::string& s : g_sites_seen)
    if (s == site) return;
  // Hard cap: the site set is a handful of compile-time literals; a cap
  // keeps a buggy dynamic caller from growing this without bound.
  if (g_sites_seen.size() < 256) g_sites_seen.emplace_back(site);
}

}  // namespace

const char* trip_name(BudgetTrip trip) {
  switch (trip) {
    case BudgetTrip::kNone: return "none";
    case BudgetTrip::kDeadline: return "deadline";
    case BudgetTrip::kExpansions: return "expansions";
    case BudgetTrip::kMemory: return "memory";
    case BudgetTrip::kInjected: return "injected";
  }
  return "unknown";
}

RunGuard::RunGuard(const Budget& budget, const char* site)
    : budget_(budget), site_(site) {
  log_site(site);
  static const obs::Counter c_guards = obs::counter("budget.guards");
  c_guards.inc();
  for (const Injection& inj : g_injections)
    if (inj.site == site) inject_after_ = std::min(inject_after_, inj.after_ticks);
}

RunGuard::~RunGuard() {
  // One registry write per guard lifetime, never per tick: the tick fast
  // path stays free of instrumentation.
  static const obs::Counter c_expansions = obs::counter("budget.expansions");
  static const obs::Counter c_ticks = obs::counter("budget.ticks");
  c_expansions.add(expansions());
  c_ticks.add(ticks_.load(std::memory_order_relaxed));
  const BudgetTrip t = trip();
  if (t != BudgetTrip::kNone)
    obs::counter(std::string("budget.trips.") + trip_name(t)).inc();
}

void RunGuard::trip_once(BudgetTrip trip) {
  BudgetTrip expected = BudgetTrip::kNone;
  trip_.compare_exchange_strong(expected, trip, std::memory_order_relaxed);
}

bool RunGuard::tick(std::uint64_t work) {
  if (exhausted()) return false;
  const std::uint64_t expansions =
      expansions_.fetch_add(work, std::memory_order_relaxed) + work;
  const std::uint64_t ticks =
      ticks_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (ticks > inject_after_) {
    trip_once(BudgetTrip::kInjected);
    return false;
  }
  if (budget_.max_expansions != 0 && expansions > budget_.max_expansions) {
    trip_once(BudgetTrip::kExpansions);
    return false;
  }
  if (budget_.time_budget_ms > 0.0) {
    // Amortized deadline check: whichever thread wins the CAS pays for the
    // clock read; the rest skip ahead to the next interval.
    std::uint64_t next = next_deadline_check_.load(std::memory_order_relaxed);
    if (ticks >= next &&
        next_deadline_check_.compare_exchange_strong(
            next, ticks + kDeadlineCheckInterval, std::memory_order_relaxed)) {
      if (timer_.seconds() * 1000.0 > budget_.time_budget_ms) {
        trip_once(BudgetTrip::kDeadline);
        return false;
      }
    }
  }
  return true;
}

bool RunGuard::poll() {
  if (exhausted()) return false;
  if (budget_.time_budget_ms > 0.0 &&
      timer_.seconds() * 1000.0 > budget_.time_budget_ms) {
    trip_once(BudgetTrip::kDeadline);
    return false;
  }
  return true;
}

bool RunGuard::charge_memory(std::size_t bytes) {
  if (exhausted()) return false;
  const std::size_t total =
      memory_bytes_.fetch_add(bytes, std::memory_order_relaxed) + bytes;
  if (budget_.max_memory_bytes != 0 && total > budget_.max_memory_bytes) {
    trip_once(BudgetTrip::kMemory);
    return false;
  }
  return true;
}

Status RunGuard::status() const {
  if (!exhausted()) return Status::ok();
  return Status::error(Code::kBudgetExhausted,
                       std::string("budget exhausted at ") + site_ + " (" +
                           trip_name(trip()) + " limit, " +
                           std::to_string(expansions()) + " expansions)");
}

void inject_budget_exhaustion(const std::string& site,
                              std::uint64_t after_ticks) {
  g_injections.push_back({site, after_ticks});
}

void clear_budget_injections() { g_injections.clear(); }

InjectionSnapshot injections_snapshot() {
  InjectionSnapshot snapshot;
  snapshot.armed.reserve(g_injections.size());
  for (const Injection& inj : g_injections)
    snapshot.armed.emplace_back(inj.site, inj.after_ticks);
  return snapshot;
}

void install_injections(const InjectionSnapshot& snapshot) {
  g_injections.clear();
  for (const auto& [site, after_ticks] : snapshot.armed)
    g_injections.push_back({site, after_ticks});
}

const std::vector<std::string>& guard_sites_seen() { return g_sites_seen; }

void clear_guard_site_log() { g_sites_seen.clear(); }

}  // namespace fstg::robust
