#include "base/robust/budget.h"

#include <gtest/gtest.h>

#include <chrono>
#include <thread>

namespace fstg::robust {
namespace {

/// Injections and the site log are thread-local and sticky; every test
/// starts from a clean slate.
class RunGuardTest : public ::testing::Test {
 protected:
  void SetUp() override {
    clear_budget_injections();
    clear_guard_site_log();
  }
  void TearDown() override { clear_budget_injections(); }
};

TEST_F(RunGuardTest, DefaultBudgetIsUnlimited) {
  Budget b;
  EXPECT_TRUE(b.unlimited());
  RunGuard guard(b, "test.site");
  for (int i = 0; i < 100'000; ++i) EXPECT_TRUE(guard.tick());
  EXPECT_FALSE(guard.exhausted());
  EXPECT_TRUE(guard.status().is_ok());
}

TEST_F(RunGuardTest, ExpansionLimitTripsAndSticks) {
  Budget b;
  b.max_expansions = 10;
  RunGuard guard(b, "test.site");
  int allowed = 0;
  while (guard.tick()) ++allowed;
  EXPECT_EQ(allowed, 10);
  EXPECT_TRUE(guard.exhausted());
  EXPECT_EQ(guard.trip(), BudgetTrip::kExpansions);
  // Sticky: once tripped, never recovers.
  EXPECT_FALSE(guard.tick());
  EXPECT_FALSE(guard.charge_memory(1));
}

TEST_F(RunGuardTest, WeightedTickChargesWork) {
  Budget b;
  b.max_expansions = 100;
  RunGuard guard(b, "test.site");
  EXPECT_TRUE(guard.tick(60));
  EXPECT_FALSE(guard.tick(60));  // 120 > 100
  EXPECT_EQ(guard.trip(), BudgetTrip::kExpansions);
  EXPECT_EQ(guard.expansions(), 120u);
}

TEST_F(RunGuardTest, MemoryLimitTrips) {
  Budget b;
  b.max_memory_bytes = 1024;
  RunGuard guard(b, "test.site");
  EXPECT_TRUE(guard.charge_memory(512));
  EXPECT_TRUE(guard.charge_memory(512));
  EXPECT_FALSE(guard.charge_memory(1));
  EXPECT_EQ(guard.trip(), BudgetTrip::kMemory);
  EXPECT_FALSE(guard.tick());
}

TEST_F(RunGuardTest, DeadlineTripsOnFirstCheck) {
  Budget b;
  b.time_budget_ms = 1e-9;  // effectively already expired
  RunGuard guard(b, "test.site");
  // The deadline is checked on the very first tick (then amortized), so an
  // expired budget cannot run a full 4096-tick interval unnoticed.
  bool tripped = false;
  for (int i = 0; i < 2 && !tripped; ++i) tripped = !guard.tick();
  EXPECT_TRUE(tripped);
  EXPECT_EQ(guard.trip(), BudgetTrip::kDeadline);
}

TEST_F(RunGuardTest, PollChecksTheDeadlineBetweenAmortizedTicks) {
  Budget b;
  b.time_budget_ms = 1;
  RunGuard guard(b, "test.site");
  EXPECT_TRUE(guard.tick());  // first tick reads the clock: within budget
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_TRUE(guard.tick());  // amortized: the next clock read is far off
  EXPECT_FALSE(guard.poll());
  EXPECT_EQ(guard.trip(), BudgetTrip::kDeadline);
  EXPECT_FALSE(guard.tick());  // sticky
  EXPECT_EQ(guard.expansions(), 2u);  // poll charges no work
}

TEST_F(RunGuardTest, PollWithoutDeadlineOnlyReportsTrips) {
  Budget b;
  b.max_expansions = 1;
  RunGuard guard(b, "test.site");
  EXPECT_TRUE(guard.poll());
  EXPECT_FALSE(guard.tick(2));
  EXPECT_FALSE(guard.poll());
}

TEST_F(RunGuardTest, StatusNamesSiteAndTrip) {
  Budget b;
  b.max_expansions = 1;
  RunGuard guard(b, "uio.search");
  while (guard.tick()) {
  }
  Status s = guard.status();
  ASSERT_FALSE(s.is_ok());
  EXPECT_EQ(s.code(), Code::kBudgetExhausted);
  EXPECT_NE(s.message().find("uio.search"), std::string::npos);
  EXPECT_NE(s.message().find("expansions"), std::string::npos);
}

TEST_F(RunGuardTest, InjectionTripsUnlimitedGuard) {
  inject_budget_exhaustion("test.site");
  RunGuard guard(Budget{}, "test.site");
  EXPECT_FALSE(guard.tick());
  EXPECT_EQ(guard.trip(), BudgetTrip::kInjected);
}

TEST_F(RunGuardTest, InjectionHonorsAfterTicks) {
  inject_budget_exhaustion("test.site", 3);
  RunGuard guard(Budget{}, "test.site");
  EXPECT_TRUE(guard.tick());
  EXPECT_TRUE(guard.tick());
  EXPECT_TRUE(guard.tick());
  EXPECT_FALSE(guard.tick());
  EXPECT_EQ(guard.trip(), BudgetTrip::kInjected);
}

TEST_F(RunGuardTest, InjectionOnlyHitsMatchingSite) {
  inject_budget_exhaustion("other.site");
  RunGuard guard(Budget{}, "test.site");
  for (int i = 0; i < 1000; ++i) EXPECT_TRUE(guard.tick());
  EXPECT_FALSE(guard.exhausted());
}

TEST_F(RunGuardTest, InjectionOnlyArmsSubsequentGuards) {
  RunGuard before(Budget{}, "test.site");
  inject_budget_exhaustion("test.site");
  EXPECT_TRUE(before.tick());  // armed after construction: unaffected
  RunGuard after(Budget{}, "test.site");
  EXPECT_FALSE(after.tick());
}

TEST_F(RunGuardTest, SiteLogRecordsFirstSeenOrderDeduplicated) {
  { RunGuard a(Budget{}, "site.a"); }
  { RunGuard b(Budget{}, "site.b"); }
  { RunGuard a2(Budget{}, "site.a"); }
  const std::vector<std::string>& seen = guard_sites_seen();
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0], "site.a");
  EXPECT_EQ(seen[1], "site.b");
}

TEST_F(RunGuardTest, TripNamesAreStable) {
  EXPECT_STREQ(trip_name(BudgetTrip::kNone), "none");
  EXPECT_STREQ(trip_name(BudgetTrip::kDeadline), "deadline");
  EXPECT_STREQ(trip_name(BudgetTrip::kExpansions), "expansions");
  EXPECT_STREQ(trip_name(BudgetTrip::kMemory), "memory");
  EXPECT_STREQ(trip_name(BudgetTrip::kInjected), "injected");
}

}  // namespace
}  // namespace fstg::robust
