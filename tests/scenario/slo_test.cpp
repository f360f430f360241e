// SloChecker: every liveness/safety invariant must trigger on exactly
// the epoch rows that violate it and stay silent on clean rows.
#include <gtest/gtest.h>

#include "common/units.hpp"
#include "scenario/slo.hpp"

namespace gm::scenario {
namespace {

// A row that satisfies every invariant under the default SloConfig.
EpochTelemetry CleanEpoch(int epoch = 0) {
  EpochTelemetry telem;
  telem.epoch = epoch;
  telem.arrivals = 100;
  telem.completions = 90;
  telem.max_queue_depth = 10;
  telem.worst_wait_ratio = 0.8;
  telem.replay_attempts = 5;
  telem.replays_rejected = 5;
  telem.settle_p99_ns = 1.0e6;
  telem.total_balance = Money::Dollars(1000);
  telem.expected_total = Money::Dollars(1000);
  telem.reconciler_clean = true;
  return telem;
}

TEST(SloCheckerTest, CleanEpochsPass) {
  SloChecker checker{SloConfig{}};
  for (int e = 0; e < 5; ++e) checker.Check(CleanEpoch(e));
  EXPECT_TRUE(checker.report().passed);
  EXPECT_TRUE(checker.report().violations.empty());
  EXPECT_EQ(checker.report().epochs_checked, 5);
  EXPECT_EQ(checker.report().Summary().substr(0, 4), "PASS");
}

TEST(SloCheckerTest, QueueDepthBoundIsEnforced) {
  SloConfig config;
  config.max_queue_depth = 100;
  SloChecker checker(config);
  EpochTelemetry telem = CleanEpoch(3);
  telem.max_queue_depth = 101;
  checker.Check(telem);
  ASSERT_EQ(checker.report().violations.size(), 1u);
  EXPECT_FALSE(checker.report().passed);
  EXPECT_EQ(checker.report().violations[0].invariant, "bounded-queue");
  EXPECT_EQ(checker.report().violations[0].epoch, 3);
}

TEST(SloCheckerTest, StarvationMultipleIsEnforced) {
  SloChecker checker{SloConfig{}};  // starvation_multiple = 4.0
  EpochTelemetry telem = CleanEpoch();
  telem.worst_wait_ratio = 4.5;
  checker.Check(telem);
  ASSERT_EQ(checker.report().violations.size(), 1u);
  EXPECT_EQ(checker.report().violations[0].invariant, "starvation");
}

TEST(SloCheckerTest, SettlementP99CanBeEnforcedOrReportedOnly) {
  EpochTelemetry telem = CleanEpoch();
  telem.settle_p99_ns = 6.0e6;  // over the 5 ms default limit

  SloConfig enforced;
  enforced.enforce_settle_p99 = true;
  SloChecker enforcing(enforced);
  enforcing.Check(telem);
  ASSERT_EQ(enforcing.report().violations.size(), 1u);
  EXPECT_EQ(enforcing.report().violations[0].invariant, "settlement-p99");

  // Wall-clock latency is nondeterministic, so by default it is reported
  // but kept out of pass/fail: verdicts do not depend on the machine.
  SloChecker reporting{SloConfig{}};
  reporting.Check(telem);
  EXPECT_TRUE(reporting.report().passed);
}

TEST(SloCheckerTest, ConservationIsExact) {
  SloChecker checker{SloConfig{}};
  EpochTelemetry telem = CleanEpoch();
  // One missing micro-dollar is a failed epoch, not a rounding error.
  telem.total_balance = telem.expected_total - Money::FromMicros(1);
  checker.Check(telem);
  ASSERT_EQ(checker.report().violations.size(), 1u);
  EXPECT_EQ(checker.report().violations[0].invariant, "conservation");
}

TEST(SloCheckerTest, DirtyReconcilerFailsConservation) {
  SloChecker checker{SloConfig{}};
  EpochTelemetry telem = CleanEpoch();
  telem.reconciler_clean = false;
  checker.Check(telem);
  ASSERT_EQ(checker.report().violations.size(), 1u);
  EXPECT_EQ(checker.report().violations[0].invariant, "conservation");
}

TEST(SloCheckerTest, AcceptedReplayIsADoubleSpend) {
  SloChecker checker{SloConfig{}};
  EpochTelemetry telem = CleanEpoch();
  telem.replay_attempts = 10;
  telem.replays_rejected = 9;  // one slipped through
  checker.Check(telem);
  ASSERT_EQ(checker.report().violations.size(), 1u);
  EXPECT_EQ(checker.report().violations[0].invariant, "replay-rejection");
}

TEST(SloCheckerTest, ViolationsAccumulateAcrossEpochs) {
  SloConfig config;
  config.max_queue_depth = 10;
  SloChecker checker(config);
  for (int e = 0; e < 3; ++e) {
    EpochTelemetry telem = CleanEpoch(e);
    telem.max_queue_depth = 1000;
    telem.reconciler_clean = false;
    checker.Check(telem);
  }
  EXPECT_EQ(checker.report().violations.size(), 6u);
  EXPECT_EQ(checker.report().epochs_checked, 3);
  EXPECT_EQ(checker.report().Summary().substr(0, 4), "FAIL");
}

}  // namespace
}  // namespace gm::scenario
