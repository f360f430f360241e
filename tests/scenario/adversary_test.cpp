// AdversaryModel: a disabled model draws nothing, flood/snipe/replay
// sampling bounds, and the same purity/determinism contract as TrafficModel.
#include <gtest/gtest.h>

#include <string>

#include "common/rng.hpp"
#include "scenario/adversary.hpp"
#include "sim/time.hpp"

namespace gm::scenario {
namespace {

AdversaryConfig AllOn() {
  AdversaryConfig config;
  config.snipers = 8;
  config.snipe_rate_per_sec = 2.0;
  config.flood_rate_per_sec = 2.0;
  config.replay_rate_per_sec = 2.0;
  return config;
}

TEST(AdversaryModelTest, DisabledModelIsNeverActive) {
  // All rates zero: every sampler returns nothing and leaves the
  // caller's RNG stream untouched.
  AdversaryModel model{AdversaryConfig{}};
  Rng rng(1);
  const sim::SimDuration dt = 10 * sim::kSecond;
  for (const sim::SimTime now : {sim::SimTime{0}, sim::kDay}) {
    EXPECT_TRUE(model.SnipeBids(now, dt, 1.0, rng).empty());
    EXPECT_TRUE(model.FloodOrders(now, dt, 1.0, rng).empty());
    EXPECT_TRUE(model.ReplayIds(now, dt, 1.0, 4, 100, rng).empty());
  }
  Rng untouched(1);
  EXPECT_EQ(rng.Next(), untouched.Next());
}

TEST(AdversaryModelTest, SnipeBidsStayInBounds) {
  AdversaryModel model(AllOn());
  Rng rng(42);
  std::size_t total = 0;
  for (int step = 0; step < 50; ++step) {
    for (const SnipeBid& bid :
         model.SnipeBids(0, 10 * sim::kSecond, 1.0, rng)) {
      ++total;
      EXPECT_LT(bid.sniper, model.config().snipers);
      EXPECT_GE(bid.rate.micros_per_sec(), 0);
      EXPECT_LE(bid.rate.micros_per_sec(),
                kSnipeMaxRate.micros_per_sec());
      EXPECT_EQ(bid.fund, kSnipeFund);
    }
  }
  EXPECT_GT(total, 0u);  // mean 20/step over 50 steps
}

TEST(AdversaryModelTest, FloodOrdersAreHostileWithTinyPositiveBudgets) {
  AdversaryModel model(AllOn());
  Rng rng(43);
  std::size_t total = 0;
  for (int step = 0; step < 50; ++step) {
    for (const JobOrder& order :
         model.FloodOrders(0, 10 * sim::kSecond, 1.0, rng)) {
      ++total;
      EXPECT_TRUE(order.hostile);
      EXPECT_TRUE(order.budget.is_positive());
      EXPECT_LE(order.budget, kFloodBudget);
      EXPECT_EQ(order.size, kFloodSize);
      EXPECT_GT(order.deadline, 0);
    }
  }
  EXPECT_GT(total, 0u);
}

TEST(AdversaryModelTest, ReplayIdsLookLikeSettlementIds) {
  AdversaryModel model(AllOn());
  Rng rng(44);
  std::size_t total = 0;
  for (int step = 0; step < 50; ++step) {
    for (const ReplayProbe& probe :
         model.ReplayIds(0, 10 * sim::kSecond, 1.0, /*shard_hint=*/4,
                         /*seq_hint=*/500, rng)) {
      ++total;
      // "s<shard>-<seq>", shard < hint, 1 <= seq <= hint — the exact id
      // space the two-phase protocol mints from.
      ASSERT_GE(probe.settlement_id.size(), 4u);
      EXPECT_EQ(probe.settlement_id[0], 's');
      const std::size_t dash = probe.settlement_id.find('-');
      ASSERT_NE(dash, std::string::npos);
      const int shard = std::stoi(probe.settlement_id.substr(1, dash - 1));
      const long seq = std::stol(probe.settlement_id.substr(dash + 1));
      EXPECT_GE(shard, 0);
      EXPECT_LT(shard, 4);
      EXPECT_GE(seq, 1);
      EXPECT_LE(seq, 500);
    }
  }
  EXPECT_GT(total, 0u);
}

TEST(AdversaryModelTest, SamplersAreDeterministic) {
  AdversaryModel model(AllOn());
  Rng a(777);
  Rng b(777);
  for (int step = 0; step < 20; ++step) {
    const sim::SimTime now = step * 10 * sim::kSecond;
    const auto bids_a = model.SnipeBids(now, 10 * sim::kSecond, 1.0, a);
    const auto bids_b = model.SnipeBids(now, 10 * sim::kSecond, 1.0, b);
    ASSERT_EQ(bids_a.size(), bids_b.size());
    for (std::size_t i = 0; i < bids_a.size(); ++i) {
      EXPECT_EQ(bids_a[i].sniper, bids_b[i].sniper);
      EXPECT_EQ(bids_a[i].rate.micros_per_sec(),
                bids_b[i].rate.micros_per_sec());
    }
    const auto probes_a = model.ReplayIds(now, 10 * sim::kSecond, 1.0, 4, 9, a);
    const auto probes_b = model.ReplayIds(now, 10 * sim::kSecond, 1.0, 4, 9, b);
    ASSERT_EQ(probes_a.size(), probes_b.size());
    for (std::size_t i = 0; i < probes_a.size(); ++i)
      EXPECT_EQ(probes_a[i].settlement_id, probes_b[i].settlement_id);
  }
}

}  // namespace
}  // namespace gm::scenario
