// TrafficModel: diurnal/flash rate shape, Poisson arrival splitting
// across shards, heavy-tailed size/budget sampling and the determinism
// contract (pure function of config + explicit args + Rng stream).
#include <gtest/gtest.h>

#include <cstdint>

#include "common/rng.hpp"
#include "scenario/traffic.hpp"
#include "sim/time.hpp"

namespace gm::scenario {
namespace {

TEST(TrafficModelTest, DiurnalCycleShapesRate) {
  TrafficConfig config;
  config.base_arrivals_per_sec = 2.0;
  config.diurnal_amplitude = 0.4;
  config.diurnal_period = sim::kDay;
  TrafficModel model(config);

  EXPECT_NEAR(model.RateAt(0), 2.0, 1e-9);
  EXPECT_NEAR(model.RateAt(sim::kDay / 4), 2.0 * 1.4, 1e-9);      // peak
  EXPECT_NEAR(model.RateAt(3 * sim::kDay / 4), 2.0 * 0.6, 1e-9);  // trough
  // Periodic: one full day later the rate repeats exactly.
  EXPECT_NEAR(model.RateAt(sim::kDay / 4),
              model.RateAt(sim::kDay + sim::kDay / 4), 1e-9);
}

TEST(TrafficModelTest, FlashWindowMultipliesRate) {
  TrafficConfig config;
  config.base_arrivals_per_sec = 3.0;
  config.diurnal_amplitude = 0.0;  // isolate the flash factor
  config.flash_start = 1000 * sim::kSecond;
  config.flash_duration = 100 * sim::kSecond;
  config.flash_multiplier = 10.0;
  TrafficModel model(config);

  EXPECT_FALSE(model.InFlash(config.flash_start - 1));
  EXPECT_TRUE(model.InFlash(config.flash_start));
  EXPECT_TRUE(model.InFlash(config.flash_start + config.flash_duration - 1));
  EXPECT_FALSE(model.InFlash(config.flash_start + config.flash_duration));
  EXPECT_EQ(model.FlashEnd(), config.flash_start + config.flash_duration);

  EXPECT_NEAR(model.RateAt(config.flash_start - 1), 3.0, 1e-9);
  EXPECT_NEAR(model.RateAt(config.flash_start + 1), 30.0, 1e-9);
}

TEST(TrafficModelTest, NoFlashMeansNoFlashEnd) {
  TrafficModel model(TrafficConfig{});
  EXPECT_EQ(model.FlashEnd(), -1);
  EXPECT_FALSE(model.InFlash(0));
  EXPECT_FALSE(model.InFlash(sim::kDay));
}

TEST(TrafficModelTest, SampleArrivalsIsDeterministic) {
  TrafficModel model(TrafficConfig{});
  Rng a(12345);
  Rng b(12345);
  for (int step = 0; step < 32; ++step) {
    const sim::SimTime now = step * 10 * sim::kSecond;
    EXPECT_EQ(model.SampleArrivals(now, 10 * sim::kSecond, 1.0, a),
              model.SampleArrivals(now, 10 * sim::kSecond, 1.0, b))
        << "step " << step;
  }
}

TEST(TrafficModelTest, ShardedArrivalsPreserveTheMean) {
  // Sum of 4 shards each sampling share=1/4 must have the same mean as
  // the whole process (sum of independent Poissons); check both against
  // the analytic mean rate*dt.
  TrafficConfig config;
  config.base_arrivals_per_sec = 5.0;
  config.diurnal_amplitude = 0.0;
  TrafficModel model(config);
  const sim::SimDuration dt = 10 * sim::kSecond;
  const double expected = 5.0 * 10.0;  // per interval

  std::uint64_t whole = 0;
  std::uint64_t split = 0;
  const int rounds = 400;
  Rng whole_rng(7);
  Rng shard_rng[4] = {Rng(101), Rng(202), Rng(303), Rng(404)};
  for (int r = 0; r < rounds; ++r) {
    whole += model.SampleArrivals(0, dt, 1.0, whole_rng);
    for (auto& rng : shard_rng) split += model.SampleArrivals(0, dt, 0.25, rng);
  }
  const double whole_mean = static_cast<double>(whole) / rounds;
  const double split_mean = static_cast<double>(split) / rounds;
  // stddev of the per-round mean is sqrt(50/400) ~ 0.35; 5% of 50 = 2.5
  // gives ~7 sigma of headroom against flakes.
  EXPECT_NEAR(whole_mean, expected, 2.5);
  EXPECT_NEAR(split_mean, expected, 2.5);
}

TEST(TrafficModelTest, ZeroShareYieldsZeroArrivals) {
  TrafficModel model(TrafficConfig{});
  Rng rng(1);
  EXPECT_EQ(model.SampleArrivals(0, 10 * sim::kSecond, 0.0, rng), 0u);
}

TEST(TrafficModelTest, ParetoOrdersStayInBounds) {
  TrafficConfig config;
  config.users = 1000;
  TrafficModel model(config);
  Rng rng(99);
  for (int i = 0; i < 4000; ++i) {
    const JobOrder order = model.SampleOrder(rng);
    EXPECT_LT(order.user, config.users);
    EXPECT_GE(order.size, kSizeScale);  // Pareto minimum = scale
    EXPECT_LE(order.size, kSizeCap);
    EXPECT_TRUE(order.budget.is_positive());
    EXPECT_LE(order.budget, config.budget_cap);
    EXPECT_GE(order.deadline, kDeadlineFloor);
    EXPECT_FALSE(order.hostile);
  }
}

TEST(TrafficModelTest, SizeCapTruncatesTheTail) {
  // P(X > kSizeCap) = (kSizeScale / kSizeCap)^1.6 = 200^-1.6 ~ 2e-4, so
  // 100k orders reach the cap about 20 times.
  TrafficModel model(TrafficConfig{});
  Rng rng(17);
  int capped = 0;
  for (int i = 0; i < 100'000; ++i) {
    const JobOrder order = model.SampleOrder(rng);
    EXPECT_LE(order.size, kSizeCap);
    if (order.size == kSizeCap) ++capped;
  }
  EXPECT_GT(capped, 0);
}

TEST(TrafficModelTest, DeadlineScalesWithJobSize) {
  TrafficConfig config;
  TrafficModel model(config);
  Rng rng(11);
  for (int i = 0; i < 2000; ++i) {
    const JobOrder order = model.SampleOrder(rng);
    const double ideal_secs = order.size / config.reference_capacity;
    const sim::SimDuration scaled = sim::Seconds(kDeadlineSlack * ideal_secs);
    EXPECT_EQ(order.deadline, std::max(kDeadlineFloor, scaled));
  }
}

TEST(TrafficModelTest, SampleOrderIsDeterministic) {
  TrafficModel model(TrafficConfig{});
  Rng a(2024);
  Rng b(2024);
  for (int i = 0; i < 256; ++i) {
    const JobOrder x = model.SampleOrder(a);
    const JobOrder y = model.SampleOrder(b);
    EXPECT_EQ(x.user, y.user);
    EXPECT_EQ(x.size, y.size);  // bit-identical doubles, same stream
    EXPECT_EQ(x.budget, y.budget);
    EXPECT_EQ(x.deadline, y.deadline);
  }
}

}  // namespace
}  // namespace gm::scenario
