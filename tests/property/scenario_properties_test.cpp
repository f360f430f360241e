// Scenario-engine properties (the tentpole determinism contract):
//
//   1. A flash-crowd scenario run serially and with an 8-thread pool
//      produces bit-identical digests and federation ledger hashes at
//      every tested seed — thread scheduling can never leak into the
//      economy.
//   2. Under active adversaries (flooders, snipers, settlement
//      replayers) money conservation holds EXACTLY every epoch, with
//      the federation Reconciler's signed report verified each time.
//   3. A 10k-user flash crowd long enough to settle passes every SLO,
//      conserves money and returns to its pre-flash queue envelope.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "core/grid_market.hpp"
#include "scenario/engine.hpp"
#include "scenario/parallel_backend.hpp"
#include "sim/time.hpp"

namespace gm::scenario {
namespace {

GridMarket::Config ScaleGrid(std::uint64_t seed) {
  GridMarket::Config config;
  config.hosts = 4;
  config.cpus_per_host = 2;
  config.bank_shards = 4;
  config.seed = seed;
  return config;
}

ScenarioConfig FlashCrowdScenario(std::uint64_t seed) {
  ScenarioConfig config;
  config.seed = seed;
  config.epochs = 3;
  config.epoch_duration = sim::kMinute;

  config.traffic.users = 2'000;
  config.traffic.base_arrivals_per_sec = 2.0;
  // 10x spike across the middle epoch.
  config.traffic.flash_start = sim::kMinute;
  config.traffic.flash_duration = 30 * sim::kSecond;
  config.traffic.flash_multiplier = 10.0;

  config.adversary.snipers = 8;
  config.adversary.snipe_rate_per_sec = 0.5;
  config.adversary.flood_rate_per_sec = 1.0;
  config.adversary.replay_rate_per_sec = 0.5;

  config.slo.enforce_settle_p99 = false;  // wall clock: reported only
  config.slo.max_queue_depth = 100'000;
  return config;
}

ScenarioResult RunScenario(const ScenarioConfig& scenario,
                           const GridMarket::Config& grid_config, bool serial,
                           std::string* ledger_hash) {
  GridMarket grid(grid_config);
  ParallelScenarioBackend::Options options;
  options.serial = serial;
  options.threads = 8;
  ParallelScenarioBackend backend(grid, scenario, options);
  const ScenarioResult result = ScenarioEngine(scenario).Run(backend);
  if (ledger_hash != nullptr) *ledger_hash = backend.LedgerHash();
  return result;
}

ScenarioResult RunOnce(std::uint64_t seed, bool serial,
                       std::string* ledger_hash) {
  return RunScenario(FlashCrowdScenario(seed), ScaleGrid(seed), serial,
                     ledger_hash);
}

TEST(ScenarioPropertiesTest, SerialAndEightThreadRunsAreBitIdentical) {
  for (const std::uint64_t seed : {7ull, 21ull, 1234ull}) {
    std::string serial_ledger;
    std::string parallel_ledger;
    const ScenarioResult serial = RunOnce(seed, /*serial=*/true,
                                          &serial_ledger);
    const ScenarioResult parallel = RunOnce(seed, /*serial=*/false,
                                            &parallel_ledger);
    // The digest folds every deterministic observable of every epoch
    // plus the ledger hash after each epoch: equality here means the
    // whole economy evolved identically under 8 threads.
    EXPECT_EQ(serial.digest, parallel.digest) << "seed " << seed;
    EXPECT_EQ(serial_ledger, parallel_ledger) << "seed " << seed;
    EXPECT_EQ(serial.total_arrivals, parallel.total_arrivals);
    EXPECT_GT(serial.total_arrivals, 0u) << "seed " << seed;
  }
}

TEST(ScenarioPropertiesTest, AdversariesNeverBreakConservation) {
  for (const std::uint64_t seed : {7ull, 21ull, 1234ull}) {
    const ScenarioResult result = RunOnce(seed, /*serial=*/false, nullptr);
    ASSERT_FALSE(result.epochs.empty());
    for (const EpochTelemetry& telem : result.epochs) {
      // Exact conservation under hostile load, certified by a verified
      // reconciler report at each epoch's quiescent point.
      EXPECT_TRUE(telem.reconciler_clean)
          << "seed " << seed << " epoch " << telem.epoch;
      EXPECT_EQ(telem.total_balance, telem.expected_total)
          << "seed " << seed << " epoch " << telem.epoch;
      // Every settlement-id replay the adversary fired was refused.
      EXPECT_EQ(telem.replay_attempts, telem.replays_rejected)
          << "seed " << seed << " epoch " << telem.epoch;
    }
    EXPECT_TRUE(result.slo.passed) << "seed " << seed << "\n"
                                   << result.slo.Summary();
  }
}

// Eight one-minute epochs: the flood backlog saturates before the
// 6-minute flash (hostile jobs live 5 sim-minutes), so recovery is
// measured against a steady pre-flash envelope, not a rising ramp.
TEST(ScenarioPropertiesTest, TenThousandUserFlashCrowdRecovers) {
  ScenarioConfig scenario;
  scenario.seed = 20060619;
  scenario.epochs = 8;
  scenario.epoch_duration = sim::kMinute;
  scenario.traffic.users = 10'000;
  scenario.traffic.base_arrivals_per_sec = 2.0;
  scenario.traffic.flash_start = 6 * sim::kMinute;
  scenario.traffic.flash_duration = 30 * sim::kSecond;
  scenario.traffic.flash_multiplier = 10.0;
  scenario.adversary.snipers = 64;
  scenario.adversary.snipe_rate_per_sec = 1.0;
  scenario.adversary.flood_rate_per_sec = 2.0;
  scenario.adversary.replay_rate_per_sec = 0.5;
  scenario.slo.enforce_settle_p99 = false;  // wall clock: reported only
  scenario.slo.max_queue_depth = 100'000;

  GridMarket::Config grid = ScaleGrid(scenario.seed);
  grid.telemetry.enabled = true;  // runs with the settle histogram live
  std::string serial_ledger;
  std::string parallel_ledger;
  const ScenarioResult serial =
      RunScenario(scenario, grid, /*serial=*/true, &serial_ledger);
  const ScenarioResult parallel =
      RunScenario(scenario, grid, /*serial=*/false, &parallel_ledger);
  EXPECT_EQ(serial.digest, parallel.digest);
  EXPECT_EQ(serial_ledger, parallel_ledger);

  for (const ScenarioResult* result : {&serial, &parallel}) {
    const char* mode = result == &serial ? "serial" : "8 threads";
    EXPECT_TRUE(result->slo.passed) << mode << "\n" << result->slo.Summary();
    ASSERT_EQ(result->epochs.size(), 8u) << mode;
    for (const EpochTelemetry& telem : result->epochs) {
      EXPECT_TRUE(telem.reconciler_clean) << mode << " epoch " << telem.epoch;
      EXPECT_EQ(telem.total_balance, telem.expected_total)
          << mode << " epoch " << telem.epoch;
      EXPECT_EQ(telem.replay_attempts, telem.replays_rejected)
          << mode << " epoch " << telem.epoch;
    }
    EXPECT_GT(result->flash_recovery, 0) << mode;
    EXPECT_GT(result->total_arrivals, 0u) << mode;
  }
}

TEST(ScenarioPropertiesTest, DifferentSeedsDiverge) {
  const ScenarioResult a = RunOnce(7, /*serial=*/true, nullptr);
  const ScenarioResult b = RunOnce(8, /*serial=*/true, nullptr);
  EXPECT_NE(a.digest, b.digest);
}

}  // namespace
}  // namespace gm::scenario
