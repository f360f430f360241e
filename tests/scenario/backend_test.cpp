// GridScenarioBackend end-to-end smoke: a short flash-crowd scenario
// with all three adversaries over the full-fidelity GridMarket stack
// must pass every SLO, conserve money exactly, and be reproducible.
#include <gtest/gtest.h>

#include <string>

#include "scenario/engine.hpp"
#include "scenario/grid_backend.hpp"
#include "sim/time.hpp"

namespace gm::scenario {
namespace {

ScenarioConfig SmokeScenario() {
  ScenarioConfig config;
  config.seed = 21;
  config.epochs = 3;
  config.epoch_duration = sim::kMinute;

  config.traffic.users = 500;
  config.traffic.base_arrivals_per_sec = 0.4;
  config.traffic.flash_start = sim::kMinute;  // epoch 1 is the spike
  config.traffic.flash_duration = 30 * sim::kSecond;
  config.traffic.flash_multiplier = 10.0;

  config.adversary.snipers = 4;
  config.adversary.snipe_rate_per_sec = 0.3;
  config.adversary.flood_rate_per_sec = 0.3;
  config.adversary.replay_rate_per_sec = 0.3;

  config.slo.max_queue_depth = 10'000;
  return config;
}

GridScenarioBackend::Options SmokeOptions() {
  GridScenarioBackend::Options options;
  options.grid.hosts = 3;
  options.grid.cpus_per_host = 2;
  options.grid.bank_shards = 4;
  options.identities = 4;  // Schnorr keygen per identity: keep it small
  return options;
}

TEST(GridScenarioBackendTest, FlashCrowdWithAdversariesPassesEverySlo) {
  const ScenarioConfig scenario = SmokeScenario();
  GridScenarioBackend backend(scenario, SmokeOptions());
  const ScenarioResult result = ScenarioEngine(scenario).Run(backend);

  EXPECT_TRUE(result.slo.passed) << result.slo.Summary();
  EXPECT_EQ(result.slo.epochs_checked, 3);
  EXPECT_GT(result.total_arrivals, 0u);
  EXPECT_EQ(result.digest.size(), 16u);
  // The epoch-1 spike drains: queue depth returns to its pre-flash
  // envelope a measurable time after the flash ends.
  EXPECT_GT(result.flash_recovery, 0);

  for (const EpochTelemetry& telem : result.epochs) {
    // Conservation is exact every epoch, adversaries or not, and every
    // replay attempt (registry probes + broker token re-presentation)
    // was refused.
    EXPECT_TRUE(telem.reconciler_clean) << "epoch " << telem.epoch;
    EXPECT_EQ(telem.total_balance, telem.expected_total);
    EXPECT_EQ(telem.replay_attempts, telem.replays_rejected);
  }
  // The adversaries actually ran: at least one epoch saw replay probes.
  std::uint64_t replays = 0;
  for (const EpochTelemetry& telem : result.epochs)
    replays += telem.replay_attempts;
  EXPECT_GT(replays, 0u);
}

TEST(GridScenarioBackendTest, SameSeedReproducesTheDigest) {
  const ScenarioConfig scenario = SmokeScenario();
  GridScenarioBackend a(scenario, SmokeOptions());
  GridScenarioBackend b(scenario, SmokeOptions());
  const ScenarioResult ra = ScenarioEngine(scenario).Run(a);
  const ScenarioResult rb = ScenarioEngine(scenario).Run(b);
  EXPECT_EQ(ra.digest, rb.digest);
  EXPECT_EQ(a.LedgerHash(), b.LedgerHash());

  ScenarioConfig reseeded = SmokeScenario();
  reseeded.seed = 22;
  GridScenarioBackend c(reseeded, SmokeOptions());
  EXPECT_NE(ScenarioEngine(reseeded).Run(c).digest, ra.digest);
}

}  // namespace
}  // namespace gm::scenario
