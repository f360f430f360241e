// Flash crowd: survive a 10x demand spike plus a full adversary wave.
//
//   $ ./flash_crowd
//
// Drives the full-fidelity GridMarket through the scenario engine: an
// open-loop population with heavy-tailed job sizes ramps along its
// diurnal curve, a flash crowd multiplies the arrival rate 10x for two
// minutes, and all three adversary archetypes attack simultaneously —
// bid snipers churning the auctions, flooders swarming the broker with
// tiny-budget jobs, replayers re-presenting spent settlement ids and
// transfer tokens. The SLO checker then proves the market stayed live:
// bounded queues, no honest-job starvation, every replay refused, and
// money conserved to the exact micro-dollar (reconciler-verified).
#include <cstdio>

#include "common/log.hpp"
#include "scenario/engine.hpp"
#include "scenario/grid_backend.hpp"

int main() {
  using namespace gm;

  // An overloaded market WARNs once per shed job; under a flash crowd
  // that is thousands of lines. Shedding is the expected behavior here —
  // keep the console for the telemetry the SLO verdict is based on.
  Logger::Instance().set_level(LogLevel::kError);

  // Six 2-minute epochs of open-loop traffic over a 1000-user
  // population; the flash crowd hits at minute 4 and lasts 2 minutes.
  scenario::ScenarioConfig config;
  config.seed = 20060619;  // HPDC'06
  config.epochs = 6;
  config.epoch_duration = 2 * sim::kMinute;
  config.traffic.users = 1000;
  config.traffic.base_arrivals_per_sec = 0.5;
  config.traffic.flash_start = 4 * sim::kMinute;
  config.traffic.flash_duration = 2 * sim::kMinute;
  config.traffic.flash_multiplier = 10.0;

  // The adversary wave: snipers, flooders and replayers, all on.
  config.adversary.snipers = 8;
  config.adversary.snipe_rate_per_sec = 0.5;
  config.adversary.flood_rate_per_sec = 0.5;
  config.adversary.replay_rate_per_sec = 0.3;

  config.slo.max_queue_depth = 10'000;

  // Full fidelity: every arrival pays the broker with a signed token and
  // is scheduled by Best Response; a 6-host market with a 4-shard bank
  // federation behind it.
  scenario::GridScenarioBackend::Options options;
  options.grid.hosts = 6;
  options.grid.bank_shards = 4;
  options.identities = 8;

  scenario::GridScenarioBackend backend(config, options);
  const scenario::ScenarioResult result =
      scenario::ScenarioEngine(config).Run(backend);

  std::printf("scenario digest: %s\n", result.digest.c_str());
  std::printf("arrivals: %llu (sustained %.0f/wall-sec)\n",
              static_cast<unsigned long long>(result.total_arrivals),
              result.ArrivalsPerWallSec());
  for (const scenario::EpochTelemetry& telem : result.epochs) {
    std::printf(
        "epoch %d: %4llu honest + %3llu hostile arrivals, %4llu done, "
        "queue<=%-4zu replays %llu/%llu refused, conserved=%s\n",
        telem.epoch, static_cast<unsigned long long>(telem.arrivals),
        static_cast<unsigned long long>(telem.hostile_arrivals),
        static_cast<unsigned long long>(telem.completions),
        telem.max_queue_depth,
        static_cast<unsigned long long>(telem.replays_rejected),
        static_cast<unsigned long long>(telem.replay_attempts),
        telem.reconciler_clean ? "yes" : "NO");
  }
  if (result.flash_recovery >= 0)
    std::printf("flash recovery: %.0f sim-seconds after the spike ended\n",
                sim::ToSeconds(result.flash_recovery));

  std::printf("SLO: %s\n", result.slo.Summary().c_str());
  return result.slo.passed ? 0 : 1;
}
