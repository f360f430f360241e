#include "scenario/traffic.hpp"

#include <algorithm>
#include <cmath>

#include "common/status.hpp"
#include "math/distributions.hpp"

namespace gm::scenario {

TrafficModel::TrafficModel(TrafficConfig config) : config_(config) {
  GM_ASSERT(config_.users > 0, "traffic model needs a population");
  GM_ASSERT(config_.base_arrivals_per_sec >= 0.0,
            "negative arrival rate makes no sense");
  GM_ASSERT(config_.diurnal_amplitude >= 0.0 && config_.diurnal_amplitude < 1.0,
            "diurnal amplitude must be in [0, 1) to keep the rate positive");
  GM_ASSERT(config_.flash_multiplier > 0.0, "flash multiplier must be > 0");
  GM_ASSERT(config_.reference_capacity > 0.0,
            "reference capacity must be > 0");
}

bool TrafficModel::InFlash(sim::SimTime now) const {
  return config_.flash_start >= 0 && now >= config_.flash_start &&
         now < config_.flash_start + config_.flash_duration;
}

sim::SimTime TrafficModel::FlashEnd() const {
  if (config_.flash_start < 0) return -1;
  return config_.flash_start + config_.flash_duration;
}

double TrafficModel::RateAt(sim::SimTime now) const {
  constexpr double kTwoPi = 6.283185307179586;
  const double phase = static_cast<double>(now % config_.diurnal_period) /
                       static_cast<double>(config_.diurnal_period);
  double rate = config_.base_arrivals_per_sec *
                (1.0 + config_.diurnal_amplitude * std::sin(kTwoPi * phase));
  if (InFlash(now)) rate *= config_.flash_multiplier;
  return rate;
}

std::uint64_t TrafficModel::SampleArrivals(sim::SimTime now,
                                           sim::SimDuration dt, double share,
                                           Rng& rng) const {
  // Midpoint rate over the interval: exact for a constant rate, and for
  // auction-tick-sized intervals (seconds) the diurnal curve is flat
  // enough that the midpoint approximation is indistinguishable. Flash
  // edges are aligned to tick boundaries by the engine, so the midpoint
  // never straddles the multiplier discontinuity in practice.
  const double mean =
      RateAt(now + dt / 2) * sim::ToSeconds(dt) * std::max(0.0, share);
  if (mean <= 0.0) return 0;
  return math::PoissonSampler(mean).Sample(rng);
}

JobOrder TrafficModel::SampleOrder(Rng& rng) const {
  // Samplers are constructed per call on purpose: NormalSampler caches a
  // spare Box-Muller variate, and sharing that cache across shard RNG
  // streams would entangle them (shard A's draw would change shard B's
  // next sample), breaking the per-stream determinism contract.
  JobOrder order;
  order.user = rng.NextBelow(config_.users);
  order.size = std::min(
      math::ParetoSampler(kParetoAlpha, kSizeScale).Sample(rng), kSizeCap);
  const double budget_dollars =
      math::LognormalSampler(kBudgetMu, kBudgetSigma).Sample(rng);
  order.budget = Min(Money::Dollars(budget_dollars), config_.budget_cap);
  if (!order.budget.is_positive()) order.budget = Money::FromMicros(1);
  const double ideal_secs = order.size / config_.reference_capacity;
  order.deadline =
      std::max(kDeadlineFloor, sim::Seconds(kDeadlineSlack * ideal_secs));
  return order;
}

}  // namespace gm::scenario
