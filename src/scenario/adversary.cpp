#include "scenario/adversary.hpp"

#include <algorithm>

#include "common/status.hpp"
#include "math/distributions.hpp"

namespace gm::scenario {

namespace {

std::uint64_t PoissonCount(double rate_per_sec, sim::SimDuration dt,
                           double share, Rng& rng) {
  const double mean = rate_per_sec * sim::ToSeconds(dt) * std::max(0.0, share);
  if (mean <= 0.0) return 0;
  return math::PoissonSampler(mean).Sample(rng);
}

}  // namespace

AdversaryModel::AdversaryModel(AdversaryConfig config) : config_(config) {
  GM_ASSERT(config_.snipe_rate_per_sec == 0.0 || config_.snipers > 0,
            "sniping needs a sniper population");
}

std::vector<SnipeBid> AdversaryModel::SnipeBids(sim::SimTime /*now*/,
                                                sim::SimDuration dt,
                                                double share, Rng& rng) const {
  std::vector<SnipeBid> bids;
  const std::uint64_t n =
      PoissonCount(config_.snipe_rate_per_sec, dt, share, rng);
  bids.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    SnipeBid bid;
    bid.sniper = rng.NextBelow(config_.snipers);
    bid.rate = kSnipeMaxRate * rng.NextDouble();
    bid.fund = kSnipeFund;
    bids.push_back(bid);
  }
  return bids;
}

std::vector<JobOrder> AdversaryModel::FloodOrders(sim::SimTime /*now*/,
                                                  sim::SimDuration dt,
                                                  double share,
                                                  Rng& rng) const {
  std::vector<JobOrder> orders;
  const std::uint64_t n =
      PoissonCount(config_.flood_rate_per_sec, dt, share, rng);
  orders.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    JobOrder order;
    order.hostile = true;
    order.user = rng.Next();  // throwaway identity per hostile job
    order.size = kFloodSize;
    // Uniform in (0, kFloodBudget]: never zero (a zero-balance bid is
    // inert and would not even reach the admission queue).
    const Micros cap = kFloodBudget.micros();
    order.budget = Money::FromMicros(
        1 + static_cast<Micros>(rng.NextBelow(static_cast<std::uint64_t>(cap))));
    order.deadline = 5 * sim::kMinute;
    orders.push_back(order);
  }
  return orders;
}

std::vector<ReplayProbe> AdversaryModel::ReplayIds(
    sim::SimTime /*now*/, sim::SimDuration dt, double share,
    std::uint64_t shard_hint, std::uint64_t seq_hint, Rng& rng) const {
  std::vector<ReplayProbe> probes;
  const std::uint64_t n =
      PoissonCount(config_.replay_rate_per_sec, dt, share, rng);
  probes.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    // Two-phase settlement mints ids "s<shard>-<seq>" in sequence order;
    // guess one in the range the protocol has plausibly used.
    const std::uint64_t shard =
        rng.NextBelow(std::max<std::uint64_t>(1, shard_hint));
    const std::uint64_t seq =
        1 + rng.NextBelow(std::max<std::uint64_t>(1, seq_hint));
    probes.push_back(
        {"s" + std::to_string(shard) + "-" + std::to_string(seq)});
  }
  return probes;
}

}  // namespace gm::scenario
