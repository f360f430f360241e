// Adversary models for stress scenarios.
//
// Three adversary archetypes attack three different layers of the market:
//
//   Bid snipers   (market layer)  churn short-lived bids near auction
//                 ticks, trying to distort the spot price other bidders
//                 see without ever paying for sustained capacity.
//   Flooders      (admission layer)  submit swarms of tiny-budget jobs to
//                 exhaust broker queues and VM slots; the market's
//                 defense is price priority — a near-zero bid rate loses
//                 every auction it shares with an honest bid.
//   Replayers     (settlement layer)  re-present settlement ids and
//                 transfer tokens that were already claimed, probing the
//                 double-spend registry for acceptance.
//
// Like TrafficModel, every method is a pure function of (config, explicit
// arguments, the caller's Rng stream) — no mutable state — so a seed
// reproduces the same attack stream bit-for-bit. Adversaries are active
// for the whole run: the interval start `now` each method takes does not
// change what it draws.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "scenario/traffic.hpp"
#include "sim/time.hpp"

namespace gm::scenario {

/// One sniper bid: a standing bid placed this round with a deadline one
/// auction interval out, re-placed (at a fresh rate) every round — the
/// re-bidding IS the churn.
struct SnipeBid {
  std::uint64_t sniper = 0;  // ordinal into the sniper population
  Rate rate;
  Money fund;  // balance deposited behind the bid
};

/// One settlement-id replay probe.
struct ReplayProbe {
  std::string settlement_id;
};

/// A sniper re-bids at a rate uniform in [0, kSnipeMaxRate) and
/// deposits kSnipeFund behind the bid.
constexpr Rate kSnipeMaxRate = Rate::DollarsPerSec(0.05);
constexpr Money kSnipeFund = Money::Dollars(0.25);
/// A flood job asks for kFloodSize cycles on a budget uniform in
/// (0, kFloodBudget].
constexpr Money kFloodBudget = Money::FromMicros(2'000);  // $0.002
constexpr Cycles kFloodSize = 60.0e9;
static_assert(kFloodBudget.is_positive(),
              "zero-balance flood bids would never run");

struct AdversaryConfig {
  /// Bid snipers: `snipers` distinct identities; each round a
  /// Poisson(snipe_rate_per_sec * dt) number of them re-bid.
  std::uint64_t snipers = 0;
  double snipe_rate_per_sec = 0.0;

  /// Flooders: Poisson(flood_rate_per_sec * dt) hostile job orders per
  /// interval.
  double flood_rate_per_sec = 0.0;

  /// Replayers: Poisson(replay_rate_per_sec * dt) probes per interval.
  /// Each probe synthesizes a plausible settlement id "s<shard>-<seq>"
  /// with seq uniform in [1, seq_hint] — the two-phase settlement
  /// protocol mints ids deterministically, so an attacker who has seen
  /// traffic can guess live ids; the registry must still refuse them.
  double replay_rate_per_sec = 0.0;
};

class AdversaryModel {
 public:
  explicit AdversaryModel(AdversaryConfig config);

  const AdversaryConfig& config() const { return config_; }

  /// Sniper bids to (re-)place in [now, now + dt), scaled by `share`.
  std::vector<SnipeBid> SnipeBids(sim::SimTime now, sim::SimDuration dt,
                                  double share, Rng& rng) const;

  /// Hostile job orders for [now, now + dt): tiny budgets, short
  /// deadlines, `hostile` flag set so SLO accounting can separate them
  /// from honest traffic.
  std::vector<JobOrder> FloodOrders(sim::SimTime now, sim::SimDuration dt,
                                    double share, Rng& rng) const;

  /// Settlement-id replay probes for [now, now + dt). `shard_hint` and
  /// `seq_hint` bound the id space the attacker guesses over (ids the
  /// protocol has plausibly minted so far).
  std::vector<ReplayProbe> ReplayIds(sim::SimTime now, sim::SimDuration dt,
                                     double share, std::uint64_t shard_hint,
                                     std::uint64_t seq_hint, Rng& rng) const;

 private:
  AdversaryConfig config_;
};

}  // namespace gm::scenario
