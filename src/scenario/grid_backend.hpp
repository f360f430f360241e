// Full-fidelity scenario backend over the GridMarket facade.
//
// Drives the complete market flow per arrival — bank transfer, signed
// transfer token, broker authorization, Best-Response bidding, VMs,
// refund — so every subsystem the paper deploys is under load. The
// price of full fidelity is scale: user registration does Schnorr
// keygen, so the open-loop population is folded onto a small set of
// registered Grid identities (order.user % identities).
//
// Adversaries here attack the real surfaces:
//   snipers  place short-deadline bids directly on host auctioneers,
//   flooders submit real (tiny-budget) jobs through the broker under a
//            dedicated hostile identity,
//   replayers re-present an already-claimed transfer token to the
//            broker AND probe the federation's settlement registry.
//
// Every job arrival also mirrors a small federation transfer
// user:<name> -> host:<id>, which keeps the two-phase settlement path
// (and its latency histogram, the reported settlement p99) under live
// load.
#pragma once

#include <cstdint>
#include <set>
#include <string>

#include "core/grid_market.hpp"
#include "scenario/engine.hpp"

namespace gm::scenario {

class GridScenarioBackend : public ScenarioBackend {
 public:
  struct Options {
    /// Base grid configuration; the backend forces telemetry on and a
    /// sharded bank federation (>= 2 shards) if not already set.
    GridMarket::Config grid;
    /// Registered Grid identities the open-loop population folds onto.
    std::uint64_t identities = 16;
  };

  GridScenarioBackend(ScenarioConfig scenario, Options options);

  void RunEpoch(int epoch, EpochTelemetry& out) override;
  std::string LedgerHash() override;

  GridMarket& grid() { return *grid_; }

 private:
  std::string IdentityFor(std::uint64_t user_ordinal) const;
  void SubmitOrder(const JobOrder& order, const std::string& identity,
                   EpochTelemetry& out);
  void RunAdversaries(sim::SimTime now, Rng& rng, EpochTelemetry& out);
  /// Replay a real transfer token through the broker: pay, submit once
  /// (a legitimate arrival), then re-present the same token.
  void ReplayBrokerToken(EpochTelemetry& out);

  ScenarioConfig scenario_;
  Options options_;
  TrafficModel traffic_;
  AdversaryModel adversary_;
  std::unique_ptr<GridMarket> grid_;
  std::uint64_t round_ = 0;
  std::uint64_t submitted_ = 0;
  std::uint64_t mirror_transfers_ = 0;
  std::set<std::uint64_t> hostile_jobs_;
  std::set<std::uint64_t> counted_completions_;
  std::set<std::uint64_t> opened_snipers_;
};

}  // namespace gm::scenario
