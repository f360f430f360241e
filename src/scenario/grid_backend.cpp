#include "scenario/grid_backend.hpp"

#include <algorithm>
#include <utility>

namespace gm::scenario {

namespace {

/// Initial funds of every registered identity, hostile or honest.
constexpr Money kIdentityFunds = Money::Dollars(50'000);
/// Sub-epoch step; arrivals are sampled per step.
constexpr sim::SimDuration kStep = 10 * sim::kSecond;
/// Per-arrival federation mirror transfer (keeps two-phase settlement
/// hot so the reported p99 measures live traffic).
constexpr Money kMirrorAmount = Money::FromMicros(50'000);

}  // namespace

GridScenarioBackend::GridScenarioBackend(ScenarioConfig scenario,
                                         Options options)
    : scenario_(std::move(scenario)),
      options_(std::move(options)),
      traffic_(scenario_.traffic),
      adversary_(scenario_.adversary) {
  GM_ASSERT(options_.identities > 0, "need at least one Grid identity");
  options_.grid.telemetry.enabled = true;
  if (options_.grid.bank_shards < 2) options_.grid.bank_shards = 4;
  options_.grid.seed = scenario_.seed;
  grid_ = std::make_unique<GridMarket>(options_.grid);
  for (std::uint64_t i = 0; i < options_.identities; ++i) {
    const Status s =
        grid_->RegisterUser(IdentityFor(i), kIdentityFunds);
    GM_ASSERT(s.ok(), "scenario identity registration failed");
  }
  // The flood adversary submits through its own registered identity so
  // hostile spending is isolated from the honest population's wallets.
  const Status s = grid_->RegisterUser("mallory", kIdentityFunds);
  GM_ASSERT(s.ok(), "adversary identity registration failed");
}

std::string GridScenarioBackend::IdentityFor(std::uint64_t user_ordinal) const {
  return "u" + std::to_string(user_ordinal % options_.identities);
}

void GridScenarioBackend::SubmitOrder(const JobOrder& order,
                                      const std::string& identity,
                                      EpochTelemetry& out) {
  grid::JobDescription desc;
  desc.job_name = (order.hostile ? "flood-" : "job-") +
                  std::to_string(submitted_);
  desc.executable = "/usr/bin/stress";
  desc.count = 1;
  desc.cpu_time_minutes =
      order.size / scenario_.traffic.reference_capacity / 60.0;
  desc.wall_time_minutes = std::max(1.0, sim::ToMinutes(order.deadline));
  ++submitted_;
  const Result<std::uint64_t> id =
      grid_->SubmitJob(identity, desc, order.budget);
  if (!id.ok()) {
    ++out.rejected;
    return;
  }
  if (order.hostile) {
    ++out.hostile_arrivals;
    hostile_jobs_.insert(*id);
  } else {
    ++out.arrivals;
  }
  // Mirror a small settlement through the federation so the two-phase
  // protocol (and its latency histogram) is under the same open-loop
  // load as the market. Round-robin over hosts; same-shard routes are
  // fine — they exercise the intra-shard fast path.
  const std::string host_account =
      "host:" +
      grid_->auctioneer(mirror_transfers_ % grid_->host_count())
          .physical_host()
          .id();
  ++mirror_transfers_;
  (void)grid_->federation()->Transfer("user:" + identity, host_account,
                                      kMirrorAmount, grid_->now());
}

void GridScenarioBackend::ReplayBrokerToken(EpochTelemetry& out) {
  // Pay for a real job, submit it (legitimate), then re-present the SAME
  // token: the authorizer's double-spend registry must refuse the second
  // submission with kAlreadyClaimed.
  const Money amount = Money::Dollars(1.0);
  const Result<crypto::TransferToken> token =
      grid_->PayBroker("mallory", amount);
  if (!token.ok()) return;
  grid::JobDescription desc;
  desc.job_name = "replayed-" + std::to_string(submitted_);
  desc.executable = "/usr/bin/stress";
  desc.count = 1;
  desc.cpu_time_minutes = 1.0;
  desc.wall_time_minutes = 10.0;
  ++submitted_;
  const Result<std::uint64_t> first =
      grid_->broker().Submit(desc.ToXrsl(), *token);
  if (first.ok()) {
    ++out.hostile_arrivals;
    hostile_jobs_.insert(*first);
  }
  ++out.replay_attempts;
  const Result<std::uint64_t> second =
      grid_->broker().Submit(desc.ToXrsl(), *token);
  if (!second.ok()) ++out.replays_rejected;
}

void GridScenarioBackend::RunAdversaries(sim::SimTime now, Rng& rng,
                                         EpochTelemetry& out) {
  // Flood: real submissions through the broker under the hostile
  // identity; price priority and deadline expiry must contain them.
  for (const JobOrder& order :
       adversary_.FloodOrders(now, kStep, 1.0, rng))
    SubmitOrder(order, "mallory", out);

  // Snipe: short-deadline bids straight onto host auctioneers, re-placed
  // (fresh rate) every step — bid churn around the auction tick.
  for (const SnipeBid& bid :
       adversary_.SnipeBids(now, kStep, 1.0, rng)) {
    market::Auctioneer& auctioneer =
        grid_->auctioneer(static_cast<std::size_t>(bid.sniper) %
                          grid_->host_count());
    const std::string account = "snp-" + std::to_string(bid.sniper);
    if (opened_snipers_.insert(bid.sniper).second) {
      if (!auctioneer.OpenAccount(account).ok() ||
          !auctioneer.Fund(account, bid.fund).ok())
        continue;
    }
    if (auctioneer.SetBid(account, bid.rate, now + kStep).ok())
      ++out.snipe_bids;
  }

  // Replay: probe the federation's settlement registry with plausible
  // settlement ids, plus one real broker-token replay per step.
  const std::vector<ReplayProbe> probes = adversary_.ReplayIds(
      now, kStep, 1.0, grid_->bank_shard_count(),
      std::max<std::uint64_t>(1, mirror_transfers_), rng);
  for (const ReplayProbe& probe : probes) {
    ++out.replay_attempts;
    const Status s = grid_->federation()->ReplaySettlement(probe.settlement_id);
    // Refused either way (kAlreadyClaimed / kNotFound); an OK here is an
    // accepted double-spend and fails the replay-rejection SLO.
    if (!s.ok()) ++out.replays_rejected;
  }
  if (!probes.empty()) ReplayBrokerToken(out);
}

void GridScenarioBackend::RunEpoch(int epoch, EpochTelemetry& out) {
  out.epoch = epoch;
  out.start = grid_->now();
  const int steps = static_cast<int>(scenario_.epoch_duration / kStep);
  GM_ASSERT(steps > 0, "epoch shorter than one step");

  for (int s = 0; s < steps; ++s) {
    const sim::SimTime now = grid_->now();
    // One deterministic stream per (seed, step): the backend is
    // single-shard, so shard index 0.
    Rng rng(ShardStreamSeed(scenario_.seed, 0, round_));
    ++round_;

    const std::uint64_t n =
        traffic_.SampleArrivals(now, kStep, 1.0, rng);
    for (std::uint64_t i = 0; i < n; ++i) {
      const JobOrder order = traffic_.SampleOrder(rng);
      SubmitOrder(order, IdentityFor(order.user), out);
    }
    RunAdversaries(now, rng, out);

    grid_->RunFor(kStep);
    out.max_queue_depth =
        std::max(out.max_queue_depth, grid_->broker().QueueDepth());
  }
  out.end = grid_->now();

  // Honest-job accounting: completions this epoch and the worst
  // wait/deadline ratio (hostile jobs excluded — starving them is the
  // market working as intended).
  for (const grid::JobRecord* job : grid_->Jobs()) {
    if (hostile_jobs_.count(job->id) != 0) continue;
    const double span =
        static_cast<double>(job->deadline - job->submitted_at);
    if (job->state == grid::JobState::kFinished) {
      if (counted_completions_.insert(job->id).second) ++out.completions;
      if (span > 0) {
        const double waited =
            static_cast<double>(job->finished_at - job->submitted_at);
        out.worst_wait_ratio = std::max(out.worst_wait_ratio, waited / span);
      }
    } else if (!grid::IsTerminal(job->state) && span > 0) {
      const double waited = static_cast<double>(out.end - job->submitted_at);
      out.worst_wait_ratio = std::max(out.worst_wait_ratio, waited / span);
    }
  }

  // Wall-clock settlement latency (reported, optionally enforced).
  const auto metrics = grid_->CollectMetrics();
  if (metrics.ok())
    out.settle_p99_ns = metrics->HistogramOr("fed.settle_latency_ns").p99;

  // Conservation: a signed reconciler sweep at the epoch's quiescent
  // point, plus the central bank's own invariant.
  const auto report = grid_->Reconcile();
  if (report.ok()) {
    out.total_balance =
        report->total_balances + report->total_holds - report->in_flight;
    out.expected_total = report->total_minted;
    out.reconciler_clean =
        report->conserved &&
        grid_->reconciler()->VerifyReport(*report).ok() &&
        grid_->CheckInvariants().ok();
  }
}

std::string GridScenarioBackend::LedgerHash() {
  return grid_->federation()->LedgerHash() + ":" + grid_->bank().LedgerHash();
}

}  // namespace gm::scenario
