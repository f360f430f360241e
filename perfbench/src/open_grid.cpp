// open-grid: a full-fidelity open loop through GridMarket::SubmitJob.
//
// Arrivals follow a sim-time schedule fixed by the seed and the variant
// (diurnal Poisson compressed to one cycle per iteration, a 10x flash
// crowd, Pareto job sizes) on a 16-host grid with a 4-shard bank
// federation. Snipers,
// flooders and token/settlement replayers run beside the honest users,
// and a quarter of the users price their job (HostPriceStats +
// BudgetForDeadline) before submitting. Each epoch ends with a signed
// reconciliation. In-program telemetry is off, except in the traced run,
// which reads its registry counters through CollectMetrics.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <set>

#include "bank/federation/router.hpp"
#include "core/grid_market.hpp"
#include "grid_calls.hpp"
#include "predict/normal_model.hpp"
#include "scenario/adversary.hpp"
#include "scenario/engine.hpp"
#include "scenario/traffic.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace gm;

constexpr int kHosts = 16;
constexpr int kBankShards = 4;
constexpr std::uint64_t kIdentities = 16;
constexpr int kEpochs = 3;
// About 330 submits each, so p99 over the variants has ten beyond.
constexpr int kVariants = 4;
constexpr sim::SimDuration kEpoch = sim::kMinute;
constexpr sim::SimDuration kStep = 10 * sim::kSecond;
const Money kMirrorAmount = Money::FromMicros(50'000);

scenario::TrafficConfig Traffic() {
  scenario::TrafficConfig config;
  config.users = 100'000;
  config.base_arrivals_per_sec = 0.75;
  config.diurnal_amplitude = 0.4;
  config.diurnal_period = kEpochs * kEpoch;  // one "day" per iteration
  config.flash_start = 90 * sim::kSecond;
  config.flash_duration = 20 * sim::kSecond;
  config.flash_multiplier = 10.0;
  return config;
}

scenario::AdversaryConfig Adversaries() {
  scenario::AdversaryConfig config;
  config.snipers = 64;
  config.snipe_rate_per_sec = 1.0;
  config.flood_rate_per_sec = 0.5;
  config.replay_rate_per_sec = 0.2;
  return config;
}

class OpenGrid : public Workload {
 public:
  explicit OpenGrid(const Options& options)
      : seed_(options.seed), traffic_(Traffic()), adversary_(Adversaries()) {}

  int variants() const override { return kVariants; }

  void Iteration(int variant, Tracer& tracer, RunStats& stats) override {
    GridMarket::Config config;
    config.hosts = kHosts;
    config.cpus_per_host = 2;
    // Room for every live job's VM: the open loop keeps a few hundred
    // jobs running, so each host's auction carries tens of bidders.
    config.max_vms_per_host = 128;
    config.bank_shards = kBankShards;
    // The seed drives the traffic and adversary streams; the key material
    // stays at the paper's seed so set-up cost does not depend on it.
    config.seed = kPaperSeed;
    config.telemetry.enabled = tracer.enabled();
    std::unique_ptr<GridMarket> owned;
    {
      Span span(tracer, "core.construct");
      owned = std::make_unique<GridMarket>(config);
    }
    grid_ = owned.get();
    for (std::uint64_t i = 0; i <= kIdentities; ++i) {
      Span span(tracer, "core.register");
      const std::string name =
          i < kIdentities ? "u" + std::to_string(i) : "mallory";
      if (!stats.tally.Record(
              grid_->RegisterUser(name, Money::Dollars(50'000)).ok()))
        span.Fail();
    }
    opened_snipers_.clear();
    mirror_transfers_ = 0;
    submitted_ = 0;

    stats.BeginTimed();
    std::uint64_t round = 0;
    for (int epoch = 0; epoch < kEpochs; ++epoch) {
      for (sim::SimDuration t = 0; t < kEpoch; t += kStep) {
        Rng rng(scenario::ShardStreamSeed(seed_, variant, round++));
        Step(rng, tracer, stats);
      }
      Reconcile(epoch, tracer, stats);
    }
    stats.EndTimed();

    Digest(variant, stats);
    if (tracer.enabled()) {
      const auto metrics = grid_->CollectMetrics();
      if (metrics.ok()) AddRegistryCounters(metrics->counters, stats);
    }
    grid_ = nullptr;
  }

  void Finish(RunStats& stats) override {
    std::uint64_t digest = Fnv1a(std::to_string(seed_));
    for (const std::uint64_t d : digests_)
      digest = Fnv1a(std::to_string(d), digest);
    std::printf("open-grid ledger digest (seed %llu): %016llx\n",
                static_cast<unsigned long long>(seed_),
                static_cast<unsigned long long>(digest));
    std::printf("open-grid jobs per iteration by final state:");
    for (const auto& [state, count] : job_states_)
      std::printf(" %s %d", state.c_str(), count);
    std::printf("\n");
    const double jobs = std::max(1.0, jobs_seen_);
    stats.layer["grid.hosts_per_job_mean"] = hosts_used_ / jobs;
    stats.layer["bank.transfer.cross_shard_share"] =
        settles_ == 0 ? 0.0
                      : static_cast<double>(cross_shard_) /
                            static_cast<double>(settles_);
  }

 private:
  void Step(Rng& rng, Tracer& tracer, RunStats& stats) {
    const sim::SimTime now = grid_->now();
    const std::uint64_t arrivals =
        traffic_.SampleArrivals(now, kStep, 1.0, rng);
    for (std::uint64_t i = 0; i < arrivals; ++i) {
      const scenario::JobOrder order = traffic_.SampleOrder(rng);
      const std::string identity = "u" + std::to_string(order.user % kIdentities);
      Money budget = order.budget;
      if (order.user % 4 == 0) budget = Quote(order, budget, tracer, stats);
      Submit(order, identity, budget, Expect::kSuccess, tracer, stats);
      Settle(identity, tracer, stats);
    }

    for (const scenario::JobOrder& order :
         adversary_.FloodOrders(now, kStep, 1.0, rng))
      Submit(order, "mallory", order.budget, Expect::kEither, tracer, stats);

    for (const scenario::SnipeBid& bid :
         adversary_.SnipeBids(now, kStep, 1.0, rng)) {
      market::Auctioneer& auctioneer = grid_->auctioneer(
          static_cast<std::size_t>(bid.sniper) % grid_->host_count());
      const std::string account = "snp-" + std::to_string(bid.sniper);
      if (opened_snipers_.insert(bid.sniper).second) {
        stats.tally.Record(auctioneer.OpenAccount(account).ok() &&
                           auctioneer.Fund(account, bid.fund).ok());
      }
      Span span(tracer, "market.snipe");
      if (!stats.tally.Record(
              auctioneer.SetBid(account, bid.rate, now + kStep).ok()))
        span.Fail();
    }

    const std::vector<scenario::ReplayProbe> probes = adversary_.ReplayIds(
        now, kStep, 1.0, kBankShards,
        std::max<std::uint64_t>(1, mirror_transfers_), rng);
    for (const scenario::ReplayProbe& probe : probes) {
      stats.tally.Record(
          grid_->federation()->ReplaySettlement(probe.settlement_id).ok(),
          Expect::kRefusal);
    }
    if (!probes.empty()) ReplayToken(tracer, stats);

    TimedRunFor(*grid_, kStep, tracer, stats);
  }

  // A pricing user: locate hosts, read their hour-window price moments,
  // and budget for the deadline at a 90 % guarantee.
  Money Quote(const scenario::JobOrder& order, Money budget, Tracer& tracer,
              RunStats& stats) {
    {
      Span span(tracer, "market.sls_query");
      stats.tally.Record(!grid_->sls().Query({}).empty());
    }
    Result<std::vector<predict::HostPriceStats>> host_stats =
        Status::Internal("unset");
    {
      Span span(tracer, "market.price_stats");
      host_stats = grid_->HostPriceStats("hour");
      if (!stats.tally.Record(host_stats.ok())) span.Fail();
    }
    if (!host_stats.ok()) return budget;
    Span span(tracer, "predict.deadline_budget");
    const double deadline_s = sim::ToSeconds(order.deadline);
    const auto rate =
        predict::BudgetForDeadline(*host_stats, order.size, deadline_s, 0.9);
    // An unreachable deadline is an answer, not an error: keep the
    // user's own budget.
    stats.tally.Record(rate.ok(), Expect::kEither);
    if (!rate.ok() || !std::isfinite(*rate)) return budget;
    const Money quoted = Money::Dollars(*rate * deadline_s);
    return std::clamp(quoted, budget, traffic_.config().budget_cap);
  }

  void Submit(const scenario::JobOrder& order, const std::string& identity,
              Money budget, Expect expect, Tracer& tracer, RunStats& stats) {
    grid::JobDescription desc;
    desc.job_name = (order.hostile ? "flood-" : "job-") +
                    std::to_string(submitted_++);
    desc.executable = "/usr/bin/stress";
    desc.count = 1;
    desc.cpu_time_minutes =
        order.size / traffic_.config().reference_capacity / 60.0;
    desc.wall_time_minutes = std::max(1.0, sim::ToMinutes(order.deadline));
    (void)TimedSubmit(*grid_, identity, desc, budget, expect, tracer, stats);
  }

  // The job's payment mirrored as a user -> host settlement through the
  // federation, round-robin over hosts.
  void Settle(const std::string& identity, Tracer& tracer, RunStats& stats) {
    const std::string from = "user:" + identity;
    const std::string to =
        "host:" + grid_->auctioneer(mirror_transfers_++ % grid_->host_count())
                      .physical_host()
                      .id();
    ++settles_;
    if (bank::federation::StripeFor(from, kBankShards) !=
        bank::federation::StripeFor(to, kBankShards))
      ++cross_shard_;
    Span span(tracer, "bank.transfer");
    if (!stats.tally.Record(grid_->federation()
                                ->Transfer(from, to, kMirrorAmount,
                                           grid_->now())
                                .ok()))
      span.Fail();
  }

  // Pay for a real job, submit it, then present the spent token again:
  // the broker must refuse the second submission.
  void ReplayToken(Tracer& tracer, RunStats& stats) {
    grid::JobDescription desc;
    desc.job_name = "replayed-" + std::to_string(submitted_++);
    desc.executable = "/usr/bin/stress";
    desc.count = 1;
    desc.cpu_time_minutes = 1.0;
    desc.wall_time_minutes = 10.0;
    const std::string xrsl = desc.ToXrsl();
    Result<crypto::TransferToken> token = Status::Internal("unset");
    {
      Span span(tracer, "grid.pay");
      token = grid_->PayBroker("mallory", Money::Dollars(1.0));
      if (!stats.tally.Record(token.ok())) span.Fail();
    }
    if (!token.ok()) return;
    {
      Span span(tracer, "grid.broker_submit");
      if (!stats.tally.Record(grid_->broker().Submit(xrsl, *token).ok()))
        span.Fail();
    }
    Span span(tracer, "grid.replay");
    const bool accepted = grid_->broker().Submit(xrsl, *token).ok();
    stats.tally.Record(accepted, Expect::kRefusal);
    if (accepted) span.Fail();
  }

  void Reconcile(int epoch, Tracer& tracer, RunStats& stats) {
    Result<bank::federation::ReconciliationReport> report =
        Status::Internal("unset");
    {
      Span span(tracer, "bank.reconcile");
      report = grid_->Reconcile();
      if (!stats.tally.Record(report.ok())) span.Fail();
    }
    const std::string where = "epoch " + std::to_string(epoch) + ": ";
    if (!report.ok()) {
      stats.Check(false, where + "Reconcile failed");
      return;
    }
    stats.Check(grid_->reconciler()->VerifyReport(*report).ok(),
                where + "reconciler report does not verify");
    stats.Check(report->conserved, where + "not conserved: " + report->detail);
    stats.Check(report->total_balances + report->total_holds -
                        report->in_flight ==
                    report->total_minted,
                where + "federation money differs from minted");
    stats.Check(grid_->CheckInvariants().ok(),
                where + "bank CheckInvariants failed");
  }

  // Same inputs, same ledgers: every repeat of a variant must end in the
  // same state.
  void Digest(int variant, RunStats& stats) {
    const std::uint64_t digest =
        Fnv1a(grid_->federation()->LedgerHash() + ":" +
              grid_->bank().LedgerHash());
    std::uint64_t& first = digests_[variant];
    if (first == 0) first = digest;
    stats.Check(digest == first, "ledger digest changed between repeats");
    job_states_.clear();
    for (const grid::JobRecord* job : grid_->Jobs()) {
      hosts_used_ += static_cast<double>(job->hosts_used.size());
      jobs_seen_ += 1.0;
      ++job_states_[grid::JobStateName(job->state)];
    }
  }

  std::uint64_t seed_;
  scenario::TrafficModel traffic_;
  scenario::AdversaryModel adversary_;
  GridMarket* grid_ = nullptr;  // the current iteration's grid
  std::set<std::uint64_t> opened_snipers_;
  std::uint64_t mirror_transfers_ = 0;
  std::uint64_t submitted_ = 0;
  std::uint64_t digests_[kVariants] = {};  // first repeat's, per variant
  std::uint64_t settles_ = 0;
  std::uint64_t cross_shard_ = 0;
  double hosts_used_ = 0.0;
  double jobs_seen_ = 0.0;
  std::map<std::string, int> job_states_;  // at the end of an iteration
};

}  // namespace

std::unique_ptr<Workload> MakeOpenGrid(const Options& options) {
  return std::make_unique<OpenGrid>(options);
}

}  // namespace perfbench
