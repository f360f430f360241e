#include "scenario/parallel_backend.hpp"

#include <algorithm>
#include <utility>

namespace gm::scenario {

ParallelScenarioBackend::ParallelScenarioBackend(GridMarket& grid,
                                                 ScenarioConfig scenario)
    : ParallelScenarioBackend(grid, std::move(scenario), Options()) {}

ParallelScenarioBackend::ParallelScenarioBackend(GridMarket& grid,
                                                 ScenarioConfig scenario,
                                                 Options options)
    : grid_(grid),
      scenario_(std::move(scenario)),
      options_(std::move(options)),
      traffic_(scenario_.traffic),
      adversary_(scenario_.adversary) {
  GM_ASSERT(grid_.federation() != nullptr,
            "scale backend needs a bank federation (Config.bank_shards > 0)");
  GM_ASSERT(grid_.host_count() > 0, "scale backend needs hosts");

  // The runner drives the auctions; the grid's own periodic ticks must
  // not fire concurrently.
  grid_.DetachAuctionTicks();

  // Register the population. No keys, no certificates — a federation
  // account per simulated user is what conservation needs, and creating
  // a million of them is just a million striped map inserts.
  bank::federation::FederationRouter& fed = *grid_.federation();
  for (std::uint64_t i = 0; i < scenario_.traffic.users; ++i) {
    const Status s =
        fed.CreateAccount("scen:u" + std::to_string(i), options_.user_stake);
    GM_ASSERT(s.ok(), "population account creation failed");
  }
  const Status s =
      fed.CreateAccount("scen:adversary", options_.adversary_stake);
  GM_ASSERT(s.ok(), "adversary account creation failed");

  host::ParallelRunnerConfig cfg;
  cfg.threads = options_.threads;
  cfg.serial = options_.serial;
  cfg.seed = scenario_.seed;
  cfg.interval = options_.interval;
  // The load source fully controls the auctions: no synthetic bidders
  // and no synthetic transfers from the runner.
  cfg.bidders_per_shard = 0;
  cfg.transfers_per_shard = 0;
  runner_ = std::make_unique<host::ParallelRunner>(grid_.kernel(), cfg);
  for (std::size_t i = 0; i < grid_.host_count(); ++i) {
    runner_->AddShard(&grid_.auctioneer(i), "scen:adversary",
                      "host:" + grid_.auctioneer(i).physical_host().id());
    shards_.push_back(std::make_unique<ShardState>());
  }
  runner_->SetFederation(grid_.federation());
  runner_->SetLoadSource(this);
}

std::string ParallelScenarioBackend::UserAccount(const Job& job) const {
  if (job.hostile) return "scen:adversary";
  return "scen:u" + std::to_string(job.user % scenario_.traffic.users);
}

std::string ParallelScenarioBackend::JobAccount(std::size_t shard,
                                                std::uint64_t seq) const {
  return "j" + std::to_string(shard) + "-" + std::to_string(seq);
}

void ParallelScenarioBackend::EnqueueOrder(ShardState& st,
                                           const JobOrder& order,
                                           sim::SimTime now) {
  if (st.pending.size() >= options_.max_backlog_per_shard) {
    ++st.rejected;
    return;
  }
  Job job;
  job.seq = st.next_seq++;
  job.user = order.user;
  job.budget = order.budget;
  job.size = order.size;
  // The job's standing bid spreads its whole budget over its deadline:
  // bigger budgets and tighter deadlines bid higher, which is exactly
  // the priority the admission sort then serves.
  job.rate = Spread(order.budget, sim::ToSeconds(order.deadline));
  job.arrival = now;
  job.deadline = now + order.deadline;
  job.hostile = order.hostile;
  st.pending.push_back(job);
  if (order.hostile) {
    ++st.hostile_arrivals;
  } else {
    ++st.arrivals;
  }
}

void ParallelScenarioBackend::RecordWaitRatio(ShardState& st, const Job& job,
                                              sim::SimTime now) {
  if (job.hostile) return;  // starving hostile jobs is the defense working
  const double span = static_cast<double>(job.deadline - job.arrival);
  if (span <= 0) return;
  const double waited = static_cast<double>(now - job.arrival);
  st.worst_wait_ratio = std::max(st.worst_wait_ratio, waited / span);
}

void ParallelScenarioBackend::Admit(std::size_t shard_index, ShardState& st,
                                    market::Auctioneer& auctioneer,
                                    sim::SimTime now,
                                    std::vector<host::ShardOp>& ops) {
  host::PhysicalHost& host = auctioneer.physical_host();
  const std::size_t max_vms = static_cast<std::size_t>(host.spec().max_vms);
  if (host.vm_count() >= max_vms || st.pending.empty()) return;

  // Price priority: serve the backlog best bid-rate first (seq ascending
  // on ties for determinism). A flooder's near-zero rate sinks to the
  // back and starves — by market design, not by special-casing.
  std::sort(st.pending.begin(), st.pending.end(),
            [](const Job& a, const Job& b) {
              if (a.rate.micros_per_sec() != b.rate.micros_per_sec())
                return a.rate.micros_per_sec() > b.rate.micros_per_sec();
              return a.seq < b.seq;
            });

  std::size_t admitted = 0;
  while (host.vm_count() < max_vms && admitted < st.pending.size()) {
    const Job job = st.pending[admitted];
    ++admitted;
    if (job.deadline <= now) {  // expired while queued
      RecordWaitRatio(st, job, now);
      continue;
    }
    const std::string account = JobAccount(shard_index, job.seq);
    if (!auctioneer.OpenAccount(account).ok() ||
        !auctioneer.Fund(account, job.budget).ok() ||
        !auctioneer.SetBid(account, job.rate, job.deadline).ok()) {
      ++st.rejected;
      // Best-effort cleanup of a half-opened account; a close failure
      // means nothing was funded.
      (void)auctioneer.CloseAccount(account);
      continue;
    }
    const Result<host::VirtualMachine*> vm = auctioneer.AcquireVm(account);
    if (!vm.ok()) {
      ++st.rejected;
      // Best-effort refund of the rejected job's budget; the account is
      // fully torn down either way.
      (void)auctioneer.CloseAccount(account);
      continue;
    }
    // The completion callback fires inside a later Tick, on whichever
    // thread owns this shard that round; it captures the stable
    // ShardState pointer and only appends — harvested in AfterTick.
    ShardState* state = &st;
    const std::uint64_t seq = job.seq;
    (*vm)->Enqueue({seq, job.size, [state, seq](sim::SimTime) {
                      state->completed.push_back(seq);
                    }});
    // Escrow the budget in the federation: user -> host, refunded (net
    // of market charges) when the job closes. Buffered — applied at the
    // merge barrier in deterministic order.
    host::ShardOp escrow;
    escrow.kind = host::ShardOp::Kind::kTransfer;
    escrow.from = UserAccount(job);
    escrow.to = "host:" + host.id();
    escrow.amount = job.budget;
    ops.push_back(std::move(escrow));
    ++st.escrows;
    st.running.push_back(job);
  }
  st.pending.erase(st.pending.begin(),
                   st.pending.begin() + static_cast<std::ptrdiff_t>(admitted));
}

void ParallelScenarioBackend::Close(std::size_t shard_index, const Job& job,
                                    market::Auctioneer& auctioneer,
                                    std::vector<host::ShardOp>& ops) {
  const Result<Money> refund =
      auctioneer.CloseAccount(JobAccount(shard_index, job.seq));
  if (!refund.ok() || !refund->is_positive()) return;
  // Return the unspent escrow host -> user; what the auctions charged
  // stays with the host. Both legs zero-sum: conservation is exact.
  host::ShardOp op;
  op.kind = host::ShardOp::Kind::kTransfer;
  op.from = "host:" + auctioneer.physical_host().id();
  op.to = UserAccount(job);
  op.amount = *refund;
  ops.push_back(std::move(op));
}

void ParallelScenarioBackend::BeforeTick(std::size_t shard_index,
                                         std::uint64_t round, sim::SimTime now,
                                         market::Auctioneer& auctioneer,
                                         std::vector<host::ShardOp>& ops) {
  ShardState& st = *shards_[shard_index];
  // All randomness from (seed, shard, round): identical no matter which
  // pool thread runs the shard, or whether there is a pool at all.
  Rng rng(ShardStreamSeed(scenario_.seed, shard_index, round));
  const double share = 1.0 / static_cast<double>(shards_.size());
  const sim::SimDuration dt = options_.interval;

  const std::uint64_t n = traffic_.SampleArrivals(now, dt, share, rng);
  for (std::uint64_t i = 0; i < n; ++i)
    EnqueueOrder(st, traffic_.SampleOrder(rng), now);

  for (const JobOrder& order : adversary_.FloodOrders(now, dt, share, rng))
    EnqueueOrder(st, order, now);

  for (const SnipeBid& bid : adversary_.SnipeBids(now, dt, share, rng)) {
    const std::string account =
        "snp" + std::to_string(shard_index) + "-" + std::to_string(bid.sniper);
    if (st.snipers_open.insert(bid.sniper).second) {
      if (!auctioneer.OpenAccount(account).ok() ||
          !auctioneer.Fund(account, bid.fund).ok())
        continue;
    }
    // Deadline one interval out, re-placed at a fresh rate every burst:
    // the bid appears and vanishes between auctions — churn at the tick.
    if (auctioneer.SetBid(account, bid.rate, now + dt).ok())
      ++st.snipe_bids;
  }

  // Settlement-id replays: guess within the range the two-phase protocol
  // has plausibly minted (shard-local escrow count scaled to the
  // federation — deterministic, no cross-shard reads).
  const std::uint64_t seq_hint =
      std::max<std::uint64_t>(1, st.escrows * shards_.size());
  for (const ReplayProbe& probe :
       adversary_.ReplayIds(now, dt, share, grid_.bank_shard_count(),
                            seq_hint, rng)) {
    host::ShardOp op;
    op.kind = host::ShardOp::Kind::kReplay;
    op.settlement_id = probe.settlement_id;
    ops.push_back(std::move(op));
  }

  Admit(shard_index, st, auctioneer, now, ops);
}

void ParallelScenarioBackend::AfterTick(std::size_t shard_index,
                                        std::uint64_t round, sim::SimTime now,
                                        market::Auctioneer& auctioneer,
                                        std::vector<host::ShardOp>& ops) {
  (void)round;
  ShardState& st = *shards_[shard_index];

  // Harvest completions the Tick's VM callbacks appended.
  for (const std::uint64_t seq : st.completed) {
    const auto it =
        std::find_if(st.running.begin(), st.running.end(),
                     [seq](const Job& j) { return j.seq == seq; });
    if (it == st.running.end()) continue;
    if (!it->hostile) ++st.completions;
    RecordWaitRatio(st, *it, now);
    Close(shard_index, *it, auctioneer, ops);
    st.running.erase(it);
  }
  st.completed.clear();

  // Deadline eviction: a job past its deadline loses its slot, hostile
  // or honest. This is the no-starvation mechanism — a stalled job can
  // never pin a VM forever.
  for (std::size_t i = 0; i < st.running.size();) {
    if (st.running[i].deadline <= now) {
      RecordWaitRatio(st, st.running[i], now);
      Close(shard_index, st.running[i], auctioneer, ops);
      st.running[i] = st.running.back();
      st.running.pop_back();
    } else {
      ++i;
    }
  }

  // Sweep expired queued jobs so the backlog only holds viable work.
  std::size_t kept = 0;
  for (Job& job : st.pending) {
    if (job.deadline <= now) {
      RecordWaitRatio(st, job, now);
    } else {
      st.pending[kept++] = std::move(job);
    }
  }
  st.pending.resize(kept);

  st.peak_backlog =
      std::max(st.peak_backlog, st.pending.size() + st.running.size());
}

void ParallelScenarioBackend::RunEpoch(int epoch, EpochTelemetry& out) {
  out.epoch = epoch;
  out.start = grid_.now();
  const int rounds =
      static_cast<int>(scenario_.epoch_duration / options_.interval);
  GM_ASSERT(rounds > 0, "epoch shorter than one allocation interval");

  const Result<host::ParallelRunReport> report = runner_->Run(rounds);
  GM_ASSERT(report.ok(), "scenario runner round failed");
  out.end = grid_.now();
  out.replay_attempts = report->replay_attempts;
  out.replays_rejected = report->replays_rejected;

  for (const std::unique_ptr<ShardState>& shard : shards_) {
    ShardState& st = *shard;
    out.arrivals += st.arrivals;
    out.hostile_arrivals += st.hostile_arrivals;
    out.completions += st.completions;
    out.rejected += st.rejected;
    out.snipe_bids += st.snipe_bids;
    out.max_queue_depth += st.peak_backlog;
    out.worst_wait_ratio = std::max(out.worst_wait_ratio, st.worst_wait_ratio);
    st.arrivals = st.hostile_arrivals = st.completions = st.rejected =
        st.snipe_bids = 0;
    st.peak_backlog = 0;
    st.worst_wait_ratio = 0.0;
  }

  // Wall-clock settlement latency, when the grid has telemetry.
  const auto metrics = grid_.CollectMetrics();
  if (metrics.ok())
    out.settle_p99_ns = metrics->HistogramOr("fed.settle_latency_ns").p99;

  // Conservation at the quiescent point after the merge barrier: a
  // signed reconciler sweep over every shard of the federation.
  const auto recon = grid_.Reconcile();
  if (recon.ok()) {
    out.total_balance =
        recon->total_balances + recon->total_holds - recon->in_flight;
    out.expected_total = recon->total_minted;
    out.reconciler_clean =
        recon->conserved && grid_.reconciler()->VerifyReport(*recon).ok();
  }
}

std::string ParallelScenarioBackend::LedgerHash() {
  return grid_.federation()->LedgerHash();
}

}  // namespace gm::scenario
