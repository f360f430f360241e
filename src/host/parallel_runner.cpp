#include "host/parallel_runner.hpp"

#include <utility>

#include "common/log.hpp"

namespace gm::host {
namespace {

/// Shard k's private stream: a pure function of (root seed, k), so the
/// stream is identical no matter which pool thread runs the shard.
Rng ShardRng(std::uint64_t seed, std::size_t index) {
  std::uint64_t state =
      seed + 0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(index + 1);
  (void)SplitMix64(state);
  (void)SplitMix64(state);
  return Rng(state);
}

std::string BidderName(const market::Auctioneer& auctioneer, int k) {
  return auctioneer.physical_host().id() + "~u" + std::to_string(k);
}

/// Funding -> host-account transfers each shard buffers per round.
constexpr int kTransfersPerShard = 4;

}  // namespace

ParallelRunner::ParallelRunner(sim::Kernel& kernel,
                               ParallelRunnerConfig config)
    : kernel_(kernel), config_(config) {
  GM_ASSERT(config_.interval > 0, "runner interval must be positive");
  if (!config_.serial)
    pool_ = std::make_unique<gm::ThreadPool>(config_.threads);
}

ParallelRunner::~ParallelRunner() { SetFederation(nullptr); }

void ParallelRunner::SetFederation(
    bank::federation::FederationRouter* federation) {
  if (federation_ != nullptr) federation_->DetachPool(pool_.get());
  federation_ = federation;
  if (federation_ != nullptr && pool_ != nullptr)
    federation_->AttachPool(pool_.get());
}

void ParallelRunner::AddShard(market::Auctioneer* auctioneer,
                              std::string funding_account,
                              std::string host_account) {
  GM_ASSERT(auctioneer != nullptr, "null auctioneer shard");
  Shard shard;
  shard.auctioneer = auctioneer;
  shard.funding_account = std::move(funding_account);
  shard.host_account = std::move(host_account);
  shard.rng = ShardRng(config_.seed, shards_.size());
  shards_.push_back(std::move(shard));
}

void ParallelRunner::PrepareShard(Shard& shard) {
  market::Auctioneer& auctioneer = *shard.auctioneer;
  for (int k = 0; k < config_.bidders_per_shard; ++k) {
    const std::string user = BidderName(auctioneer, k);
    const Status opened = auctioneer.OpenAccount(user);
    GM_ASSERT(opened.ok(), "parallel_runner: OpenAccount failed");
    const Status funded = auctioneer.Fund(user, Money::Dollars(1000.0));
    GM_ASSERT(funded.ok(), "parallel_runner: Fund failed");
  }
  shard.prepared = true;
}

// A shard's synthetic bidders are funded once (PrepareShard) and stay
// funded for the runner's lifetime: the auctions charge those stakes.
// gmlint: money-sink(bidder stakes live as long as the runner)
void ParallelRunner::RunShard(Shard& shard, sim::SimTime now) {
  market::Auctioneer& auctioneer = *shard.auctioneer;
  if (!shard.prepared) PrepareShard(shard);

  // Account churn: close the first bidder (reclaiming its escrowed
  // balance) and reopen it in the same round, so this tick sees a bid
  // removed and re-added between auctions. All shard-local state — the
  // cadence counter, the RNG, the auctioneer — so serial and pooled
  // runs churn identically.
  if (config_.churn_every > 0 && config_.bidders_per_shard > 0 &&
      shard.rounds_run % static_cast<std::uint64_t>(config_.churn_every) ==
          static_cast<std::uint64_t>(config_.churn_every) - 1) {
    const std::string user = BidderName(auctioneer, 0);
    const Result<Money> refund = auctioneer.CloseAccount(user);
    GM_ASSERT(refund.ok(), "parallel_runner: churn CloseAccount failed");
    const Status reopened = auctioneer.OpenAccount(user);
    GM_ASSERT(reopened.ok(), "parallel_runner: churn OpenAccount failed");
    // Re-seed the account with the reclaimed escrow (or fresh capital if
    // the auctions drained it) so it keeps participating.
    const Money stake =
        refund->is_positive() ? *refund : Money::Dollars(1000.0);
    const Status funded = auctioneer.Fund(user, stake);
    GM_ASSERT(funded.ok(), "parallel_runner: churn Fund failed");
  }
  ++shard.rounds_run;

  // Perturb the shard's standing bids from its private stream.
  for (int k = 0; k < config_.bidders_per_shard; ++k) {
    const Rate rate = Rate::MicrosPerSec(
        static_cast<Micros>(shard.rng.UniformInt(1, 200)));
    const Status bid = auctioneer.SetBid(BidderName(auctioneer, k), rate,
                                         now + 4 * config_.interval);
    GM_ASSERT(bid.ok(), "parallel_runner: SetBid failed");
  }

  auctioneer.Tick();

  // A lock-exercising read of the ledger in the parallel phase. The
  // result is discarded: under chaos a bank shard may be crashed, and
  // nothing branches on it. Transfers are buffered for the merge.
  (void)federation_->Balance(shard.funding_account);
  for (int t = 0; t < kTransfersPerShard; ++t) {
    PendingOp op;
    op.from = shard.funding_account;
    op.to = shard.host_account;
    op.amount = Money::FromMicros(
        static_cast<Micros>(shard.rng.UniformInt(1, 5000)));
    shard.fed_ops.push_back(std::move(op));
  }
}

void ParallelRunner::MergeFederationOps(sim::SimTime now,
                                        ParallelRunReport& report) {
  // Group buffered transfers by DEBTOR bank shard, preserving runner-
  // shard order inside each group. A settlement id is minted under the
  // debtor shard's lock at PrepareDebit, so fixing each debtor shard's
  // prepare order fixes every id; credits from different groups may
  // interleave on a creditor shard, but all shard state lives in sorted
  // maps and the LedgerHash is order-insensitive, so the merged ledger
  // is bit-identical to the serial one.
  const std::size_t bank_shards = federation_->num_shards();
  std::vector<std::vector<const PendingOp*>> groups(bank_shards);
  for (const Shard& shard : shards_) {
    for (const PendingOp& op : shard.fed_ops)
      groups[bank::federation::StripeFor(op.from, bank_shards)].push_back(
          &op);
  }
  // Per-group counters: written by at most one task each, summed after
  // the barrier.
  std::vector<std::uint64_t> applied(bank_shards, 0);
  std::vector<std::uint64_t> failed(bank_shards, 0);
  const auto apply_group = [this, &groups, &applied, &failed,
                            now](std::size_t g) {
    // One router batch per debtor group: the batch sub-groups by creditor
    // shard and runs each settlement phase under a single shard lock,
    // instead of four lock round-trips per transfer.
    std::vector<bank::federation::TransferRequest> requests;
    requests.reserve(groups[g].size());
    for (const PendingOp* op : groups[g])
      requests.push_back({op->from, op->to, op->amount});
    const std::vector<Status> statuses =
        federation_->TransferBatch(requests, now);
    for (const Status& status : statuses) {
      if (status.ok()) {
        ++applied[g];
      } else {
        ++failed[g];
      }
    }
  };
  gm::ParallelFor(pool_.get(), bank_shards, apply_group);
  for (std::size_t g = 0; g < bank_shards; ++g) {
    report.fed_ops_applied += applied[g];
    report.fed_ops_failed += failed[g];
  }
  for (Shard& shard : shards_) shard.fed_ops.clear();
}

Result<ParallelRunReport> ParallelRunner::Run(int rounds) {
  if (rounds < 0) return Status::InvalidArgument("rounds must be >= 0");
  if (shards_.empty())
    return Status::FailedPrecondition("parallel_runner: no shards added");
  if (federation_ == nullptr)
    return Status::FailedPrecondition("parallel_runner: no federation set");

  ParallelRunReport report;
  report.shards = shards_.size();

  for (int round = 0; round < rounds; ++round) {
    // Phase 1: only the main thread advances simulated time; workers
    // treat the clock as frozen for the whole parallel phase.
    kernel_.RunUntil(kernel_.now() + config_.interval);
    const sim::SimTime now = kernel_.now();

    // Phase 2: every shard ticks, on the pool or inline in shard order.
    gm::ParallelFor(pool_.get(), shards_.size(),
                    [this, now](std::size_t i) { RunShard(shards_[i], now); });
    report.ticks += shards_.size();

    // Phase 3: apply the buffered transfers — the merge is what makes
    // the parallel ledger bit-identical to the serial one.
    MergeFederationOps(now, report);
    ++report.rounds;
  }
  return report;
}

}  // namespace gm::host
