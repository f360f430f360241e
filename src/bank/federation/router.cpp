#include "bank/federation/router.hpp"

#include <chrono>
#include <map>
#include <utility>

#include "common/strings.hpp"
#include "crypto/sha256.hpp"

namespace gm::bank::federation {

std::size_t StripeFor(const std::string& account_id, std::size_t num_shards) {
  // FNV-1a 64-bit: stable across platforms and runs, cheap, and well
  // mixed for short keys like "user:alice" / "host:h17".
  std::uint64_t hash = 14695981039346656037ull;
  for (const char c : account_id) {
    hash ^= static_cast<std::uint8_t>(c);
    hash *= 1099511628211ull;
  }
  return static_cast<std::size_t>(hash % num_shards);
}

FederationRouter::FederationRouter(std::vector<BankShard*> shards,
                                   crypto::TokenRegistry* registry)
    : shards_(std::move(shards)), registry_(registry) {}

void FederationRouter::AttachTelemetry(telemetry::Telemetry* telemetry) {
  if (telemetry == nullptr) {
    settlements_ctr_.store(nullptr, std::memory_order_relaxed);
    aborts_ctr_.store(nullptr, std::memory_order_relaxed);
    settle_latency_.store(nullptr, std::memory_order_relaxed);
    return;
  }
  settlements_ctr_.store(
      telemetry->metrics().GetCounter("fed.router.settlements"),
      std::memory_order_relaxed);
  aborts_ctr_.store(telemetry->metrics().GetCounter("fed.router.aborts"),
                    std::memory_order_relaxed);
  settle_latency_.store(
      telemetry->metrics().GetHistogram("fed.settle_latency_ns"),
      std::memory_order_relaxed);
}

Status FederationRouter::CreateAccount(const std::string& id,
                                       Money initial_balance) {
  return ShardFor(id)->CreateAccount(id, initial_balance);
}

Status FederationRouter::Mint(const std::string& id, Money amount,
                              std::int64_t now_us) {
  return ShardFor(id)->Mint(id, amount, now_us);
}

Result<Money> FederationRouter::Balance(const std::string& id) const {
  return ShardFor(id)->Balance(id);
}

bool FederationRouter::HasAccount(const std::string& id) const {
  return ShardFor(id)->HasAccount(id);
}

Status FederationRouter::Transfer(const std::string& from,
                                  const std::string& to, Money amount,
                                  std::int64_t now_us) {
  BankShard* debtor = ShardFor(from);
  BankShard* creditor = ShardFor(to);
  if (debtor == creditor) {
    const Status status = debtor->Transfer(from, to, amount, now_us);
    if (status.ok()) {
      gm::MutexLock lock(&mu_);
      ++stats_.intra_transfers;
    }
    return status;
  }
  SettlementLeg leg;
  leg.from = &from;
  leg.to = &to;
  leg.amount = amount;
  Settle(debtor, creditor, std::span(&leg, 1), now_us, /*resumed=*/false);
  return leg.status;
}

std::vector<Status> FederationRouter::TransferBatch(
    const std::vector<TransferRequest>& requests, std::int64_t now_us) {
  std::vector<Status> statuses(requests.size(), Status::Ok());
  // Canonical grouping: ascending (debtor shard, creditor shard) pairs,
  // input order preserved within each group (std::map iteration is the
  // ascending order; push_back preserves input order).
  std::map<std::pair<std::size_t, std::size_t>, std::vector<std::size_t>>
      groups;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    groups[{StripeFor(requests[i].from, shards_.size()),
            StripeFor(requests[i].to, shards_.size())}]
        .push_back(i);
  }
  std::vector<SettlementLeg> legs;
  for (const auto& [key, indices] : groups) {
    if (key.first == key.second) {
      // Same-shard transfers are already single atomic transactions;
      // nothing to batch.
      for (const std::size_t i : indices)
        statuses[i] = Transfer(requests[i].from, requests[i].to,
                               requests[i].amount, now_us);
      continue;
    }
    legs.assign(indices.size(), SettlementLeg{});
    for (std::size_t j = 0; j < indices.size(); ++j) {
      const TransferRequest& request = requests[indices[j]];
      legs[j].from = &request.from;
      legs[j].to = &request.to;
      legs[j].amount = request.amount;
    }
    Settle(shards_[key.first], shards_[key.second], legs, now_us,
           /*resumed=*/false);
    for (std::size_t j = 0; j < indices.size(); ++j)
      statuses[indices[j]] = std::move(legs[j].status);
  }
  return statuses;
}

void FederationRouter::Settle(BankShard* debtor, BankShard* creditor,
                              std::span<SettlementLeg> legs,
                              std::int64_t now_us, bool resumed) {
  auto* latency =
      resumed ? nullptr : settle_latency_.load(std::memory_order_relaxed);
  const auto wall_start = latency != nullptr
                              ? std::chrono::steady_clock::now()
                              : std::chrono::steady_clock::time_point{};
  std::uint64_t started = 0;
  if (!resumed) {
    // Fail fast before journaling a hold when the outcome is already
    // known: destination missing on a live creditor. (A creditor that is
    // down between this check and the credit parks the hold instead.)
    for (SettlementLeg& leg : legs) {
      if (!creditor->crashed() && !creditor->HasAccount(*leg.to))
        leg.status = Status::NotFound("account: " + *leg.to);
    }
    // Phase 1, one debtor lock: holds journal in leg order.
    debtor->PrepareDebits(legs, now_us);
    for (const SettlementLeg& leg : legs) {
      if (leg.status.ok()) ++started;
    }
  }

  // Phase 2, one creditor lock. A leg that fails stays out of the later
  // phases: Unavailable parks its hold on the debtor, NotFound (no such
  // destination account) aborts it and refunds the source.
  creditor->ApplyCredits(legs, now_us);
  std::uint64_t aborted = 0;
  for (SettlementLeg& leg : legs) {
    if (leg.status.code() != StatusCode::kNotFound ||
        leg.settlement_id.empty())
      continue;
    const Status abort = debtor->AbortHold(leg.settlement_id, now_us);
    if (abort.ok()) {
      ++aborted;
    } else {
      leg.status = abort;
    }
  }

  // Phase 3: claim each credited id in the double-spend registry, then
  // release the holds under one debtor lock. If the debtor dies between
  // the two, the hold replays on restart and ResumeSettlements finds the
  // credit already applied: release only.
  {
    gm::MutexLock lock(&mu_);
    stats_.settlements_started += started;
    stats_.settlements_aborted += aborted;
    for (SettlementLeg& leg : legs) {
      if (leg.status.ok() && registry_ != nullptr) {
        const Status claim = registry_->Claim(leg.settlement_id);
        // AlreadyClaimed is the idempotent-resume case: the credit was
        // applied and claimed before a crash parked the release. Anything
        // else would be a genuine double spend and there is no such path.
        if (!claim.ok() && claim.code() != StatusCode::kAlreadyClaimed)
          leg.status = claim;
      }
    }
  }
  if (aborted > 0) {
    if (auto* ctr = aborts_ctr_.load(std::memory_order_relaxed))
      ctr->Inc(aborted);
  }
  debtor->ReleaseHolds(legs, now_us);

  std::uint64_t completed = 0;
  for (const SettlementLeg& leg : legs) {
    if (leg.status.ok()) ++completed;
  }
  if (completed == 0) return;
  {
    gm::MutexLock lock(&mu_);
    if (resumed) {
      stats_.settlements_resumed += completed;
    } else {
      stats_.settlements_completed += completed;
    }
  }
  if (auto* ctr = settlements_ctr_.load(std::memory_order_relaxed))
    ctr->Inc(completed);
  if (latency != nullptr) {
    // One wall-clock sample per settled transfer; a group shares the
    // time since its phases began.
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now() - wall_start)
                        .count();
    for (std::uint64_t n = 0; n < completed; ++n)
      latency->Record(static_cast<std::uint64_t>(ns));
  }
}

Status FederationRouter::ReplaySettlement(const std::string& settlement_id) {
  gm::MutexLock lock(&mu_);
  if (registry_ == nullptr)
    return Status::FailedPrecondition("no double-spend registry attached");
  if (registry_->IsSpent(settlement_id)) {
    ++stats_.replays_rejected;
    return Status::AlreadyClaimed("settlement already claimed: " +
                                  settlement_id);
  }
  // Never claimed: there is nothing to replay. The id is deliberately
  // NOT claimed here — probing must not poison future settlements.
  return Status::NotFound("settlement never claimed: " + settlement_id);
}

Status FederationRouter::ResumeSettlements(std::int64_t now_us) {
  for (BankShard* debtor : shards_) {
    if (debtor->crashed()) continue;
    // OpenHolds copies out of a sorted map, so the resume order is
    // deterministic for a given shard state. One group per creditor
    // shard, in shard order; holds whose creditor is down stay parked.
    const std::vector<SettlementHold> holds = debtor->OpenHolds();
    std::vector<std::vector<SettlementLeg>> by_creditor(shards_.size());
    for (const SettlementHold& hold : holds) {
      SettlementLeg leg;
      leg.from = &hold.from;
      leg.to = &hold.to;
      leg.amount = hold.amount;
      leg.settlement_id = hold.settlement_id;
      by_creditor[StripeFor(hold.to, shards_.size())].push_back(
          std::move(leg));
    }
    for (std::size_t c = 0; c < shards_.size(); ++c) {
      if (by_creditor[c].empty() || shards_[c]->crashed()) continue;
      Settle(debtor, shards_[c], by_creditor[c], now_us, /*resumed=*/true);
      for (const SettlementLeg& leg : by_creditor[c]) {
        // NotFound is a completed refund; Unavailable means a shard died
        // under us — the hold is still parked for the next resume.
        const StatusCode code = leg.status.code();
        if (!leg.status.ok() && code != StatusCode::kNotFound &&
            code != StatusCode::kUnavailable)
          return leg.status;
      }
    }
  }
  return Status::Ok();
}

std::uint64_t FederationRouter::PendingSettlements() const {
  std::uint64_t pending = 0;
  for (const BankShard* shard : shards_) {
    const ShardSnapshotInfo info = shard->SnapshotInfo();
    if (!info.crashed) pending += info.open_holds;
  }
  return pending;
}

bool FederationRouter::IsSettlementSpent(
    const std::string& settlement_id) const {
  gm::MutexLock lock(&mu_);
  return registry_ != nullptr && registry_->IsSpent(settlement_id);
}

FederationAudit FederationRouter::Audit() const {
  FederationAudit audit;
  audit.shards.resize(shards_.size());
  std::vector<Status> verdicts(shards_.size());
  std::vector<Money> in_flight(shards_.size());
  gm::ParallelFor(audit_pool(), shards_.size(), [&](std::size_t i) {
    ShardAudit shard = shards_[i]->Audit();
    audit.shards[i] = shard.info;
    if (shard.info.crashed) {
      verdicts[i] = Status::Unavailable(StrFormat(
          "shard %zu is down: federation totals unverifiable", i));
      return;
    }
    verdicts[i] = std::move(shard.invariant);
    // The credited-but-unreleased window: the hold still counts on the
    // debtor while the creditor already holds the money.
    for (const SettlementHold& hold : shard.open_holds) {
      if (ShardFor(hold.to)->HasAppliedSettlement(hold.settlement_id))
        in_flight[i] += hold.amount;
    }
  });
  Money balances;
  Money holds;
  Money minted;
  Money settled_in;
  Money settled_out;
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    const ShardSnapshotInfo& info = audit.shards[i];
    balances += info.balance_total;
    holds += info.hold_total;
    minted += info.minted;
    settled_in += info.settled_in;
    settled_out += info.settled_out;
    audit.in_flight += in_flight[i];
    // The first failing shard in index order decides the verdict.
    audit.verdict.Update(std::move(verdicts[i]));
  }
  if (balances + holds - audit.in_flight != minted) {
    audit.verdict.Update(Status::Internal(StrFormat(
        "federation conservation violated: balances %lld + holds %lld - "
        "in-flight %lld != minted %lld",
        static_cast<long long>(balances.micros()),
        static_cast<long long>(holds.micros()),
        static_cast<long long>(audit.in_flight.micros()),
        static_cast<long long>(minted.micros()))));
  } else if (settled_in - settled_out != audit.in_flight) {
    audit.verdict.Update(Status::Internal(StrFormat(
        "settlement ledger skewed: settled_in %lld - settled_out %lld != "
        "in-flight %lld",
        static_cast<long long>(settled_in.micros()),
        static_cast<long long>(settled_out.micros()),
        static_cast<long long>(audit.in_flight.micros()))));
  }
  return audit;
}

Result<Money> FederationRouter::TotalMoney() const {
  Money minted;
  for (const BankShard* shard : shards_) {
    const ShardSnapshotInfo info = shard->SnapshotInfo();
    if (info.crashed)
      return Status::Unavailable(
          StrFormat("shard %zu is down", info.index));
    minted += info.minted;
  }
  return minted;
}

std::string FederationRouter::LedgerHash() const {
  std::vector<std::string> lines(shards_.size());
  gm::ParallelFor(audit_pool(), shards_.size(), [&](std::size_t i) {
    const BankShard* shard = shards_[i];
    lines[i] = StrFormat("shard%zu|%s\n", shard->index(),
                         shard->crashed() ? "down"
                                          : shard->LedgerHash().c_str());
  });
  std::string canonical;
  for (const std::string& line : lines) canonical += line;
  return crypto::Sha256::HexDigest(canonical);
}

RouterStats FederationRouter::Stats() const {
  gm::MutexLock lock(&mu_);
  return stats_;
}

}  // namespace gm::bank::federation
