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

Status FederationRouter::ClaimSettlementId(const std::string& settlement_id) {
  gm::MutexLock lock(&mu_);
  if (registry_ == nullptr) return Status::Ok();
  const Status claim = registry_->Claim(settlement_id);
  // AlreadyClaimed is the idempotent-resume case: the credit was applied
  // and claimed before a crash parked the release. Anything else would
  // be a genuine double spend and there is no such path.
  if (claim.ok() || claim.code() == StatusCode::kAlreadyClaimed)
    return Status::Ok();
  return claim;
}

Status FederationRouter::CompleteSettlement(BankShard* debtor,
                                            const SettlementHold& hold,
                                            std::int64_t now_us,
                                            bool resumed) {
  BankShard* creditor = ShardFor(hold.to);
  const auto credit =
      creditor->ApplyCredit(hold.settlement_id, hold.to, hold.amount, now_us);
  if (!credit.ok()) {
    if (credit.status().code() == StatusCode::kUnavailable) {
      // Creditor down: the transfer stays parked in the debtor's hold.
      return credit.status();
    }
    if (credit.status().code() == StatusCode::kNotFound) {
      // Creditor rejected (destination account does not exist): refund.
      GM_RETURN_IF_ERROR(debtor->AbortHold(hold.settlement_id, now_us));
      {
        gm::MutexLock lock(&mu_);
        ++stats_.settlements_aborted;
      }
      if (auto* ctr = aborts_ctr_.load(std::memory_order_relaxed))
        ctr->Inc();
      return credit.status();
    }
    return credit.status();
  }
  GM_RETURN_IF_ERROR(ClaimSettlementId(hold.settlement_id));
  // If the debtor dies here the hold replays on restart and
  // ResumeSettlements finds the credit already applied → release only.
  GM_RETURN_IF_ERROR(debtor->ReleaseHold(hold.settlement_id, now_us));
  {
    gm::MutexLock lock(&mu_);
    if (resumed) {
      ++stats_.settlements_resumed;
    } else {
      ++stats_.settlements_completed;
    }
  }
  if (auto* ctr = settlements_ctr_.load(std::memory_order_relaxed))
    ctr->Inc();
  return Status::Ok();
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
  // Fail fast before journaling a hold when the outcome is already
  // known: destination missing on a live creditor. (A creditor that is
  // down between this check and the credit parks the hold instead.)
  if (!creditor->crashed() && !creditor->HasAccount(to))
    return Status::NotFound("account: " + to);
  const auto wall_start = std::chrono::steady_clock::now();
  GM_ASSIGN_OR_RETURN(const std::string settlement_id,
                      debtor->PrepareDebit(from, to, amount, now_us));
  {
    gm::MutexLock lock(&mu_);
    ++stats_.settlements_started;
  }
  SettlementHold hold;
  hold.settlement_id = settlement_id;
  hold.from = from;
  hold.to = to;
  hold.amount = amount;
  hold.prepared_at_us = now_us;
  const Status status =
      CompleteSettlement(debtor, hold, now_us, /*resumed=*/false);
  auto* latency = settle_latency_.load(std::memory_order_relaxed);
  if (status.ok() && latency != nullptr) {
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now() - wall_start)
                        .count();
    latency->Record(static_cast<std::uint64_t>(ns));
  }
  return status;
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
  for (const auto& [key, indices] : groups) {
    BankShard* debtor = shards_[key.first];
    BankShard* creditor = shards_[key.second];
    if (key.first == key.second) {
      // Same-shard transfers are already single atomic transactions;
      // nothing to batch.
      for (const std::size_t i : indices)
        statuses[i] = Transfer(requests[i].from, requests[i].to,
                               requests[i].amount, now_us);
      continue;
    }
    const auto wall_start = std::chrono::steady_clock::now();
    // Fail fast exactly like Transfer: a missing destination on a live
    // creditor never journals a hold.
    std::vector<std::size_t> live;
    std::vector<TransferRequest> prepare_reqs;
    for (const std::size_t i : indices) {
      if (!creditor->crashed() && !creditor->HasAccount(requests[i].to)) {
        statuses[i] = Status::NotFound("account: " + requests[i].to);
        continue;
      }
      live.push_back(i);
      prepare_reqs.push_back(requests[i]);
    }
    if (live.empty()) continue;

    // Phase 1, one debtor lock: holds journal in input order, so the
    // settlement-id sequence matches one-by-one Transfer calls.
    const auto prepared = debtor->PrepareDebits(prepare_reqs, now_us);
    std::vector<std::size_t> held;           // indices with an open hold
    std::vector<CreditRequest> credit_reqs;  // aligned with `held`
    for (std::size_t j = 0; j < live.size(); ++j) {
      if (!prepared[j].ok()) {
        statuses[live[j]] = prepared[j].status();
        continue;
      }
      {
        gm::MutexLock lock(&mu_);
        ++stats_.settlements_started;
      }
      held.push_back(live[j]);
      credit_reqs.push_back({prepared[j].value(), requests[live[j]].to,
                             requests[live[j]].amount});
    }
    if (held.empty()) continue;

    // Phase 2, one creditor lock.
    const auto credited = creditor->ApplyCredits(credit_reqs, now_us);

    // Phases 3/4 mirror CompleteSettlement per item: Unavailable parks
    // the hold, NotFound aborts + refunds, success claims then releases.
    std::vector<std::size_t> releasable;       // indices into `held`
    std::vector<std::string> release_ids;
    for (std::size_t j = 0; j < held.size(); ++j) {
      const std::size_t i = held[j];
      if (!credited[j].ok()) {
        statuses[i] = credited[j].status();
        if (credited[j].status().code() == StatusCode::kNotFound) {
          const Status abort =
              debtor->AbortHold(credit_reqs[j].settlement_id, now_us);
          if (!abort.ok()) {
            statuses[i] = abort;
            continue;
          }
          {
            gm::MutexLock lock(&mu_);
            ++stats_.settlements_aborted;
          }
          if (auto* ctr = aborts_ctr_.load(std::memory_order_relaxed))
            ctr->Inc();
        }
        continue;
      }
      const Status claim = ClaimSettlementId(credit_reqs[j].settlement_id);
      if (!claim.ok()) {
        statuses[i] = claim;
        continue;
      }
      releasable.push_back(j);
      release_ids.push_back(credit_reqs[j].settlement_id);
    }
    if (release_ids.empty()) continue;

    // Phase 3, one debtor lock.
    const auto released = debtor->ReleaseHolds(release_ids, now_us);
    std::uint64_t completed = 0;
    for (std::size_t k = 0; k < releasable.size(); ++k) {
      const std::size_t i = held[releasable[k]];
      statuses[i] = released[k];
      if (released[k].ok()) ++completed;
    }
    if (completed > 0) {
      {
        gm::MutexLock lock(&mu_);
        stats_.settlements_completed += completed;
      }
      if (auto* ctr = settlements_ctr_.load(std::memory_order_relaxed))
        ctr->Inc(completed);
      if (auto* lat = settle_latency_.load(std::memory_order_relaxed)) {
        // One wall-clock sample per settled transfer; the group shares
        // the elapsed time since its phases were batched together.
        const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                            std::chrono::steady_clock::now() - wall_start)
                            .count();
        for (std::uint64_t n = 0; n < completed; ++n)
          lat->Record(static_cast<std::uint64_t>(ns));
      }
    }
  }
  return statuses;
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
    // deterministic for a given shard state.
    for (const SettlementHold& hold : debtor->OpenHolds()) {
      BankShard* creditor = ShardFor(hold.to);
      if (creditor->crashed()) continue;  // stays parked
      const Status status =
          CompleteSettlement(debtor, hold, now_us, /*resumed=*/true);
      // NotFound is a completed refund; Unavailable means a shard died
      // under us — the hold is still parked for the next resume.
      if (!status.ok() && status.code() != StatusCode::kNotFound &&
          status.code() != StatusCode::kUnavailable)
        return status;
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

Status FederationRouter::CheckConservation() const {
  struct ShardAudit {
    Status status;
    ShardSnapshotInfo info;
    Money in_flight;
  };
  std::vector<ShardAudit> audits(shards_.size());
  gm::ParallelFor(audit_pool(), shards_.size(), [&](std::size_t i) {
    const BankShard* shard = shards_[i];
    ShardAudit& audit = audits[i];
    if (shard->crashed()) {
      audit.status = Status::Unavailable(StrFormat(
          "shard %zu is down: federation totals unverifiable", shard->index()));
      return;
    }
    audit.status = shard->CheckLocalInvariants();
    if (!audit.status.ok()) return;
    audit.info = shard->SnapshotInfo();
    // The credited-but-unreleased window: the hold still counts on the
    // debtor while the creditor already holds the money.
    for (const SettlementHold& hold : shard->OpenHolds()) {
      if (ShardFor(hold.to)->HasAppliedSettlement(hold.settlement_id))
        audit.in_flight += hold.amount;
    }
  });
  Money balances;
  Money holds;
  Money minted;
  Money settled_in;
  Money settled_out;
  Money in_flight;
  for (const ShardAudit& audit : audits) {
    GM_RETURN_IF_ERROR(audit.status);
    balances += audit.info.balance_total;
    holds += audit.info.hold_total;
    minted += audit.info.minted;
    settled_in += audit.info.settled_in;
    settled_out += audit.info.settled_out;
    in_flight += audit.in_flight;
  }
  if (balances + holds - in_flight != minted)
    return Status::Internal(StrFormat(
        "federation conservation violated: balances %lld + holds %lld - "
        "in-flight %lld != minted %lld",
        static_cast<long long>(balances.micros()),
        static_cast<long long>(holds.micros()),
        static_cast<long long>(in_flight.micros()),
        static_cast<long long>(minted.micros())));
  if (settled_in - settled_out != in_flight)
    return Status::Internal(StrFormat(
        "settlement ledger skewed: settled_in %lld - settled_out %lld != "
        "in-flight %lld",
        static_cast<long long>(settled_in.micros()),
        static_cast<long long>(settled_out.micros()),
        static_cast<long long>(in_flight.micros())));
  return Status::Ok();
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
