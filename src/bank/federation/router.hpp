// FederationRouter: the front door of the sharded bank.
//
// Accounts are striped over N BankShards by a stable FNV-1a hash of the
// account id (StripeFor), so ownership is a pure function of the id —
// no directory service, no rebalancing, and every participant (router,
// reconciler, tests) computes the same owner. Single-account operations
// (create, mint, balance) and transfers between two accounts on the same
// shard forward to the owning shard's atomic transaction. Transfers that
// cross shards run the two-phase settlement protocol:
//
//   1. PrepareDebit on the debtor shard — journaled hold.
//   2. ApplyCredit on the creditor shard — journaled, idempotent by
//      settlement id (the durable applied-set).
//   3. Claim the settlement id in the federation's double-spend registry
//      (crypto::TokenRegistry): a second credit of the same id anywhere
//      is a protocol violation the reconciler will flag.
//   4. ReleaseHold on the debtor shard — the money has left.
//
// If the creditor is down between 1 and 2 the hold stays open (the
// transfer is parked, money safely inside the debtor's conservation
// total); if the creditor rejects the credit (no such account) the hold
// is aborted and refunded. ResumeSettlements() drives every parked hold
// to completion after restarts: credit already applied → release, not
// yet applied → credit then release, account gone → abort. Every
// decision point is derived from durable shard state, so crash + restart
// + resume settles each transfer exactly once.
//
// Lock discipline: the router's own mutex (rank kBankRouter, below
// kBankShard) only guards the double-spend registry and the settlement
// counters — it IS held across shard calls on the settlement path (rank
// order router < shard makes that legal) so that the claim in step 3 is
// atomic with its credit, but shard-local traffic never touches it.
//
// Audits: LedgerHash and CheckConservation walk every shard. With a pool
// lent (AttachPool; a ParallelRunner lends its own) they run one task
// per shard and combine the per-shard results in shard-index order, so
// the hash, the Status and its message are the serial walk's.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "bank/federation/shard.hpp"
#include "common/concurrency.hpp"
#include "common/status.hpp"
#include "common/units.hpp"
#include "crypto/token.hpp"
#include "telemetry/telemetry.hpp"

namespace gm::bank::federation {

/// Stable stripe map: FNV-1a over the account id, mod the shard count.
/// Pure and endian-independent, so the owner of an account never changes
/// for a fixed federation size.
std::size_t StripeFor(const std::string& account_id, std::size_t num_shards);

/// Point-in-time settlement counters for monitors.
struct RouterStats {
  std::uint64_t intra_transfers = 0;
  std::uint64_t settlements_started = 0;
  std::uint64_t settlements_completed = 0;
  std::uint64_t settlements_aborted = 0;
  std::uint64_t settlements_resumed = 0;
  /// Replayed settlement ids the double-spend registry bounced
  /// (ReplaySettlement returning kAlreadyClaimed).
  std::uint64_t replays_rejected = 0;
};

class FederationRouter {
 public:
  /// Non-owning over the shards and the shared double-spend registry;
  /// `shards[i]->index()` must equal i.
  FederationRouter(std::vector<BankShard*> shards,
                   crypto::TokenRegistry* registry);

  std::size_t num_shards() const { return shards_.size(); }
  BankShard* shard(std::size_t index) const { return shards_[index]; }
  BankShard* ShardFor(const std::string& account_id) const {
    return shards_[StripeFor(account_id, shards_.size())];
  }

  // -- routed single-shard operations --
  Status CreateAccount(const std::string& id,
                       Money initial_balance = Money::Zero());
  Status Mint(const std::string& id, Money amount, std::int64_t now_us);
  Result<Money> Balance(const std::string& id) const;
  bool HasAccount(const std::string& id) const;

  /// Same-shard: one atomic shard transaction. Cross-shard: two-phase
  /// settlement. Unavailable means the transfer is parked on the debtor
  /// shard (hold open), to be finished by ResumeSettlements.
  Status Transfer(const std::string& from, const std::string& to,
                  Money amount, std::int64_t now_us);

  /// Batched Transfer: groups `requests` by (debtor shard, creditor
  /// shard) pair — groups in ascending pair order, input order preserved
  /// within a group — and runs each settlement phase for a group as one
  /// shard batch call (one lock acquisition + journal run per phase
  /// instead of one per transfer). Returns one Status per request, in
  /// REQUEST order. Exact equivalence contract, pinned by
  /// FederationBatchTest: the resulting ledgers and statuses are
  /// bit-identical to calling Transfer() one-by-one in the same grouped
  /// order.
  std::vector<Status> TransferBatch(
      const std::vector<TransferRequest>& requests, std::int64_t now_us);

  /// Adversary/audit surface: present `settlement_id` to the double-spend
  /// registry as if it were a fresh settlement. Already claimed →
  /// kAlreadyClaimed (counted in RouterStats::replays_rejected, never
  /// mutates any ledger); never claimed → kNotFound (nothing to replay).
  Status ReplaySettlement(const std::string& settlement_id);

  /// Drive every open hold on every live shard to completion (release,
  /// credit+release, or abort). Holds whose creditor shard is down stay
  /// parked. Idempotent; call after any shard restart.
  Status ResumeSettlements(std::int64_t now_us);

  /// Open holds across live shards (parked + mid-flight settlements).
  std::uint64_t PendingSettlements() const;

  /// True iff `settlement_id` was claimed in the double-spend registry.
  bool IsSettlementSpent(const std::string& settlement_id) const;

  /// Global conservation over live shards:
  ///   sum(balances) + sum(holds) - in_flight == sum(minted)
  /// where in_flight is the total of open holds whose settlement id the
  /// creditor shard has already applied (the credited-but-unreleased
  /// window). Also validates each shard's local invariant and the
  /// settled_in/settled_out vs in_flight identity. Unavailable if any
  /// shard is down; the first failing shard in index order decides the
  /// error. Callers must be quiescent (no concurrent transfers).
  Status CheckConservation() const;

  /// Total Money minted across live shards.
  Result<Money> TotalMoney() const;

  /// SHA-256 over the index-ordered shard ledger hashes: equal hashes
  /// <=> every shard ledger identical.
  std::string LedgerHash() const;

  RouterStats Stats() const;

  /// Run the audits' per-shard walks on `pool` (non-owning; it must
  /// outlive its attachment). An audit must then not be called from one
  /// of `pool`'s own workers.
  void AttachPool(gm::ThreadPool* pool) {
    pool_.store(pool, std::memory_order_release);
  }
  /// Detach `pool` if it is the one attached; audits then run inline.
  void DetachPool(gm::ThreadPool* pool) {
    pool_.compare_exchange_strong(pool, nullptr, std::memory_order_acq_rel);
  }
  gm::ThreadPool* audit_pool() const {
    return pool_.load(std::memory_order_acquire);
  }

  /// Counters "fed.router.*" and the settlement latency histogram
  /// "fed.settle_latency_ns" (wall clock, WAL-style). nullptr detaches.
  void AttachTelemetry(telemetry::Telemetry* telemetry);

 private:
  /// Steps 2-4 for one prepared hold sitting on `debtor`. `resumed`
  /// selects which counter a completion bumps.
  Status CompleteSettlement(BankShard* debtor, const SettlementHold& hold,
                            std::int64_t now_us, bool resumed);
  Status ClaimSettlementId(const std::string& settlement_id);

  const std::vector<BankShard*> shards_;
  mutable gm::Mutex mu_{"bank.federation.router",
                        gm::lockrank::kBankRouter};
  crypto::TokenRegistry* const registry_ GM_PT_GUARDED_BY(mu_);
  RouterStats stats_ GM_GUARDED_BY(mu_);
  // Attach-once metric pointers (see BankShard); relaxed atomics make
  // the handoff race-free without a lock.
  std::atomic<telemetry::Counter*> settlements_ctr_{nullptr};
  std::atomic<telemetry::Counter*> aborts_ctr_{nullptr};
  std::atomic<telemetry::LatencyHistogram*> settle_latency_{nullptr};
  // Lent audit pool; atomic like the metric pointers above.
  std::atomic<gm::ThreadPool*> pool_{nullptr};
};

}  // namespace gm::bank::federation
