// BankShard: one stripe of the federated bank (GridBank-style federated
// grid accounting; see DESIGN.md §13).
//
// The federation splits the account space over N shards by a stable hash
// of the account id (see StripeFor in router.hpp). Each shard is an
// independent ledger service with its own mutex, its own durable store
// and its own crash/restart surface: intra-shard operations (create,
// mint, transfer) are single-shard atomic transactions exactly like the
// central Bank's, while cross-shard transfers run the two-phase
// settlement protocol the FederationRouter coordinates:
//
//   prepare  (debtor shard)   debit the source account into a named hold;
//                             the hold keeps the money inside this
//                             shard's conservation total until released.
//   credit   (creditor shard) apply the amount to the destination
//                             account, recording the settlement id in the
//                             durable applied-set — the idempotence
//                             ledger that makes retried credits
//                             exactly-once.
//   release  (debtor shard)   drop the hold: the money has left this
//                             shard for good (settled_out accounting).
//   abort    (debtor shard)   refund the hold to the source account
//                             (creditor rejected the credit, e.g. no such
//                             account).
//
// Every step is journaled write-ahead into the shard's WAL before the
// in-memory ledger changes, so a crash at any point between phases
// recovers to a state from which FederationRouter::ResumeSettlements
// completes or aborts the transfer exactly once.
//
// Local conservation invariant, checked by every Audit() walk:
//   sum(balances) + sum(open holds)
//     == minted + settled_in - settled_out.
//
// Thread safety: one mutex (rank kBankShard) guards the whole shard;
// every public method is an atomic shard transaction. The Recoverable
// hooks are reached only through the attached store while the shard
// already holds its own lock (same pattern as bank::Bank).
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "common/concurrency.hpp"
#include "common/status.hpp"
#include "common/units.hpp"
#include "store/store.hpp"
#include "telemetry/telemetry.hpp"

namespace gm::bank::federation {

/// One account's state; its id is the key it is stored under.
struct ShardAccount {
  Money balance;
};

/// One transfer order, as fed to FederationRouter::TransferBatch.
struct TransferRequest {
  std::string from;
  std::string to;
  Money amount;
};

/// One cross-shard transfer on its way through the settlement phases.
/// `from` and `to` point at strings the caller keeps alive across the
/// phase calls; `settlement_id` names the debtor's hold once
/// PrepareDebits has opened it. Each phase skips a leg whose `status`
/// has already failed, and records its own failure there.
struct SettlementLeg {
  const std::string* from = nullptr;
  const std::string* to = nullptr;
  Money amount;
  std::string settlement_id;
  Status status;
};

/// An open prepare-hold: money debited from `from` awaiting the creditor
/// shard's credit + this shard's release (or abort).
struct SettlementHold {
  std::string settlement_id;
  std::string from;
  std::string to;  // destination account (on the creditor shard)
  Money amount;
  std::int64_t prepared_at_us = 0;
};

/// Point-in-time totals for monitors and the reconciler.
struct ShardSnapshotInfo {
  std::size_t index = 0;
  std::uint64_t accounts = 0;
  Money balance_total;
  std::uint64_t open_holds = 0;
  Money hold_total;
  std::uint64_t applied_settlements = 0;
  Money minted;
  Money settled_in;
  Money settled_out;
  bool crashed = false;
};

/// What one audit walk of a shard finds (BankShard::Audit).
struct ShardAudit {
  ShardSnapshotInfo info;
  /// sum(balances) + sum(holds) == minted + settled_in - settled_out and
  /// no balance negative; Unavailable while the shard is down.
  Status invariant;
  std::vector<SettlementHold> open_holds;
};

class BankShard : public store::Recoverable {
 public:
  /// `index` is this shard's position in the federation stripe map; it
  /// namespaces settlement ids ("s<index>-<seq>") so ids are unique
  /// federation-wide without shared state.
  explicit BankShard(std::size_t index);

  std::size_t index() const { return index_; }

  // -- intra-shard ledger operations --
  /// Create a (bank-managed) account, optionally seeded with an initial
  /// balance that counts toward this shard's minted total. One journal
  /// record for both, so bulk account funding costs one append each.
  Status CreateAccount(const std::string& id,
                       Money initial_balance = Money::Zero());
  Status Mint(const std::string& id, Money amount, std::int64_t now_us);
  /// Transfer between two accounts owned by THIS shard.
  Status Transfer(const std::string& from, const std::string& to,
                  Money amount, std::int64_t now_us);
  Result<Money> Balance(const std::string& id) const;
  bool HasAccount(const std::string& id) const;

  // -- two-phase settlement (driven by FederationRouter) --
  // Each phase runs its per-leg step over `legs` in order under ONE lock
  // acquisition. A leg that fails a step keeps the error in its status
  // and journals nothing.
  /// Phase 1 on the debtor shard: debit `from` into a new hold and set
  /// the leg's settlement id. Fails on missing account or insufficient
  /// funds.
  void PrepareDebits(std::span<SettlementLeg> legs, std::int64_t now_us);
  /// Phase 2 on the creditor shard: credit `to` exactly once. A
  /// settlement id already in the applied-set is an idempotent retry:
  /// the leg succeeds and nothing moves.
  void ApplyCredits(std::span<SettlementLeg> legs, std::int64_t now_us);
  /// Phase 3 on the debtor shard: the creditor applied; drop the hold.
  void ReleaseHolds(std::span<SettlementLeg> legs, std::int64_t now_us);
  /// Failure path on the debtor shard: refund the hold to its source.
  Status AbortHold(const std::string& settlement_id, std::int64_t now_us);

  /// True iff `settlement_id` is in this shard's durable applied-set.
  bool HasAppliedSettlement(const std::string& settlement_id) const;
  /// Copies (the lock is released before the caller looks at them).
  std::vector<SettlementHold> OpenHolds() const;
  std::vector<std::string> AppliedSettlementIds() const;

  /// One locked walk over the accounts and holds: the shard's totals,
  /// its local invariant and a copy of its open holds.
  ShardAudit Audit() const;
  ShardSnapshotInfo SnapshotInfo() const { return Audit().info; }

  // -- durability --
  /// Journal every subsequent mutation into `s` (non-owning; nullptr
  /// detaches). Snapshot/recover explicitly around attachment.
  void AttachStore(store::DurableStore* s);
  Result<store::RecoveryStats> RecoverFromStore();
  /// SHA-256 over the canonical shard ledger (accounts, holds,
  /// applied-set, minted/settled totals): equal hashes <=> identical
  /// shard state. Order-insensitive by construction (all state lives in
  /// sorted maps), so a parallel merge that interleaves credits from
  /// different debtor shards hashes identically to a serial one.
  std::string LedgerHash() const;

  /// Chaos surface: the shard process dies — in-memory state is wiped
  /// and every call fails Unavailable until Restart() replays the log.
  void SimulateCrash();
  Status Restart();
  bool crashed() const {
    gm::MutexLock lock(&mu_);
    return crashed_;
  }

  // store::Recoverable — externally serialized: only reached through the
  // store while this shard holds mu_ (see class comment).
  Status ApplyRecord(const Bytes& record) override;
  void WriteSnapshot(net::Writer& writer) const override;
  Status LoadSnapshot(net::Reader& reader) override;

  /// Count shard operations under "fed.shard<index>.*". nullptr detaches.
  void AttachTelemetry(telemetry::Telemetry* telemetry);

 private:
  Status PrepareDebitLocked(SettlementLeg& leg, std::int64_t now_us)
      GM_REQUIRES(mu_);
  Status ApplyCreditLocked(const SettlementLeg& leg, std::int64_t now_us)
      GM_REQUIRES(mu_);
  Status ReleaseHoldLocked(const std::string& settlement_id,
                           std::int64_t now_us) GM_REQUIRES(mu_);
  ShardAccount* Find(const std::string& id) GM_REQUIRES(mu_);
  const ShardAccount* Find(const std::string& id) const GM_REQUIRES(mu_);
  Status Journal(const net::Writer& writer) GM_REQUIRES(mu_);
  Status Checkpoint() GM_REQUIRES(mu_);
  void ClearState() GM_REQUIRES(mu_);
  Result<store::RecoveryStats> RecoverFromStoreLocked() GM_REQUIRES(mu_);

  const std::size_t index_;
  mutable gm::Mutex mu_{"bank.federation.shard", gm::lockrank::kBankShard};
  std::map<std::string, ShardAccount> accounts_ GM_GUARDED_BY(mu_);
  std::map<std::string, SettlementHold> holds_ GM_GUARDED_BY(mu_);
  /// settlement id -> credited amount. The amount is kept (not just the
  /// id) so the reconciler can match in-flight credits against open
  /// debtor holds without re-deriving them from the WAL.
  std::map<std::string, Money> applied_ GM_GUARDED_BY(mu_);
  Money minted_ GM_GUARDED_BY(mu_);
  Money settled_in_ GM_GUARDED_BY(mu_);
  Money settled_out_ GM_GUARDED_BY(mu_);
  std::uint64_t next_settlement_seq_ GM_GUARDED_BY(mu_) = 1;
  store::DurableStore* store_ GM_GUARDED_BY(mu_) = nullptr;  // non-owning
  bool crashed_ GM_GUARDED_BY(mu_) = false;
  // Attach-once metric pointers; relaxed atomics make the handoff
  // race-free without a lock (counters are internally atomic too).
  std::atomic<telemetry::Counter*> transfers_ctr_{nullptr};
  std::atomic<telemetry::Counter*> prepares_ctr_{nullptr};
  std::atomic<telemetry::Counter*> credits_ctr_{nullptr};
  std::atomic<telemetry::Counter*> aborts_ctr_{nullptr};
};

}  // namespace gm::bank::federation
