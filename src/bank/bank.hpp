// The Tycoon Bank (paper Section 2.2).
//
// Maintains user accounts with balances and public keys, executes
// owner-authorized transfers, and issues signed TransferReceipts that the
// market side verifies as payment capabilities. Sub-accounts model the
// broker pattern from Section 3.1: verified token funds are moved into a
// per-user sub-account of the broker account, which then funds host
// accounts. Those bank-managed moves are unsigned: only the owner's
// transfer into the broker yields a receipt a party outside the bank
// checks, so it is the only one the bank signs.
//
// Money is integer micro-dollars; the bank maintains the conservation
// invariant sum(balances) == total minted, checked by CheckInvariants().
//
// Durability (GridBank-style accounting): attach a store::DurableStore
// and every mutation is journaled write-ahead — the record is appended
// before the in-memory ledger changes, so a crash at any point loses at
// most the operation in flight, never a half-applied one. Restart()
// rebuilds the exact pre-crash ledger (balances, escrow sub-accounts,
// nonces, signed receipts, audit log) from snapshot + log replay; LedgerHash()
// lets tests assert the recovered ledger is identical.
//
// Thread safety: one mutex (rank kBank) guards the whole ledger — every
// public method is an atomic ledger transaction. The Recoverable hooks
// are invoked by the attached store *while the bank already holds its
// own lock* (Checkpoint and RecoverFromStore call into the store with
// mu_ held, and the store calls straight back), so they carry no
// annotations of their own; they must never be called from outside that
// recovery path on a shared bank.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/concurrency.hpp"
#include "common/status.hpp"
#include "common/units.hpp"
#include "crypto/schnorr.hpp"
#include "crypto/token.hpp"
#include "store/store.hpp"
#include "telemetry/telemetry.hpp"

namespace gm::bank {

struct Account {
  std::string id;
  crypto::PublicKey owner_key;  // empty key => bank-managed (sub)account
  Money balance;
  std::string parent;  // enclosing account id, empty for root accounts
  std::uint64_t transfer_nonce = 0;  // replay protection for authorizations
};

struct AuditEntry {
  std::int64_t at_us = 0;
  std::string kind;  // "create", "mint", "transfer", "sub_create"
  std::string from;
  std::string to;
  Money amount;
};

/// Canonical payload an account owner signs to authorize a transfer.
std::string TransferAuthPayload(const std::string& from, const std::string& to,
                                Money amount, std::uint64_t nonce);

class Bank : public store::Recoverable {
 public:
  /// The bank signs receipts with its own keypair in `group`, generated
  /// from `seed`.
  Bank(const crypto::SchnorrGroup& group, std::uint64_t seed);

  /// Create a root account bound to an owner key.
  Status CreateAccount(const std::string& id,
                       const crypto::PublicKey& owner_key);
  /// Create a bank-managed sub-account of `parent` (used by brokers for
  /// verified token funds). Transfers out of sub-accounts need no owner
  /// signature; they are authorized by holding the parent account.
  Status CreateSubAccount(const std::string& parent,
                          const std::string& sub_id);

  /// Mint external funds into an account (experiment setup / funding).
  Status Mint(const std::string& id, Money amount, std::int64_t now_us);

  /// Owner-authorized transfer: `auth` must be a signature by the `from`
  /// account's key over TransferAuthPayload(from, to, amount, nonce) with
  /// the account's current nonce. Returns a bank-signed receipt, the one
  /// the payer binds to a Grid DN in a TransferToken.
  Result<crypto::TransferReceipt> Transfer(const std::string& from,
                                           const std::string& to,
                                           Money amount,
                                           const crypto::Signature& auth,
                                           std::int64_t now_us);

  /// Transfer between bank-managed accounts (sub-accounts / host accounts);
  /// no owner signature exists for these. Nobody outside the bank holds a
  /// receipt for it, so none is signed; it is journaled and still takes a
  /// receipt number.
  Status InternalTransfer(const std::string& from, const std::string& to,
                          Money amount, std::int64_t now_us);

  Result<Money> Balance(const std::string& id) const;
  /// Current nonce the owner must sign for the next Transfer.
  Result<std::uint64_t> TransferNonce(const std::string& id) const;
  Result<crypto::PublicKey> OwnerKey(const std::string& id) const;
  bool HasAccount(const std::string& id) const;

  /// Check a receipt the bank claims to have issued: it must equal, field
  /// for field and signature bytes included, the copy the bank signed.
  /// The signature itself is not re-verified (VerifyToken checks it against
  /// public_key()). Internal transfers have no receipt: kNotFound.
  Status VerifyReceipt(const crypto::TransferReceipt& receipt) const;

  const crypto::PublicKey& public_key() const {
    return keys_.public_key();
  }
  /// Copy of the audit journal (by value: the ledger lock is released
  /// before the caller looks at it).
  std::vector<AuditEntry> audit_log() const {
    gm::MutexLock lock(&mu_);
    return audit_;
  }

  /// Conservation: sum of all balances equals total minted. Never fails
  /// unless there is a bug.
  Status CheckInvariants() const;

  // -- durability --
  /// Journal every subsequent mutation into `s` (non-owning; may be
  /// nullptr to detach). Does not write the current state — snapshot or
  /// recover explicitly around attachment.
  void AttachStore(store::DurableStore* s);
  store::DurableStore* attached_store() const {
    gm::MutexLock lock(&mu_);
    return store_;
  }
  /// Drop the in-memory ledger and rebuild it from the attached store.
  Result<store::RecoveryStats> RecoverFromStore();
  /// SHA-256 over the canonical ledger (accounts, balances, escrow
  /// parents, nonces, minted total): equal hashes <=> identical ledgers.
  std::string LedgerHash() const;

  /// Chaos surface: the bank process dies — all in-memory state is wiped
  /// and every call fails Unavailable until Restart() replays the log.
  void SimulateCrash();
  Status Restart();
  bool crashed() const {
    gm::MutexLock lock(&mu_);
    return crashed_;
  }

  // store::Recoverable — externally serialized: only reached through the
  // store while this bank holds mu_ (see class comment), hence the
  // analysis escape hatch on each definition.
  Status ApplyRecord(const Bytes& record) override;
  void WriteSnapshot(net::Writer& writer) const override;
  Status LoadSnapshot(net::Reader& reader) override;

  /// Count ledger operations (creates, mints, transfers, and the signed
  /// receipts among the transfers) and observe transfer amounts into the
  /// registry. nullptr detaches.
  void AttachTelemetry(telemetry::Telemetry* telemetry);

 private:
  /// Move `amount` and journal it. With `receipt` non-null (an
  /// owner-signed Transfer) it also bumps the payer's nonce and signs the
  /// receipt into *receipt; a null `receipt` is an unsigned internal move.
  Status ExecuteTransfer(const std::string& from, const std::string& to,
                         Money amount, std::int64_t now_us,
                         crypto::TransferReceipt* receipt) GM_REQUIRES(mu_);
  Account* Find(const std::string& id) GM_REQUIRES(mu_);
  const Account* Find(const std::string& id) const GM_REQUIRES(mu_);
  /// Append one journal record + auto-checkpoint; no-op without a store.
  Status Journal(const net::Writer& writer) GM_REQUIRES(mu_);
  Status Checkpoint() GM_REQUIRES(mu_);
  void ClearState() GM_REQUIRES(mu_);
  Result<store::RecoveryStats> RecoverFromStoreLocked() GM_REQUIRES(mu_);

  const crypto::SchnorrGroup* group_;  // immutable after construction
  mutable gm::Mutex mu_{"bank.ledger", gm::lockrank::kBank};
  // Immutable after construction. Receipts are signed with nonces derived
  // from the key and the receipt, so a bank rebuilt from its journal (or
  // from a journal that lost its tail) never reuses one.
  const crypto::KeyPair keys_;
  std::map<std::string, Account> accounts_ GM_GUARDED_BY(mu_);
  std::map<std::string, crypto::TransferReceipt> issued_receipts_
      GM_GUARDED_BY(mu_);
  std::vector<AuditEntry> audit_ GM_GUARDED_BY(mu_);
  Money total_minted_ GM_GUARDED_BY(mu_);
  std::uint64_t next_receipt_ GM_GUARDED_BY(mu_) = 1;
  store::DurableStore* store_ GM_GUARDED_BY(mu_) = nullptr;  // non-owning
  bool crashed_ GM_GUARDED_BY(mu_) = false;
  // Attach-once metric pointers; relaxed atomics make the handoff
  // race-free without a lock (counters are internally atomic too).
  std::atomic<telemetry::Counter*> creates_ctr_{nullptr};
  std::atomic<telemetry::Counter*> mints_ctr_{nullptr};
  std::atomic<telemetry::Counter*> transfers_ctr_{nullptr};
  std::atomic<telemetry::Counter*> receipts_signed_ctr_{nullptr};
  std::atomic<telemetry::Summary*> transfer_amount_{nullptr};
};

}  // namespace gm::bank
