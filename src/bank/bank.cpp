#include "bank/bank.hpp"

#include "common/rng.hpp"
#include "common/strings.hpp"
#include "crypto/sha256.hpp"
#include "net/serialize.hpp"

namespace gm::bank {
namespace {

// Journal record kinds. The payload layout per kind is defined by the
// matching Journal*/ApplyRecord pair below; bump kSnapshotVersion when
// the snapshot layout changes.
enum RecordKind : std::uint8_t {
  kRecordCreate = 1,
  kRecordSubCreate = 2,
  kRecordMint = 3,
  kRecordTransfer = 4,
};

constexpr std::uint64_t kSnapshotVersion = 1;

const Status& BankDown() {
  static const Status status =
      Status::Unavailable("bank is down (crashed; awaiting restart)");
  return status;
}

std::string EncodeOwnerKey(const crypto::PublicKey& key) {
  return key == crypto::PublicKey() ? std::string() : key.y().ToHex();
}

}  // namespace

std::string TransferAuthPayload(const std::string& from, const std::string& to,
                                Money amount, std::uint64_t nonce) {
  return StrFormat("auth|from=%s|to=%s|amount=%lld|nonce=%llu", from.c_str(),
                   to.c_str(), static_cast<long long>(amount.micros()),
                   static_cast<unsigned long long>(nonce));
}

namespace {

crypto::KeyPair GenerateKeys(const crypto::SchnorrGroup& group,
                             std::uint64_t seed) {
  Rng rng(seed);
  return crypto::KeyPair::Generate(group, rng);
}

}  // namespace

Bank::Bank(const crypto::SchnorrGroup& group, std::uint64_t seed)
    : group_(&group), keys_(GenerateKeys(group, seed)) {}

Account* Bank::Find(const std::string& id) {
  const auto it = accounts_.find(id);
  return it == accounts_.end() ? nullptr : &it->second;
}

const Account* Bank::Find(const std::string& id) const {
  const auto it = accounts_.find(id);
  return it == accounts_.end() ? nullptr : &it->second;
}

void Bank::AttachStore(store::DurableStore* s) {
  gm::MutexLock lock(&mu_);
  store_ = s;
}

Status Bank::Journal(const net::Writer& writer) {
  if (store_ == nullptr) return Status::Ok();
  return store_->Append(writer.data());
}

// Auto-checkpoint AFTER the mutation is applied — a snapshot taken
// between Journal() and the in-memory update would claim coverage of a
// record whose effect it does not contain, silently dropping it on
// recovery.
Status Bank::Checkpoint() {
  if (store_ == nullptr) return Status::Ok();
  return store_->MaybeSnapshot(*this);
}

void Bank::AttachTelemetry(telemetry::Telemetry* telemetry) {
  if (telemetry == nullptr) {
    creates_ctr_.store(nullptr, std::memory_order_relaxed);
    mints_ctr_.store(nullptr, std::memory_order_relaxed);
    transfers_ctr_.store(nullptr, std::memory_order_relaxed);
    receipts_signed_ctr_.store(nullptr, std::memory_order_relaxed);
    transfer_amount_.store(nullptr, std::memory_order_relaxed);
    return;
  }
  creates_ctr_.store(telemetry->metrics().GetCounter("bank.account_creates"),
                     std::memory_order_relaxed);
  mints_ctr_.store(telemetry->metrics().GetCounter("bank.mints"),
                   std::memory_order_relaxed);
  transfers_ctr_.store(telemetry->metrics().GetCounter("bank.transfers"),
                       std::memory_order_relaxed);
  receipts_signed_ctr_.store(
      telemetry->metrics().GetCounter("bank.receipts_signed"),
      std::memory_order_relaxed);
  transfer_amount_.store(
      telemetry->metrics().GetSummary("bank.transfer_amount_dollars"),
      std::memory_order_relaxed);
}

Status Bank::CreateAccount(const std::string& id,
                           const crypto::PublicKey& owner_key) {
  gm::MutexLock lock(&mu_);
  if (crashed_) return BankDown();
  if (id.empty()) return Status::InvalidArgument("empty account id");
  if (Find(id) != nullptr)
    return Status::AlreadyExists("account exists: " + id);
  // Write-ahead: journal first, mutate only once the record is durable.
  net::Writer record;
  record.WriteU8(kRecordCreate);
  record.WriteString(id);
  record.WriteString(EncodeOwnerKey(owner_key));
  GM_RETURN_IF_ERROR(Journal(record));
  Account account;
  account.id = id;
  account.owner_key = owner_key;
  accounts_.emplace(id, std::move(account));
  audit_.push_back({0, "create", "", id, Money::Zero()});
  if (auto* ctr = creates_ctr_.load(std::memory_order_relaxed)) ctr->Inc();
  return Checkpoint();
}

Status Bank::CreateSubAccount(const std::string& parent,
                              const std::string& sub_id) {
  gm::MutexLock lock(&mu_);
  if (crashed_) return BankDown();
  const Account* parent_account = Find(parent);
  if (parent_account == nullptr)
    return Status::NotFound("parent account: " + parent);
  if (sub_id.empty()) return Status::InvalidArgument("empty account id");
  if (Find(sub_id) != nullptr)
    return Status::AlreadyExists("account exists: " + sub_id);
  net::Writer record;
  record.WriteU8(kRecordSubCreate);
  record.WriteString(parent);
  record.WriteString(sub_id);
  GM_RETURN_IF_ERROR(Journal(record));
  Account account;
  account.id = sub_id;
  account.parent = parent;
  accounts_.emplace(sub_id, std::move(account));
  audit_.push_back({0, "sub_create", parent, sub_id, Money::Zero()});
  if (auto* ctr = creates_ctr_.load(std::memory_order_relaxed)) ctr->Inc();
  return Checkpoint();
}

Status Bank::Mint(const std::string& id, Money amount, std::int64_t now_us) {
  gm::MutexLock lock(&mu_);
  if (crashed_) return BankDown();
  if (!amount.is_positive())
    return Status::InvalidArgument("mint amount must be > 0");
  Account* account = Find(id);
  if (account == nullptr) return Status::NotFound("account: " + id);
  net::Writer record;
  record.WriteU8(kRecordMint);
  record.WriteString(id);
  record.WriteI64(amount.micros());
  record.WriteI64(now_us);
  GM_RETURN_IF_ERROR(Journal(record));
  account->balance += amount;
  total_minted_ += amount;
  audit_.push_back({now_us, "mint", "", id, amount});
  if (auto* ctr = mints_ctr_.load(std::memory_order_relaxed)) ctr->Inc();
  return Checkpoint();
}

Status Bank::ExecuteTransfer(const std::string& from, const std::string& to,
                             Money amount, std::int64_t now_us,
                             crypto::TransferReceipt* receipt) {
  Account* src = Find(from);
  Account* dst = Find(to);
  if (src == nullptr) return Status::NotFound("account: " + from);
  if (dst == nullptr) return Status::NotFound("account: " + to);
  if (!amount.is_positive())
    return Status::InvalidArgument("transfer amount must be > 0");
  if (src->balance < amount)
    return Status::FailedPrecondition(
        StrFormat("insufficient funds in %s: has %s, needs %s", from.c_str(),
                  FormatMoney(src->balance).c_str(),
                  FormatMoney(amount).c_str()));

  // Only an owner-signed transfer yields a receipt: it is the one a party
  // outside the bank (the broker, via the user's token) will check.
  const bool owner_signed = receipt != nullptr;
  if (owner_signed) {
    receipt->receipt_id = StrFormat(
        "rcpt-%06llu-%s", static_cast<unsigned long long>(next_receipt_),
        crypto::Sha256::HexDigest(from + "|" + to + "|" +
                                  std::to_string(next_receipt_))
            .substr(0, 12)
            .c_str());
    receipt->from_account = from;
    receipt->to_account = to;
    receipt->amount = amount;
    receipt->issued_at_us = now_us;
    receipt->bank_signature = keys_.Sign(receipt->SigningPayload());
  }

  // An internal record carries an empty receipt id and signature.
  net::Writer record;
  record.WriteU8(kRecordTransfer);
  record.WriteString(from);
  record.WriteString(to);
  record.WriteI64(amount.micros());
  record.WriteI64(now_us);
  record.WriteString(owner_signed ? receipt->receipt_id : std::string());
  record.WriteString(owner_signed ? receipt->bank_signature.Encode()
                                  : std::string());
  record.WriteBool(owner_signed);
  GM_RETURN_IF_ERROR(Journal(record));

  src->balance -= amount;
  dst->balance += amount;
  // Every transfer advances the counter, signed or not, so receipt numbers
  // and LedgerHash's "receipts|N" do not depend on which ones were signed.
  ++next_receipt_;
  if (owner_signed) {
    ++src->transfer_nonce;
    issued_receipts_.emplace(receipt->receipt_id, *receipt);
    if (auto* ctr = receipts_signed_ctr_.load(std::memory_order_relaxed))
      ctr->Inc();
  }
  audit_.push_back({now_us, "transfer", from, to, amount});
  if (auto* ctr = transfers_ctr_.load(std::memory_order_relaxed))
    ctr->Inc();
  if (auto* amounts = transfer_amount_.load(std::memory_order_relaxed))
    amounts->Observe(amount.dollars());
  return Checkpoint();
}

Result<crypto::TransferReceipt> Bank::Transfer(const std::string& from,
                                               const std::string& to,
                                               Money amount,
                                               const crypto::Signature& auth,
                                               std::int64_t now_us) {
  gm::MutexLock lock(&mu_);
  if (crashed_) return BankDown();
  Account* src = Find(from);
  if (src == nullptr) return Status::NotFound("account: " + from);
  if (!(src->owner_key == crypto::PublicKey())) {
    const std::string payload =
        TransferAuthPayload(from, to, amount, src->transfer_nonce);
    if (!src->owner_key.Verify(payload, auth))
      return Status::Unauthenticated("transfer authorization invalid");
  } else {
    return Status::PermissionDenied(
        "bank-managed account requires InternalTransfer");
  }
  crypto::TransferReceipt receipt;
  GM_RETURN_IF_ERROR(ExecuteTransfer(from, to, amount, now_us, &receipt));
  return receipt;
}

Status Bank::InternalTransfer(const std::string& from, const std::string& to,
                              Money amount, std::int64_t now_us) {
  gm::MutexLock lock(&mu_);
  if (crashed_) return BankDown();
  const Account* src = Find(from);
  if (src == nullptr) return Status::NotFound("account: " + from);
  if (!(src->owner_key == crypto::PublicKey()))
    return Status::PermissionDenied(
        "owner-keyed account requires a signed Transfer");
  return ExecuteTransfer(from, to, amount, now_us, /*receipt=*/nullptr);
}

Result<Money> Bank::Balance(const std::string& id) const {
  gm::MutexLock lock(&mu_);
  if (crashed_) return BankDown();
  const Account* account = Find(id);
  if (account == nullptr) return Status::NotFound("account: " + id);
  return account->balance;
}

Result<std::uint64_t> Bank::TransferNonce(const std::string& id) const {
  gm::MutexLock lock(&mu_);
  if (crashed_) return BankDown();
  const Account* account = Find(id);
  if (account == nullptr) return Status::NotFound("account: " + id);
  return account->transfer_nonce;
}

Result<crypto::PublicKey> Bank::OwnerKey(const std::string& id) const {
  gm::MutexLock lock(&mu_);
  if (crashed_) return BankDown();
  const Account* account = Find(id);
  if (account == nullptr) return Status::NotFound("account: " + id);
  return account->owner_key;
}

bool Bank::HasAccount(const std::string& id) const {
  gm::MutexLock lock(&mu_);
  return !crashed_ && Find(id) != nullptr;
}

Status Bank::VerifyReceipt(const crypto::TransferReceipt& receipt) const {
  gm::MutexLock lock(&mu_);
  if (crashed_) return BankDown();
  const auto it = issued_receipts_.find(receipt.receipt_id);
  if (it == issued_receipts_.end())
    return Status::NotFound("receipt not issued by this bank: " +
                            receipt.receipt_id);
  // Every field, signature bytes included, must equal the copy the bank
  // signed. That is at least as strict as re-verifying the signature, and
  // VerifyToken has already checked it against public_key().
  if (!(it->second == receipt))
    return Status::PermissionDenied("receipt does not match ledger");
  return Status::Ok();
}

Status Bank::CheckInvariants() const {
  gm::MutexLock lock(&mu_);
  if (crashed_) return BankDown();
  Money total;
  for (const auto& [id, account] : accounts_) {
    if (account.balance.is_negative())
      return Status::Internal("negative balance in " + id);
    total += account.balance;
  }
  if (total != total_minted_)
    return Status::Internal(
        StrFormat("conservation violated: balances %lld != minted %lld",
                  static_cast<long long>(total.micros()),
                  static_cast<long long>(total_minted_.micros())));
  return Status::Ok();
}

// ---------------------------------------------------------------------
// Durability

void Bank::ClearState() {
  accounts_.clear();
  issued_receipts_.clear();
  audit_.clear();
  total_minted_ = Money::Zero();
  next_receipt_ = 1;
}

void Bank::SimulateCrash() {
  gm::MutexLock lock(&mu_);
  // A crash loses everything in memory: the only way back is the log.
  ClearState();
  crashed_ = true;
}

Status Bank::Restart() {
  gm::MutexLock lock(&mu_);
  if (store_ == nullptr)
    return Status::FailedPrecondition(
        "bank has no durable store: ledger unrecoverable");
  crashed_ = false;
  const auto recovery = RecoverFromStoreLocked();
  if (!recovery.ok()) {
    crashed_ = true;
    return recovery.status();
  }
  return Status::Ok();
}

Result<store::RecoveryStats> Bank::RecoverFromStore() {
  gm::MutexLock lock(&mu_);
  return RecoverFromStoreLocked();
}

// mu_ is deliberately held across store_->Recover(*this): the store calls
// back into LoadSnapshot/ApplyRecord below, which rebuild the guarded
// ledger. Lock order bank (kBank) -> store (kStore) matches Checkpoint's.
Result<store::RecoveryStats> Bank::RecoverFromStoreLocked() {
  if (store_ == nullptr)
    return Status::FailedPrecondition("no store attached");
  ClearState();
  return store_->Recover(*this);
}

// Reached only via the store while mu_ is held (see class comment).
Status Bank::ApplyRecord(const Bytes& record) GM_NO_THREAD_SAFETY_ANALYSIS {
  net::Reader reader(record);
  GM_ASSIGN_OR_RETURN(const std::uint8_t kind, reader.ReadU8());
  switch (kind) {
    case kRecordCreate: {
      GM_ASSIGN_OR_RETURN(const std::string id, reader.ReadString());
      GM_ASSIGN_OR_RETURN(const std::string owner_hex, reader.ReadString());
      Account account;
      account.id = id;
      if (!owner_hex.empty()) {
        GM_ASSIGN_OR_RETURN(const crypto::U256 y,
                            crypto::U256::FromHex(owner_hex));
        account.owner_key = crypto::PublicKey(group_, y);
      }
      accounts_[id] = std::move(account);
      audit_.push_back({0, "create", "", id, Money::Zero()});
      return Status::Ok();
    }
    case kRecordSubCreate: {
      GM_ASSIGN_OR_RETURN(const std::string parent, reader.ReadString());
      GM_ASSIGN_OR_RETURN(const std::string sub_id, reader.ReadString());
      Account account;
      account.id = sub_id;
      account.parent = parent;
      accounts_[sub_id] = std::move(account);
      audit_.push_back({0, "sub_create", parent, sub_id, Money::Zero()});
      return Status::Ok();
    }
    case kRecordMint: {
      GM_ASSIGN_OR_RETURN(const std::string id, reader.ReadString());
      GM_ASSIGN_OR_RETURN(const std::int64_t amount_micros, reader.ReadI64());
      GM_ASSIGN_OR_RETURN(const std::int64_t at_us, reader.ReadI64());
      const Money amount = Money::FromMicros(amount_micros);
      Account* account = Find(id);
      if (account == nullptr)
        return Status::Internal("replay mint into unknown account " + id);
      account->balance += amount;
      total_minted_ += amount;
      audit_.push_back({at_us, "mint", "", id, amount});
      return Status::Ok();
    }
    case kRecordTransfer: {
      GM_ASSIGN_OR_RETURN(const std::string from, reader.ReadString());
      GM_ASSIGN_OR_RETURN(const std::string to, reader.ReadString());
      GM_ASSIGN_OR_RETURN(const std::int64_t amount_micros, reader.ReadI64());
      GM_ASSIGN_OR_RETURN(const std::int64_t at_us, reader.ReadI64());
      const Money amount = Money::FromMicros(amount_micros);
      GM_ASSIGN_OR_RETURN(const std::string receipt_id, reader.ReadString());
      GM_ASSIGN_OR_RETURN(const std::string sig, reader.ReadString());
      GM_ASSIGN_OR_RETURN(const bool owner_signed, reader.ReadBool());
      Account* src = Find(from);
      Account* dst = Find(to);
      if (src == nullptr || dst == nullptr)
        return Status::Internal("replay transfer with unknown account");
      if (src->balance < amount)
        return Status::Internal("replay transfer overdraws " + from);
      src->balance -= amount;
      dst->balance += amount;
      ++next_receipt_;
      audit_.push_back({at_us, "transfer", from, to, amount});
      // An internal record is unsigned; an older journal may still carry an
      // id and a signature for one, which nothing can present, so they are
      // dropped.
      if (!owner_signed) return Status::Ok();
      ++src->transfer_nonce;
      crypto::TransferReceipt receipt;
      receipt.receipt_id = receipt_id;
      receipt.from_account = from;
      receipt.to_account = to;
      receipt.amount = amount;
      receipt.issued_at_us = at_us;
      GM_ASSIGN_OR_RETURN(receipt.bank_signature,
                          crypto::Signature::Decode(sig));
      issued_receipts_[receipt_id] = std::move(receipt);
      return Status::Ok();
    }
    default:
      return Status::Internal(
          StrFormat("unknown bank journal record kind %u", kind));
  }
}

// Reached only via the store while mu_ is held (see class comment).
void Bank::WriteSnapshot(net::Writer& writer) const
    GM_NO_THREAD_SAFETY_ANALYSIS {
  writer.WriteVarint(kSnapshotVersion);
  writer.WriteVarint(accounts_.size());
  for (const auto& [id, account] : accounts_) {
    writer.WriteString(account.id);
    writer.WriteString(EncodeOwnerKey(account.owner_key));
    writer.WriteString(account.parent);
    writer.WriteI64(account.balance.micros());
    writer.WriteVarint(account.transfer_nonce);
  }
  writer.WriteI64(total_minted_.micros());
  writer.WriteVarint(next_receipt_);
  writer.WriteVarint(issued_receipts_.size());
  for (const auto& [id, receipt] : issued_receipts_) {
    writer.WriteString(receipt.receipt_id);
    writer.WriteString(receipt.from_account);
    writer.WriteString(receipt.to_account);
    writer.WriteI64(receipt.amount.micros());
    writer.WriteI64(receipt.issued_at_us);
    writer.WriteString(receipt.bank_signature.Encode());
  }
  writer.WriteVarint(audit_.size());
  for (const AuditEntry& entry : audit_) {
    writer.WriteI64(entry.at_us);
    writer.WriteString(entry.kind);
    writer.WriteString(entry.from);
    writer.WriteString(entry.to);
    writer.WriteI64(entry.amount.micros());
  }
}

// Reached only via the store while mu_ is held (see class comment).
Status Bank::LoadSnapshot(net::Reader& reader) GM_NO_THREAD_SAFETY_ANALYSIS {
  GM_ASSIGN_OR_RETURN(const std::uint64_t version, reader.ReadVarint());
  if (version != kSnapshotVersion)
    return Status::Internal(
        StrFormat("unsupported bank snapshot version %llu",
                  static_cast<unsigned long long>(version)));
  ClearState();
  GM_ASSIGN_OR_RETURN(const std::uint64_t account_count, reader.ReadVarint());
  for (std::uint64_t i = 0; i < account_count; ++i) {
    Account account;
    GM_ASSIGN_OR_RETURN(account.id, reader.ReadString());
    GM_ASSIGN_OR_RETURN(const std::string owner_hex, reader.ReadString());
    if (!owner_hex.empty()) {
      GM_ASSIGN_OR_RETURN(const crypto::U256 y,
                          crypto::U256::FromHex(owner_hex));
      account.owner_key = crypto::PublicKey(group_, y);
    }
    GM_ASSIGN_OR_RETURN(account.parent, reader.ReadString());
    GM_ASSIGN_OR_RETURN(const std::int64_t balance_micros, reader.ReadI64());
    account.balance = Money::FromMicros(balance_micros);
    GM_ASSIGN_OR_RETURN(account.transfer_nonce, reader.ReadVarint());
    accounts_[account.id] = std::move(account);
  }
  GM_ASSIGN_OR_RETURN(const std::int64_t minted_micros, reader.ReadI64());
  total_minted_ = Money::FromMicros(minted_micros);
  GM_ASSIGN_OR_RETURN(next_receipt_, reader.ReadVarint());
  GM_ASSIGN_OR_RETURN(const std::uint64_t receipt_count, reader.ReadVarint());
  for (std::uint64_t i = 0; i < receipt_count; ++i) {
    crypto::TransferReceipt receipt;
    GM_ASSIGN_OR_RETURN(receipt.receipt_id, reader.ReadString());
    GM_ASSIGN_OR_RETURN(receipt.from_account, reader.ReadString());
    GM_ASSIGN_OR_RETURN(receipt.to_account, reader.ReadString());
    GM_ASSIGN_OR_RETURN(const std::int64_t receipt_micros, reader.ReadI64());
    receipt.amount = Money::FromMicros(receipt_micros);
    GM_ASSIGN_OR_RETURN(receipt.issued_at_us, reader.ReadI64());
    GM_ASSIGN_OR_RETURN(const std::string sig, reader.ReadString());
    GM_ASSIGN_OR_RETURN(receipt.bank_signature, crypto::Signature::Decode(sig));
    issued_receipts_[receipt.receipt_id] = std::move(receipt);
  }
  GM_ASSIGN_OR_RETURN(const std::uint64_t audit_count, reader.ReadVarint());
  audit_.reserve(audit_count);
  for (std::uint64_t i = 0; i < audit_count; ++i) {
    AuditEntry entry;
    GM_ASSIGN_OR_RETURN(entry.at_us, reader.ReadI64());
    GM_ASSIGN_OR_RETURN(entry.kind, reader.ReadString());
    GM_ASSIGN_OR_RETURN(entry.from, reader.ReadString());
    GM_ASSIGN_OR_RETURN(entry.to, reader.ReadString());
    GM_ASSIGN_OR_RETURN(const std::int64_t entry_micros, reader.ReadI64());
    entry.amount = Money::FromMicros(entry_micros);
    audit_.push_back(std::move(entry));
  }
  return Status::Ok();
}

std::string Bank::LedgerHash() const {
  gm::MutexLock lock(&mu_);
  std::string canonical;
  for (const auto& [id, account] : accounts_) {
    canonical += StrFormat(
        "acct|%s|%s|%lld|%llu|%s\n", account.id.c_str(),
        account.parent.c_str(), static_cast<long long>(account.balance.micros()),
        static_cast<unsigned long long>(account.transfer_nonce),
        EncodeOwnerKey(account.owner_key).c_str());
  }
  canonical += StrFormat("minted|%lld|receipts|%llu\n",
                         static_cast<long long>(total_minted_.micros()),
                         static_cast<unsigned long long>(next_receipt_));
  return crypto::Sha256::HexDigest(canonical);
}

}  // namespace gm::bank
