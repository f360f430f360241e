#include "bank/federation/shard.hpp"

#include <charconv>
#include <string_view>

#include "common/bytes.hpp"
#include "common/strings.hpp"
#include "crypto/sha256.hpp"
#include "net/serialize.hpp"

namespace gm::bank::federation {
namespace {

// Journal record kinds. The payload layout per kind is defined by the
// matching journal-site/ApplyRecord pair below; bump kSnapshotVersion
// when the snapshot layout changes.
enum RecordKind : std::uint8_t {
  kRecordCreate = 1,
  kRecordMint = 2,
  kRecordTransfer = 3,
  kRecordPrepare = 4,
  kRecordCredit = 5,
  kRecordRelease = 6,
  kRecordAbort = 7,
};

constexpr std::uint64_t kSnapshotVersion = 1;

// Feeds `value` to `hasher` in decimal: for a signed value the bytes
// printf's %lld gives, for an unsigned one those of %llu.
template <typename Int>
void UpdateDecimal(crypto::Sha256& hasher, Int value) {
  char digits[24];
  const char* end = std::to_chars(digits, digits + sizeof(digits), value).ptr;
  hasher.Update(
      std::string_view(digits, static_cast<std::size_t>(end - digits)));
}

const Status& ShardDown() {
  static const Status status =
      Status::Unavailable("bank shard is down (crashed; awaiting restart)");
  return status;
}

}  // namespace

BankShard::BankShard(std::size_t index) : index_(index) {}

ShardAccount* BankShard::Find(const std::string& id) {
  const auto it = accounts_.find(id);
  return it == accounts_.end() ? nullptr : &it->second;
}

const ShardAccount* BankShard::Find(const std::string& id) const {
  const auto it = accounts_.find(id);
  return it == accounts_.end() ? nullptr : &it->second;
}

void BankShard::AttachStore(store::DurableStore* s) {
  gm::MutexLock lock(&mu_);
  store_ = s;
}

Status BankShard::Journal(const net::Writer& writer) {
  if (store_ == nullptr) return Status::Ok();
  return store_->Append(writer.data());
}

// Auto-checkpoint AFTER the mutation is applied (same reasoning as
// bank::Bank::Checkpoint: a snapshot between Journal and the in-memory
// update would silently drop the record on recovery).
Status BankShard::Checkpoint() {
  if (store_ == nullptr) return Status::Ok();
  return store_->MaybeSnapshot(*this);
}

void BankShard::AttachTelemetry(telemetry::Telemetry* telemetry) {
  if (telemetry == nullptr) {
    transfers_ctr_.store(nullptr, std::memory_order_relaxed);
    prepares_ctr_.store(nullptr, std::memory_order_relaxed);
    credits_ctr_.store(nullptr, std::memory_order_relaxed);
    aborts_ctr_.store(nullptr, std::memory_order_relaxed);
    return;
  }
  const std::string prefix = "fed.shard" + std::to_string(index_) + ".";
  transfers_ctr_.store(telemetry->metrics().GetCounter(prefix + "transfers"),
                       std::memory_order_relaxed);
  prepares_ctr_.store(telemetry->metrics().GetCounter(prefix + "prepares"),
                      std::memory_order_relaxed);
  credits_ctr_.store(telemetry->metrics().GetCounter(prefix + "credits"),
                     std::memory_order_relaxed);
  aborts_ctr_.store(telemetry->metrics().GetCounter(prefix + "aborts"),
                    std::memory_order_relaxed);
}

Status BankShard::CreateAccount(const std::string& id,
                                Money initial_balance) {
  gm::MutexLock lock(&mu_);
  if (crashed_) return ShardDown();
  if (id.empty()) return Status::InvalidArgument("empty account id");
  if (initial_balance.is_negative())
    return Status::InvalidArgument("negative initial balance");
  if (Find(id) != nullptr)
    return Status::AlreadyExists("account exists: " + id);
  net::Writer record;
  record.WriteU8(kRecordCreate);
  record.WriteString(id);
  record.WriteI64(initial_balance.micros());
  GM_RETURN_IF_ERROR(Journal(record));
  accounts_.emplace(id, ShardAccount{initial_balance});
  minted_ += initial_balance;
  return Checkpoint();
}

Status BankShard::Mint(const std::string& id, Money amount,
                       std::int64_t now_us) {
  gm::MutexLock lock(&mu_);
  if (crashed_) return ShardDown();
  if (!amount.is_positive())
    return Status::InvalidArgument("mint amount must be > 0");
  ShardAccount* account = Find(id);
  if (account == nullptr) return Status::NotFound("account: " + id);
  net::Writer record;
  record.WriteU8(kRecordMint);
  record.WriteString(id);
  record.WriteI64(amount.micros());
  record.WriteI64(now_us);
  GM_RETURN_IF_ERROR(Journal(record));
  account->balance += amount;
  minted_ += amount;
  return Checkpoint();
}

Status BankShard::Transfer(const std::string& from, const std::string& to,
                           Money amount, std::int64_t now_us) {
  gm::MutexLock lock(&mu_);
  if (crashed_) return ShardDown();
  ShardAccount* src = Find(from);
  ShardAccount* dst = Find(to);
  if (src == nullptr) return Status::NotFound("account: " + from);
  if (dst == nullptr) return Status::NotFound("account: " + to);
  if (!amount.is_positive())
    return Status::InvalidArgument("transfer amount must be > 0");
  if (src->balance < amount)
    return Status::FailedPrecondition(
        StrFormat("insufficient funds in %s: has %s, needs %s", from.c_str(),
                  FormatMoney(src->balance).c_str(),
                  FormatMoney(amount).c_str()));
  net::Writer record;
  record.WriteU8(kRecordTransfer);
  record.WriteString(from);
  record.WriteString(to);
  record.WriteI64(amount.micros());
  record.WriteI64(now_us);
  GM_RETURN_IF_ERROR(Journal(record));
  src->balance -= amount;
  dst->balance += amount;
  if (auto* ctr = transfers_ctr_.load(std::memory_order_relaxed))
    ctr->Inc();
  return Checkpoint();
}

Result<Money> BankShard::Balance(const std::string& id) const {
  gm::MutexLock lock(&mu_);
  if (crashed_) return ShardDown();
  const ShardAccount* account = Find(id);
  if (account == nullptr) return Status::NotFound("account: " + id);
  return account->balance;
}

bool BankShard::HasAccount(const std::string& id) const {
  gm::MutexLock lock(&mu_);
  return !crashed_ && Find(id) != nullptr;
}

// ---------------------------------------------------------------------
// Two-phase settlement

void BankShard::PrepareDebits(std::span<SettlementLeg> legs,
                              std::int64_t now_us) {
  gm::MutexLock lock(&mu_);
  for (SettlementLeg& leg : legs) {
    if (leg.status.ok()) leg.status.Update(PrepareDebitLocked(leg, now_us));
  }
}

void BankShard::ApplyCredits(std::span<SettlementLeg> legs,
                             std::int64_t now_us) {
  gm::MutexLock lock(&mu_);
  for (SettlementLeg& leg : legs) {
    if (leg.status.ok()) leg.status.Update(ApplyCreditLocked(leg, now_us));
  }
}

void BankShard::ReleaseHolds(std::span<SettlementLeg> legs,
                             std::int64_t now_us) {
  gm::MutexLock lock(&mu_);
  for (SettlementLeg& leg : legs) {
    if (leg.status.ok())
      leg.status.Update(ReleaseHoldLocked(leg.settlement_id, now_us));
  }
}

Status BankShard::PrepareDebitLocked(SettlementLeg& leg,
                                     std::int64_t now_us) {
  if (crashed_) return ShardDown();
  const std::string& from = *leg.from;
  ShardAccount* src = Find(from);
  if (src == nullptr) return Status::NotFound("account: " + from);
  if (!leg.amount.is_positive())
    return Status::InvalidArgument("settlement amount must be > 0");
  if (src->balance < leg.amount)
    return Status::FailedPrecondition(
        StrFormat("insufficient funds in %s: has %s, needs %s", from.c_str(),
                  FormatMoney(src->balance).c_str(),
                  FormatMoney(leg.amount).c_str()));
  // The id is minted under the shard lock, so ids are dense per shard and
  // deterministic whenever the per-shard prepare order is deterministic
  // (the parallel runner applies one merge group per debtor shard).
  std::string settlement_id =
      StrFormat("s%zu-%llu", index_,
                static_cast<unsigned long long>(next_settlement_seq_));
  net::Writer record;
  record.WriteU8(kRecordPrepare);
  record.WriteString(settlement_id);
  record.WriteString(from);
  record.WriteString(*leg.to);
  record.WriteI64(leg.amount.micros());
  record.WriteI64(now_us);
  GM_RETURN_IF_ERROR(Journal(record));
  src->balance -= leg.amount;
  SettlementHold hold;
  hold.settlement_id = settlement_id;
  hold.from = from;
  hold.to = *leg.to;
  hold.amount = leg.amount;
  hold.prepared_at_us = now_us;
  holds_.emplace(settlement_id, std::move(hold));
  ++next_settlement_seq_;
  leg.settlement_id = std::move(settlement_id);
  if (auto* ctr = prepares_ctr_.load(std::memory_order_relaxed))
    ctr->Inc();
  return Checkpoint();
}

Status BankShard::ApplyCreditLocked(const SettlementLeg& leg,
                                    std::int64_t now_us) {
  if (crashed_) return ShardDown();
  if (applied_.find(leg.settlement_id) != applied_.end())
    return Status::Ok();  // exactly-once: retried credit is a no-op
  ShardAccount* dst = Find(*leg.to);
  if (dst == nullptr) return Status::NotFound("account: " + *leg.to);
  if (!leg.amount.is_positive())
    return Status::InvalidArgument("settlement amount must be > 0");
  net::Writer record;
  record.WriteU8(kRecordCredit);
  record.WriteString(leg.settlement_id);
  record.WriteString(*leg.to);
  record.WriteI64(leg.amount.micros());
  record.WriteI64(now_us);
  GM_RETURN_IF_ERROR(Journal(record));
  dst->balance += leg.amount;
  settled_in_ += leg.amount;
  applied_.emplace(leg.settlement_id, leg.amount);
  if (auto* ctr = credits_ctr_.load(std::memory_order_relaxed))
    ctr->Inc();
  return Checkpoint();
}

Status BankShard::ReleaseHoldLocked(const std::string& settlement_id,
                                    std::int64_t now_us) {
  if (crashed_) return ShardDown();
  const auto it = holds_.find(settlement_id);
  if (it == holds_.end())
    return Status::NotFound("no open hold: " + settlement_id);
  net::Writer record;
  record.WriteU8(kRecordRelease);
  record.WriteString(settlement_id);
  record.WriteI64(now_us);
  GM_RETURN_IF_ERROR(Journal(record));
  settled_out_ += it->second.amount;
  holds_.erase(it);
  return Checkpoint();
}

Status BankShard::AbortHold(const std::string& settlement_id,
                            std::int64_t now_us) {
  gm::MutexLock lock(&mu_);
  if (crashed_) return ShardDown();
  const auto it = holds_.find(settlement_id);
  if (it == holds_.end())
    return Status::NotFound("no open hold: " + settlement_id);
  ShardAccount* src = Find(it->second.from);
  if (src == nullptr)
    return Status::Internal("hold refers to unknown account " +
                            it->second.from);
  net::Writer record;
  record.WriteU8(kRecordAbort);
  record.WriteString(settlement_id);
  record.WriteI64(now_us);
  GM_RETURN_IF_ERROR(Journal(record));
  src->balance += it->second.amount;
  holds_.erase(it);
  if (auto* ctr = aborts_ctr_.load(std::memory_order_relaxed))
    ctr->Inc();
  return Checkpoint();
}

bool BankShard::HasAppliedSettlement(const std::string& settlement_id) const {
  gm::MutexLock lock(&mu_);
  return !crashed_ && applied_.find(settlement_id) != applied_.end();
}

std::vector<SettlementHold> BankShard::OpenHolds() const {
  gm::MutexLock lock(&mu_);
  std::vector<SettlementHold> holds;
  holds.reserve(holds_.size());
  for (const auto& [id, hold] : holds_) holds.push_back(hold);
  return holds;
}

std::vector<std::string> BankShard::AppliedSettlementIds() const {
  gm::MutexLock lock(&mu_);
  std::vector<std::string> ids;
  ids.reserve(applied_.size());
  for (const auto& [id, amount] : applied_) ids.push_back(id);
  return ids;
}

ShardAudit BankShard::Audit() const {
  gm::MutexLock lock(&mu_);
  ShardAudit audit;
  ShardSnapshotInfo& info = audit.info;
  info.index = index_;
  info.crashed = crashed_;
  if (crashed_) {
    audit.invariant = ShardDown();
    return audit;
  }
  // One pass totals the shard and checks it; the first fault found in
  // walk order is the verdict.
  info.accounts = accounts_.size();
  for (const auto& [id, account] : accounts_) {
    if (account.balance.is_negative())
      audit.invariant.Update(Status::Internal("negative balance in " + id));
    info.balance_total += account.balance;
  }
  info.open_holds = holds_.size();
  audit.open_holds.reserve(holds_.size());
  for (const auto& [id, hold] : holds_) {
    if (!hold.amount.is_positive())
      audit.invariant.Update(Status::Internal("non-positive hold " + id));
    info.hold_total += hold.amount;
    audit.open_holds.push_back(hold);
  }
  info.applied_settlements = applied_.size();
  info.minted = minted_;
  info.settled_in = settled_in_;
  info.settled_out = settled_out_;
  const Money total = info.balance_total + info.hold_total;
  const Money expected = minted_ + settled_in_ - settled_out_;
  if (total != expected)
    audit.invariant.Update(Status::Internal(StrFormat(
        "shard %zu conservation violated: balances+holds %lld != "
        "minted+in-out %lld",
        index_, static_cast<long long>(total.micros()),
        static_cast<long long>(expected.micros()))));
  return audit;
}

// ---------------------------------------------------------------------
// Durability

void BankShard::ClearState() {
  accounts_.clear();
  holds_.clear();
  applied_.clear();
  minted_ = Money::Zero();
  settled_in_ = Money::Zero();
  settled_out_ = Money::Zero();
  next_settlement_seq_ = 1;
}

void BankShard::SimulateCrash() {
  gm::MutexLock lock(&mu_);
  ClearState();
  crashed_ = true;
}

Status BankShard::Restart() {
  gm::MutexLock lock(&mu_);
  if (store_ == nullptr)
    return Status::FailedPrecondition(
        "bank shard has no durable store: ledger unrecoverable");
  crashed_ = false;
  const auto recovery = RecoverFromStoreLocked();
  if (!recovery.ok()) {
    crashed_ = true;
    return recovery.status();
  }
  return Status::Ok();
}

Result<store::RecoveryStats> BankShard::RecoverFromStore() {
  gm::MutexLock lock(&mu_);
  return RecoverFromStoreLocked();
}

// mu_ is deliberately held across store_->Recover(*this): the store calls
// back into LoadSnapshot/ApplyRecord below. Lock order shard (kBankShard)
// -> store (kStore) matches Checkpoint's.
Result<store::RecoveryStats> BankShard::RecoverFromStoreLocked() {
  if (store_ == nullptr)
    return Status::FailedPrecondition("no store attached");
  ClearState();
  return store_->Recover(*this);
}

// Reached only via the store while mu_ is held (see class comment).
Status BankShard::ApplyRecord(const Bytes& record)
    GM_NO_THREAD_SAFETY_ANALYSIS {
  net::Reader reader(record);
  GM_ASSIGN_OR_RETURN(const std::uint8_t kind, reader.ReadU8());
  switch (kind) {
    case kRecordCreate: {
      GM_ASSIGN_OR_RETURN(const std::string id, reader.ReadString());
      GM_ASSIGN_OR_RETURN(const std::int64_t micros, reader.ReadI64());
      const Money balance = Money::FromMicros(micros);
      minted_ += balance;
      accounts_[id] = ShardAccount{balance};
      return Status::Ok();
    }
    case kRecordMint: {
      GM_ASSIGN_OR_RETURN(const std::string id, reader.ReadString());
      GM_ASSIGN_OR_RETURN(const std::int64_t micros, reader.ReadI64());
      GM_ASSIGN_OR_RETURN(const std::int64_t at_us, reader.ReadI64());
      (void)at_us;
      ShardAccount* account = Find(id);
      if (account == nullptr)
        return Status::Internal("replay mint into unknown account " + id);
      const Money amount = Money::FromMicros(micros);
      account->balance += amount;
      minted_ += amount;
      return Status::Ok();
    }
    case kRecordTransfer: {
      GM_ASSIGN_OR_RETURN(const std::string from, reader.ReadString());
      GM_ASSIGN_OR_RETURN(const std::string to, reader.ReadString());
      GM_ASSIGN_OR_RETURN(const std::int64_t micros, reader.ReadI64());
      GM_ASSIGN_OR_RETURN(const std::int64_t at_us, reader.ReadI64());
      (void)at_us;
      ShardAccount* src = Find(from);
      ShardAccount* dst = Find(to);
      if (src == nullptr || dst == nullptr)
        return Status::Internal("replay transfer with unknown account");
      const Money amount = Money::FromMicros(micros);
      if (src->balance < amount)
        return Status::Internal("replay transfer overdraws " + from);
      src->balance -= amount;
      dst->balance += amount;
      return Status::Ok();
    }
    case kRecordPrepare: {
      GM_ASSIGN_OR_RETURN(const std::string sid, reader.ReadString());
      GM_ASSIGN_OR_RETURN(const std::string from, reader.ReadString());
      GM_ASSIGN_OR_RETURN(const std::string to, reader.ReadString());
      GM_ASSIGN_OR_RETURN(const std::int64_t micros, reader.ReadI64());
      GM_ASSIGN_OR_RETURN(const std::int64_t at_us, reader.ReadI64());
      ShardAccount* src = Find(from);
      if (src == nullptr)
        return Status::Internal("replay prepare on unknown account " + from);
      const Money amount = Money::FromMicros(micros);
      if (src->balance < amount)
        return Status::Internal("replay prepare overdraws " + from);
      src->balance -= amount;
      SettlementHold hold;
      hold.settlement_id = sid;
      hold.from = from;
      hold.to = to;
      hold.amount = amount;
      hold.prepared_at_us = at_us;
      holds_[sid] = std::move(hold);
      ++next_settlement_seq_;
      return Status::Ok();
    }
    case kRecordCredit: {
      GM_ASSIGN_OR_RETURN(const std::string sid, reader.ReadString());
      GM_ASSIGN_OR_RETURN(const std::string to, reader.ReadString());
      GM_ASSIGN_OR_RETURN(const std::int64_t micros, reader.ReadI64());
      GM_ASSIGN_OR_RETURN(const std::int64_t at_us, reader.ReadI64());
      (void)at_us;
      ShardAccount* dst = Find(to);
      if (dst == nullptr)
        return Status::Internal("replay credit into unknown account " + to);
      const Money amount = Money::FromMicros(micros);
      dst->balance += amount;
      settled_in_ += amount;
      applied_[sid] = amount;
      return Status::Ok();
    }
    case kRecordRelease: {
      GM_ASSIGN_OR_RETURN(const std::string sid, reader.ReadString());
      const auto it = holds_.find(sid);
      if (it == holds_.end())
        return Status::Internal("replay release of unknown hold " + sid);
      settled_out_ += it->second.amount;
      holds_.erase(it);
      return Status::Ok();
    }
    case kRecordAbort: {
      GM_ASSIGN_OR_RETURN(const std::string sid, reader.ReadString());
      const auto it = holds_.find(sid);
      if (it == holds_.end())
        return Status::Internal("replay abort of unknown hold " + sid);
      ShardAccount* src = Find(it->second.from);
      if (src == nullptr)
        return Status::Internal("replay abort into unknown account");
      src->balance += it->second.amount;
      holds_.erase(it);
      return Status::Ok();
    }
    default:
      return Status::Internal(
          StrFormat("unknown shard journal record kind %u", kind));
  }
}

// Reached only via the store while mu_ is held (see class comment).
void BankShard::WriteSnapshot(net::Writer& writer) const
    GM_NO_THREAD_SAFETY_ANALYSIS {
  writer.WriteVarint(kSnapshotVersion);
  writer.WriteVarint(accounts_.size());
  for (const auto& [id, account] : accounts_) {
    writer.WriteString(id);
    writer.WriteI64(account.balance.micros());
  }
  writer.WriteVarint(holds_.size());
  for (const auto& [id, hold] : holds_) {
    writer.WriteString(hold.settlement_id);
    writer.WriteString(hold.from);
    writer.WriteString(hold.to);
    writer.WriteI64(hold.amount.micros());
    writer.WriteI64(hold.prepared_at_us);
  }
  writer.WriteVarint(applied_.size());
  for (const auto& [id, amount] : applied_) {
    writer.WriteString(id);
    writer.WriteI64(amount.micros());
  }
  writer.WriteI64(minted_.micros());
  writer.WriteI64(settled_in_.micros());
  writer.WriteI64(settled_out_.micros());
  writer.WriteVarint(next_settlement_seq_);
}

// Reached only via the store while mu_ is held (see class comment).
Status BankShard::LoadSnapshot(net::Reader& reader)
    GM_NO_THREAD_SAFETY_ANALYSIS {
  GM_ASSIGN_OR_RETURN(const std::uint64_t version, reader.ReadVarint());
  if (version != kSnapshotVersion)
    return Status::Internal(
        StrFormat("unsupported shard snapshot version %llu",
                  static_cast<unsigned long long>(version)));
  ClearState();
  GM_ASSIGN_OR_RETURN(const std::uint64_t account_count, reader.ReadVarint());
  for (std::uint64_t i = 0; i < account_count; ++i) {
    GM_ASSIGN_OR_RETURN(std::string id, reader.ReadString());
    GM_ASSIGN_OR_RETURN(const std::int64_t micros, reader.ReadI64());
    accounts_[std::move(id)] = ShardAccount{Money::FromMicros(micros)};
  }
  GM_ASSIGN_OR_RETURN(const std::uint64_t hold_count, reader.ReadVarint());
  for (std::uint64_t i = 0; i < hold_count; ++i) {
    SettlementHold hold;
    GM_ASSIGN_OR_RETURN(hold.settlement_id, reader.ReadString());
    GM_ASSIGN_OR_RETURN(hold.from, reader.ReadString());
    GM_ASSIGN_OR_RETURN(hold.to, reader.ReadString());
    GM_ASSIGN_OR_RETURN(const std::int64_t micros, reader.ReadI64());
    hold.amount = Money::FromMicros(micros);
    GM_ASSIGN_OR_RETURN(hold.prepared_at_us, reader.ReadI64());
    holds_[hold.settlement_id] = std::move(hold);
  }
  GM_ASSIGN_OR_RETURN(const std::uint64_t applied_count, reader.ReadVarint());
  for (std::uint64_t i = 0; i < applied_count; ++i) {
    GM_ASSIGN_OR_RETURN(const std::string sid, reader.ReadString());
    GM_ASSIGN_OR_RETURN(const std::int64_t micros, reader.ReadI64());
    applied_[sid] = Money::FromMicros(micros);
  }
  GM_ASSIGN_OR_RETURN(const std::int64_t minted, reader.ReadI64());
  minted_ = Money::FromMicros(minted);
  GM_ASSIGN_OR_RETURN(const std::int64_t in, reader.ReadI64());
  settled_in_ = Money::FromMicros(in);
  GM_ASSIGN_OR_RETURN(const std::int64_t out, reader.ReadI64());
  settled_out_ = Money::FromMicros(out);
  GM_ASSIGN_OR_RETURN(next_settlement_seq_, reader.ReadVarint());
  return Status::Ok();
}

std::string BankShard::LedgerHash() const {
  gm::MutexLock lock(&mu_);
  // Streams the canonical text field by field instead of building it.
  // Its bytes must stay those of a printf rendering (ids with %s,
  // integers with %lld, the sequence with %llu) so recorded hashes stay
  // valid; BankShardTest.LedgerHashIsShaOfCanonicalText pins them. Ids go
  // in through c_str() because %s stops at a NUL.
  crypto::Sha256 hasher;
  for (const auto& [id, account] : accounts_) {
    hasher.Update("acct|");
    hasher.Update(id.c_str());
    hasher.Update("|");
    UpdateDecimal(hasher, account.balance.micros());
    hasher.Update("\n");
  }
  for (const auto& [id, hold] : holds_) {
    hasher.Update("hold|");
    hasher.Update(hold.settlement_id.c_str());
    hasher.Update("|");
    hasher.Update(hold.from.c_str());
    hasher.Update("|");
    hasher.Update(hold.to.c_str());
    hasher.Update("|");
    UpdateDecimal(hasher, hold.amount.micros());
    hasher.Update("\n");
  }
  for (const auto& [id, amount] : applied_) {
    hasher.Update("applied|");
    hasher.Update(id.c_str());
    hasher.Update("|");
    UpdateDecimal(hasher, amount.micros());
    hasher.Update("\n");
  }
  hasher.Update("minted|");
  UpdateDecimal(hasher, minted_.micros());
  hasher.Update("|in|");
  UpdateDecimal(hasher, settled_in_.micros());
  hasher.Update("|out|");
  UpdateDecimal(hasher, settled_out_.micros());
  hasher.Update("|seq|");
  UpdateDecimal(hasher, next_settlement_seq_);
  hasher.Update("\n");
  const crypto::Sha256::Digest digest = hasher.Finalize();
  return HexEncode(digest.data(), digest.size());
}

}  // namespace gm::bank::federation
