// Durability and crash-recovery tests for the Bank's write-ahead journal:
// every ledger mutation must survive a crash, replay must be deterministic
// (same log => identical ledger hash), and money is conserved to the
// micro-dollar across recovery.
#include <gtest/gtest.h>

#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include "bank/bank.hpp"
#include "crypto/modmath.hpp"
#include "net/serialize.hpp"
#include "store/store.hpp"

namespace gm::bank {
namespace {

namespace fs = std::filesystem;

fs::path FreshDir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / ("gm_bankdur_" + name);
  fs::remove_all(dir);
  return dir;
}

class BankDurabilityTest : public ::testing::Test {
 protected:
  BankDurabilityTest()
      : alice_(crypto::KeyPair::Generate(crypto::TestGroup(), rng_)),
        bob_(crypto::KeyPair::Generate(crypto::TestGroup(), rng_)) {}

  std::unique_ptr<store::DurableStore> OpenStore(const fs::path& dir,
                                                 store::StoreOptions options = {}) {
    auto store = store::DurableStore::Open(dir.string(), options);
    EXPECT_TRUE(store.ok()) << store.status().message();
    return std::move(*store);
  }

  // A bank attached to `store`, with alice/bob funded.
  std::unique_ptr<Bank> MakeBank(store::DurableStore* store) {
    auto bank = std::make_unique<Bank>(crypto::TestGroup(), 42);
    if (store != nullptr) bank->AttachStore(store);
    EXPECT_TRUE(bank->CreateAccount("alice", alice_.public_key()).ok());
    EXPECT_TRUE(bank->CreateAccount("bob", bob_.public_key()).ok());
    EXPECT_TRUE(bank->Mint("alice", Money::Dollars(1000), 0).ok());
    return bank;
  }

  crypto::Signature Authorize(Bank& bank, const crypto::KeyPair& keys,
                              const std::string& from, const std::string& to,
                              Money amount) {
    const auto nonce = bank.TransferNonce(from);
    EXPECT_TRUE(nonce.ok());
    return keys.Sign(TransferAuthPayload(from, to, amount, *nonce), rng_);
  }

  Rng rng_{7};
  crypto::KeyPair alice_;
  crypto::KeyPair bob_;
};

TEST_F(BankDurabilityTest, LedgerSurvivesReopenFromLog) {
  const fs::path dir = FreshDir("reopen");
  std::string hash_before;
  {
    auto store = OpenStore(dir);
    auto bank = MakeBank(store.get());
    const auto auth =
        Authorize(*bank, alice_, "alice", "bob", Money::Dollars(250));
    ASSERT_TRUE(
        bank->Transfer("alice", "bob", Money::Dollars(250), auth, 1000).ok());
    ASSERT_TRUE(bank->CreateSubAccount("bob", "bob/escrow").ok());
    hash_before = bank->LedgerHash();
  }
  // A brand-new process: fresh Bank object, same directory.
  auto store = OpenStore(dir);
  Bank recovered(crypto::TestGroup(), 42);
  recovered.AttachStore(store.get());
  auto stats = recovered.RecoverFromStore();
  ASSERT_TRUE(stats.ok()) << stats.status().message();
  EXPECT_GT(stats->replayed_records, 0u);
  EXPECT_EQ(recovered.LedgerHash(), hash_before);
  EXPECT_EQ(recovered.Balance("alice").value(), Money::Dollars(750));
  EXPECT_EQ(recovered.Balance("bob").value(), Money::Dollars(250));
  EXPECT_TRUE(recovered.HasAccount("bob/escrow"));
  EXPECT_TRUE(recovered.CheckInvariants().ok());
}

TEST_F(BankDurabilityTest, CrashWipesStateAndRestartRestoresExactLedger) {
  const fs::path dir = FreshDir("crash");
  auto store = OpenStore(dir);
  auto bank = MakeBank(store.get());
  const auto auth =
      Authorize(*bank, alice_, "alice", "bob", Money::Dollars(100));
  ASSERT_TRUE(
      bank->Transfer("alice", "bob", Money::Dollars(100), auth, 5).ok());
  const std::string hash_before = bank->LedgerHash();
  const std::uint64_t nonce_before = bank->TransferNonce("alice").value();

  bank->SimulateCrash();
  EXPECT_TRUE(bank->crashed());
  // Every call fails Unavailable while down; no state is visible.
  EXPECT_FALSE(bank->HasAccount("alice"));
  EXPECT_EQ(bank->Balance("alice").status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(bank->Mint("alice", Money::FromMicros(1), 0).code(),
            StatusCode::kUnavailable);

  ASSERT_TRUE(bank->Restart().ok());
  EXPECT_FALSE(bank->crashed());
  EXPECT_EQ(bank->LedgerHash(), hash_before);
  EXPECT_EQ(bank->TransferNonce("alice").value(), nonce_before);
  EXPECT_TRUE(bank->CheckInvariants().ok());

  // The recovered bank keeps working: nonce state supports new transfers.
  const auto auth2 =
      Authorize(*bank, alice_, "alice", "bob", Money::Dollars(1));
  EXPECT_TRUE(
      bank->Transfer("alice", "bob", Money::Dollars(1), auth2, 6).ok());
}

TEST_F(BankDurabilityTest, ReceiptsVerifiableAfterRecovery) {
  const fs::path dir = FreshDir("receipts");
  auto store = OpenStore(dir);
  auto bank = MakeBank(store.get());
  const auto auth =
      Authorize(*bank, alice_, "alice", "bob", Money::Dollars(10));
  const auto receipt =
      bank->Transfer("alice", "bob", Money::Dollars(10), auth, 9);
  ASSERT_TRUE(receipt.ok());

  bank->SimulateCrash();
  ASSERT_TRUE(bank->Restart().ok());
  EXPECT_TRUE(bank->VerifyReceipt(*receipt).ok());
}

TEST_F(BankDurabilityTest, SnapshotPlusTailRecoversSameHash) {
  const fs::path dir = FreshDir("snapshot");
  store::StoreOptions options;
  options.snapshot_every_records = 8;  // checkpoint mid-history
  auto store = OpenStore(dir, options);
  auto bank = MakeBank(store.get());
  for (int i = 0; i < 20; ++i) {
    const Money amount = Money::Dollars(1 + i % 5);
    const auto auth = Authorize(*bank, alice_, "alice", "bob", amount);
    ASSERT_TRUE(bank->Transfer("alice", "bob", amount, auth, i).ok());
  }
  ASSERT_GT(store->stats().snapshots_written, 0u);
  const std::string hash_before = bank->LedgerHash();

  bank->SimulateCrash();
  ASSERT_TRUE(bank->Restart().ok());
  EXPECT_EQ(bank->LedgerHash(), hash_before);
  EXPECT_TRUE(bank->CheckInvariants().ok());
}

TEST_F(BankDurabilityTest, RestartWithoutStoreFails) {
  Bank bank(crypto::TestGroup(), 42);
  bank.SimulateCrash();
  EXPECT_EQ(bank.Restart().code(), StatusCode::kFailedPrecondition);
}

TEST_F(BankDurabilityTest, TornTailLosesOnlyTheTornTransfer) {
  const fs::path dir = FreshDir("torn");
  std::string segment;
  {
    auto store = OpenStore(dir);
    auto bank = MakeBank(store.get());
    const auto auth =
        Authorize(*bank, alice_, "alice", "bob", Money::Dollars(100));
    ASSERT_TRUE(
        bank->Transfer("alice", "bob", Money::Dollars(100), auth, 1).ok());
    segment = store->wal().SegmentFiles().back();
  }
  // Crash mid-write of the final (transfer) record.
  const fs::path file = fs::path(dir) / segment;
  fs::resize_file(file, fs::file_size(file) - 3);

  auto store = OpenStore(dir);
  Bank recovered(crypto::TestGroup(), 42);
  recovered.AttachStore(store.get());
  auto stats = recovered.RecoverFromStore();
  ASSERT_TRUE(stats.ok()) << stats.status().message();
  EXPECT_GT(stats->truncated_bytes, 0u);
  // The torn transfer never committed: balances are pre-transfer.
  EXPECT_EQ(recovered.Balance("alice").value(), Money::Dollars(1000));
  EXPECT_EQ(recovered.Balance("bob").value(), Money::Zero());
  EXPECT_TRUE(recovered.CheckInvariants().ok());
}

// A journal written before internal transfers went unsigned carries a
// receipt id and a bank signature on every transfer record. Such a record
// still applies, and lands on the same ledger as today's unsigned one.
TEST_F(BankDurabilityTest, ParentFormatInternalRecordReplays) {
  const auto seed_ledger = [](Bank& bank) {
    EXPECT_TRUE(bank.CreateAccount("pool", {}).ok());
    EXPECT_TRUE(bank.CreateSubAccount("pool", "pool/job").ok());
    EXPECT_TRUE(bank.Mint("pool", Money::Dollars(100), 0).ok());
  };
  Bank live(crypto::TestGroup(), 42);
  seed_ledger(live);
  ASSERT_TRUE(
      live.InternalTransfer("pool", "pool/job", Money::Dollars(40), 5).ok());

  const fs::path dir = FreshDir("parent_format");
  const std::string receipt_id = "rcpt-000001-0123456789ab";
  {
    auto store = OpenStore(dir);
    Bank bank(crypto::TestGroup(), 42);
    bank.AttachStore(store.get());
    seed_ledger(bank);
    // The older layout: kind 4, from, to, amount, at, receipt id, encoded
    // signature, bump_nonce = false.
    net::Writer record;
    record.WriteU8(4);
    record.WriteString("pool");
    record.WriteString("pool/job");
    record.WriteI64(Money::Dollars(40).micros());
    record.WriteI64(5);
    record.WriteString(receipt_id);
    record.WriteString(alice_.Sign("any payload", rng_).Encode());
    record.WriteBool(false);
    ASSERT_TRUE(store->Append(record.data()).ok());
  }
  auto store = OpenStore(dir);
  Bank recovered(crypto::TestGroup(), 42);
  recovered.AttachStore(store.get());
  ASSERT_TRUE(recovered.RecoverFromStore().ok());
  EXPECT_EQ(recovered.LedgerHash(), live.LedgerHash());
  EXPECT_EQ(recovered.Balance("pool/job").value(), Money::Dollars(40));
  EXPECT_TRUE(recovered.CheckInvariants().ok());
  crypto::TransferReceipt dropped;
  dropped.receipt_id = receipt_id;
  EXPECT_EQ(recovered.VerifyReceipt(dropped).code(), StatusCode::kNotFound);
}

// Signed and internal transfers interleaved in one journal recover to the
// live ledger both by pure replay and by snapshot plus tail, and every
// signed receipt still verifies afterwards.
TEST_F(BankDurabilityTest, MixedSignedAndInternalJournalRecovers) {
  for (const std::uint64_t snapshot_every : {0u, 5u}) {
    const fs::path dir =
        FreshDir("mixed" + std::to_string(snapshot_every));
    store::StoreOptions options;
    options.snapshot_every_records = snapshot_every;
    std::string hash_live;
    std::vector<crypto::TransferReceipt> receipts;
    {
      auto store = OpenStore(dir, options);
      auto bank = MakeBank(store.get());
      ASSERT_TRUE(bank->CreateSubAccount("bob", "bob/jobs").ok());
      for (int i = 0; i < 12; ++i) {
        const Money amount = Money::Dollars(2 + i % 3);
        const auto auth = Authorize(*bank, alice_, "alice", "bob", amount);
        const auto receipt = bank->Transfer("alice", "bob", amount, auth, i);
        ASSERT_TRUE(receipt.ok());
        receipts.push_back(*receipt);
        ASSERT_TRUE(bank->Mint("bob/jobs", Money::Dollars(1), i).ok());
        ASSERT_TRUE(
            bank->InternalTransfer("bob/jobs", "bob", Money::Dollars(1), i)
                .ok());
      }
      if (snapshot_every != 0) {
        ASSERT_GT(store->stats().snapshots_written, 0u);
      }
      hash_live = bank->LedgerHash();
    }
    auto store = OpenStore(dir, options);
    Bank recovered(crypto::TestGroup(), 42);
    recovered.AttachStore(store.get());
    ASSERT_TRUE(recovered.RecoverFromStore().ok());
    EXPECT_EQ(recovered.LedgerHash(), hash_live)
        << "snapshot_every " << snapshot_every;
    EXPECT_TRUE(recovered.CheckInvariants().ok());
    for (const auto& receipt : receipts)
      EXPECT_TRUE(recovered.VerifyReceipt(receipt).ok()) << receipt.receipt_id;
  }
}

// r = g^s * y^(q-e) mod p: the nonce commitment g^k a signature was made
// with. Two signatures with one r share the nonce k, and then their
// (s1 - s2) / (e1 - e2) mod q is the signer's private key.
crypto::U256 NonceCommitment(const crypto::PublicKey& key,
                             const crypto::Signature& signature) {
  const crypto::SchnorrGroup& g = key.group();
  return crypto::ModMul(crypto::ModExp(g.g, signature.s, g.p),
                        crypto::ModExp(key.y(), g.q - signature.e, g.p), g.p);
}

// A bank rebuilt from its journal must not sign its next receipt with the
// nonce of one it signed before. Whether it comes back in a new process
// (pure replay, or snapshot plus tail) or by an in-process crash and
// restart, receipt B carries a fresh nonce and equals the receipt an
// uncrashed bank signs. A journal that lost A's record (its tail never
// reached the disk) is modelled by a new bank that never saw A: its
// receipt B still carries a nonce of its own.
TEST_F(BankDurabilityTest, RecoveredBankNeverReusesASigningNonce) {
  auto live = MakeBank(nullptr);
  const auto live_a = live->Transfer(
      "alice", "bob", Money::Dollars(10),
      Authorize(*live, alice_, "alice", "bob", Money::Dollars(10)), 1);
  const auto live_b = live->Transfer(
      "alice", "bob", Money::Dollars(20),
      Authorize(*live, alice_, "alice", "bob", Money::Dollars(20)), 2);
  ASSERT_TRUE(live_a.ok() && live_b.ok());

  enum class Path {
    kNewProcess,
    kNewProcessFromSnapshot,
    kInProcess,
    kJournalLostA
  };
  for (const Path path : {Path::kNewProcess, Path::kNewProcessFromSnapshot,
                          Path::kInProcess, Path::kJournalLostA}) {
    const fs::path dir = FreshDir("nonce" + std::to_string(int(path)));
    store::StoreOptions options;
    // Snapshots after records 2 and 4: the second one holds receipt A.
    if (path == Path::kNewProcessFromSnapshot)
      options.snapshot_every_records = 2;
    auto store = OpenStore(dir, options);
    auto bank = MakeBank(store.get());
    const auto a = bank->Transfer(
        "alice", "bob", Money::Dollars(10),
        Authorize(*bank, alice_, "alice", "bob", Money::Dollars(10)), 1);
    ASSERT_TRUE(a.ok());
    if (path == Path::kInProcess) {
      bank->SimulateCrash();
      ASSERT_TRUE(bank->Restart().ok());
    } else if (path == Path::kJournalLostA) {
      bank = MakeBank(nullptr);
    } else {
      bank.reset();
      store.reset();  // the log is released before it is reopened
      store = OpenStore(dir, options);
      bank = std::make_unique<Bank>(crypto::TestGroup(), 42);
      bank->AttachStore(store.get());
      const auto stats = bank->RecoverFromStore();
      ASSERT_TRUE(stats.ok());
      EXPECT_EQ(stats->snapshot_loaded,
                path == Path::kNewProcessFromSnapshot);
    }
    const auto b = bank->Transfer(
        "alice", "bob", Money::Dollars(20),
        Authorize(*bank, alice_, "alice", "bob", Money::Dollars(20)), 2);
    ASSERT_TRUE(b.ok());
    EXPECT_NE(NonceCommitment(bank->public_key(), a->bank_signature),
              NonceCommitment(bank->public_key(), b->bank_signature))
        << "path " << int(path);
    EXPECT_EQ(*a, *live_a) << "path " << int(path);
    // The bank that lost A numbers B as its first receipt.
    if (path != Path::kJournalLostA) {
      EXPECT_EQ(*b, *live_b) << "path " << int(path);
    }
  }
}

// After a reopen the new log appends where the old one stopped, and a
// second reopen replays those appends too: receipt B survives.
TEST_F(BankDurabilityTest, ReceiptSignedAfterReopenSurvivesTheNextReopen) {
  const fs::path dir = FreshDir("reopen_twice");
  std::optional<crypto::TransferReceipt> b;
  std::string hash_after_b;
  {
    auto store = OpenStore(dir);
    auto bank = MakeBank(store.get());
    ASSERT_TRUE(bank->Transfer("alice", "bob", Money::Dollars(10),
                               Authorize(*bank, alice_, "alice", "bob",
                                         Money::Dollars(10)),
                               1)
                    .ok());
  }
  {
    auto store = OpenStore(dir);
    Bank bank(crypto::TestGroup(), 42);
    bank.AttachStore(store.get());
    ASSERT_TRUE(bank.RecoverFromStore().ok());
    const auto receipt = bank.Transfer(
        "alice", "bob", Money::Dollars(20),
        Authorize(bank, alice_, "alice", "bob", Money::Dollars(20)), 2);
    ASSERT_TRUE(receipt.ok());
    b = *receipt;
    hash_after_b = bank.LedgerHash();
  }
  auto store = OpenStore(dir);
  Bank recovered(crypto::TestGroup(), 42);
  recovered.AttachStore(store.get());
  ASSERT_TRUE(recovered.RecoverFromStore().ok());
  EXPECT_EQ(recovered.LedgerHash(), hash_after_b);
  EXPECT_TRUE(recovered.VerifyReceipt(*b).ok());
  EXPECT_EQ(*recovered.Balance("bob"), Money::Dollars(30));
}

// Property: replaying the same journal always rebuilds a byte-identical
// ledger (hash equality across independent recoveries), for randomized
// operation sequences.
TEST_F(BankDurabilityTest, ReplayDeterminismProperty) {
  Rng op_rng(1234);
  for (int trial = 0; trial < 3; ++trial) {
    const fs::path dir = FreshDir("prop" + std::to_string(trial));
    std::string hash_live;
    {
      auto store = OpenStore(dir);
      auto bank = MakeBank(store.get());
      ASSERT_TRUE(bank->CreateSubAccount("bob", "bob/jobs").ok());
      for (int i = 0; i < 40; ++i) {
        switch (op_rng.Next() % 4) {
          case 0: {
            const Money amount =
                Money::FromMicros(1 + static_cast<Micros>(op_rng.Next() % 999));
            const auto auth =
                Authorize(*bank, alice_, "alice", "bob", amount);
            ASSERT_TRUE(bank->Transfer("alice", "bob", amount, auth, i).ok());
            break;
          }
          case 1: {
            const Money amount =
                Money::FromMicros(1 + static_cast<Micros>(op_rng.Next() % 500));
            const auto auth = Authorize(*bank, bob_, "bob", "bob/jobs", amount);
            // May fail on insufficient funds; failures journal nothing.
            (void)bank->Transfer("bob", "bob/jobs", amount, auth, i);
            break;
          }
          case 2:
            ASSERT_TRUE(
                bank->Mint("alice",
                           Money::FromMicros(
                               1 + static_cast<Micros>(op_rng.Next() % 100)),
                           i)
                    .ok());
            break;
          case 3: {
            const Money balance = bank->Balance("bob/jobs").value();
            if (balance.is_positive()) {
              ASSERT_TRUE(
                  bank->InternalTransfer("bob/jobs", "bob", balance, i).ok());
            }
            break;
          }
        }
      }
      ASSERT_TRUE(bank->CheckInvariants().ok());
      hash_live = bank->LedgerHash();
    }
    // Two independent recoveries from the same log agree with the live
    // ledger and with each other.
    for (int round = 0; round < 2; ++round) {
      auto store = OpenStore(dir);
      Bank recovered(crypto::TestGroup(), 42);
      recovered.AttachStore(store.get());
      ASSERT_TRUE(recovered.RecoverFromStore().ok());
      EXPECT_EQ(recovered.LedgerHash(), hash_live)
          << "trial " << trial << " round " << round;
      EXPECT_TRUE(recovered.CheckInvariants().ok());
    }
  }
}

}  // namespace
}  // namespace gm::bank
