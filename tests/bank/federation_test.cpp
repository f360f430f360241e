// Tests for the sharded bank federation: striped account ownership, the
// two-phase inter-bank settlement protocol (including crash recovery at
// every phase boundary), bit-identical WAL recovery per shard, the
// canonical bytes a shard ledger hash covers, and the reconciler's signed
// conservation reports.
#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "bank/federation/reconciler.hpp"
#include "bank/federation/router.hpp"
#include "bank/federation/shard.hpp"
#include "common/strings.hpp"
#include "crypto/prime.hpp"
#include "crypto/sha256.hpp"
#include "crypto/token.hpp"
#include "net/serialize.hpp"
#include "store/store.hpp"

namespace gm::bank::federation {
namespace {

namespace fs = std::filesystem;

constexpr std::size_t kShards = 4;

// First id with the given prefix owned by `shard`, so tests can choose
// same-shard or cross-shard pairs without hardcoding hash values.
std::string AccountOn(std::size_t shard, const std::string& prefix) {
  for (int i = 0;; ++i) {
    const std::string id = prefix + std::to_string(i);
    if (StripeFor(id, kShards) == shard) return id;
  }
}

// One settlement leg for driving the shard phases by hand; it points at
// `from` and `to`, which must outlive it.
SettlementLeg Leg(const std::string& from, const std::string& to,
                  Money amount) {
  SettlementLeg leg;
  leg.from = &from;
  leg.to = &to;
  leg.amount = amount;
  return leg;
}

fs::path FreshDir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / ("gm_fed_" + name);
  fs::remove_all(dir);
  return dir;
}

/// A 4-shard federation; durable (one store per shard under `dir`) when a
/// directory is given, pure in-memory otherwise.
struct Federation {
  explicit Federation(const fs::path& dir = {},
                      store::StoreOptions options = {}) {
    for (std::size_t i = 0; i < kShards; ++i) {
      shards.push_back(std::make_unique<BankShard>(i));
      if (!dir.empty()) {
        auto store = store::DurableStore::Open(
            (dir / ("shard" + std::to_string(i))).string(), options);
        EXPECT_TRUE(store.ok()) << store.status().message();
        stores.push_back(std::move(*store));
        shards.back()->AttachStore(stores.back().get());
      }
    }
    std::vector<BankShard*> ptrs;
    ptrs.reserve(shards.size());
    for (const auto& shard : shards) ptrs.push_back(shard.get());
    router = std::make_unique<FederationRouter>(ptrs, &registry);
  }

  std::vector<std::unique_ptr<store::DurableStore>> stores;
  std::vector<std::unique_ptr<BankShard>> shards;
  crypto::TokenRegistry registry;
  std::unique_ptr<FederationRouter> router;
};

TEST(StripeForTest, StableAndCoversAllShards) {
  std::set<std::size_t> seen;
  for (int i = 0; i < 200; ++i) {
    const std::string id = "user:u" + std::to_string(i);
    const std::size_t stripe = StripeFor(id, kShards);
    ASSERT_LT(stripe, kShards);
    // Ownership is a pure function of the id.
    EXPECT_EQ(StripeFor(id, kShards), stripe);
    seen.insert(stripe);
  }
  // 200 ids over 4 stripes: every stripe owns someone.
  EXPECT_EQ(seen.size(), kShards);
}

TEST(FederationRouterTest, RoutedOperationsLandOnOwningShard) {
  Federation fed;
  const std::string id = AccountOn(2, "acct");
  ASSERT_TRUE(fed.router->CreateAccount(id, Money::Dollars(10)).ok());
  EXPECT_TRUE(fed.router->HasAccount(id));
  EXPECT_TRUE(fed.shards[2]->HasAccount(id));
  for (std::size_t i = 0; i < kShards; ++i) {
    if (i != 2) {
      EXPECT_FALSE(fed.shards[i]->HasAccount(id)) << i;
    }
  }
  ASSERT_TRUE(fed.router->Mint(id, Money::Dollars(5), 0).ok());
  EXPECT_EQ(fed.router->Balance(id).value(), Money::Dollars(15));
  EXPECT_EQ(fed.router->TotalMoney().value(), Money::Dollars(15));
}

TEST(FederationRouterTest, IntraShardTransferIsAtomic) {
  Federation fed;
  const std::string from = AccountOn(1, "payer");
  const std::string to = AccountOn(1, "payee");
  ASSERT_TRUE(fed.router->CreateAccount(from, Money::Dollars(20)).ok());
  ASSERT_TRUE(fed.router->CreateAccount(to).ok());

  ASSERT_TRUE(fed.router->Transfer(from, to, Money::Dollars(7), 100).ok());
  EXPECT_EQ(fed.router->Balance(from).value(), Money::Dollars(13));
  EXPECT_EQ(fed.router->Balance(to).value(), Money::Dollars(7));
  EXPECT_EQ(fed.router->Stats().intra_transfers, 1u);
  EXPECT_EQ(fed.router->Stats().settlements_started, 0u);

  // Insufficient funds: rejected atomically, nothing moves.
  EXPECT_EQ(fed.router->Transfer(from, to, Money::Dollars(100), 101).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(fed.router->Balance(from).value(), Money::Dollars(13));
  EXPECT_TRUE(fed.router->CheckConservation().ok());
}

TEST(FederationRouterTest, CrossShardTransferSettlesExactlyOnce) {
  Federation fed;
  const std::string from = AccountOn(0, "payer");
  const std::string to = AccountOn(3, "payee");
  ASSERT_TRUE(fed.router->CreateAccount(from, Money::Dollars(20)).ok());
  ASSERT_TRUE(fed.router->CreateAccount(to).ok());

  ASSERT_TRUE(fed.router->Transfer(from, to, Money::Dollars(8), 100).ok());
  EXPECT_EQ(fed.router->Balance(from).value(), Money::Dollars(12));
  EXPECT_EQ(fed.router->Balance(to).value(), Money::Dollars(8));
  EXPECT_EQ(fed.router->PendingSettlements(), 0u);

  const RouterStats stats = fed.router->Stats();
  EXPECT_EQ(stats.settlements_started, 1u);
  EXPECT_EQ(stats.settlements_completed, 1u);
  EXPECT_EQ(stats.settlements_aborted, 0u);

  // The settlement moved money between shard conservation domains and
  // its id is burned in the double-spend registry.
  EXPECT_EQ(fed.shards[0]->SnapshotInfo().settled_out, Money::Dollars(8));
  EXPECT_EQ(fed.shards[3]->SnapshotInfo().settled_in, Money::Dollars(8));
  EXPECT_TRUE(fed.router->IsSettlementSpent("s0-1"));
  EXPECT_TRUE(fed.shards[3]->HasAppliedSettlement("s0-1"));
  EXPECT_TRUE(fed.router->CheckConservation().ok());
  // Total minted money is unchanged by settlement.
  EXPECT_EQ(fed.router->TotalMoney().value(), Money::Dollars(20));
}

TEST(FederationRouterTest, CrossShardTransferToMissingAccountFailsFast) {
  Federation fed;
  const std::string from = AccountOn(0, "payer");
  ASSERT_TRUE(fed.router->CreateAccount(from, Money::Dollars(20)).ok());

  const std::string ghost = AccountOn(1, "ghost");
  EXPECT_EQ(fed.router->Transfer(from, ghost, Money::Dollars(1), 100).code(),
            StatusCode::kNotFound);
  // Fail-fast: no hold was ever journaled, nothing to unwind.
  EXPECT_EQ(fed.router->Balance(from).value(), Money::Dollars(20));
  EXPECT_EQ(fed.router->PendingSettlements(), 0u);
  EXPECT_EQ(fed.router->Stats().settlements_started, 0u);
  EXPECT_TRUE(fed.router->CheckConservation().ok());
}

TEST(FederationChaosTest, CreditorCrashParksHoldUntilResume) {
  const fs::path dir = FreshDir("park");
  Federation fed(dir);
  const std::string from = AccountOn(0, "payer");
  const std::string to = AccountOn(1, "payee");
  ASSERT_TRUE(fed.router->CreateAccount(from, Money::Dollars(20)).ok());
  ASSERT_TRUE(fed.router->CreateAccount(to).ok());

  // Creditor dies before the credit phase: the transfer parks on the
  // debtor's hold — money debited, not yet credited anywhere.
  fed.shards[1]->SimulateCrash();
  EXPECT_EQ(fed.router->Transfer(from, to, Money::Dollars(5), 100).code(),
            StatusCode::kUnavailable);
  EXPECT_EQ(fed.router->Balance(from).value(), Money::Dollars(15));
  EXPECT_EQ(fed.router->PendingSettlements(), 1u);
  EXPECT_TRUE(fed.shards[0]->Audit().invariant.ok());

  // A resume while the creditor is still down leaves the hold parked.
  ASSERT_TRUE(fed.router->ResumeSettlements(200).ok());
  EXPECT_EQ(fed.router->PendingSettlements(), 1u);

  ASSERT_TRUE(fed.shards[1]->Restart().ok());
  ASSERT_TRUE(fed.router->ResumeSettlements(300).ok());
  EXPECT_EQ(fed.router->PendingSettlements(), 0u);
  EXPECT_EQ(fed.router->Balance(to).value(), Money::Dollars(5));
  EXPECT_EQ(fed.router->Stats().settlements_resumed, 1u);
  EXPECT_TRUE(fed.router->CheckConservation().ok());

  // Resume is idempotent: nothing left to settle, nothing double-credits.
  ASSERT_TRUE(fed.router->ResumeSettlements(400).ok());
  EXPECT_EQ(fed.router->Balance(to).value(), Money::Dollars(5));
}

TEST(FederationChaosTest, MissingDestinationDiscoveredAtResumeRefunds) {
  const fs::path dir = FreshDir("refund");
  Federation fed(dir);
  const std::string from = AccountOn(0, "payer");
  const std::string ghost = AccountOn(1, "ghost");
  ASSERT_TRUE(fed.router->CreateAccount(from, Money::Dollars(20)).ok());

  // The creditor is down, so the fail-fast existence check cannot run:
  // the hold parks, and only the resume after restart discovers the
  // destination never existed.
  fed.shards[1]->SimulateCrash();
  EXPECT_EQ(fed.router->Transfer(from, ghost, Money::Dollars(5), 100).code(),
            StatusCode::kUnavailable);
  EXPECT_EQ(fed.router->Balance(from).value(), Money::Dollars(15));

  ASSERT_TRUE(fed.shards[1]->Restart().ok());
  ASSERT_TRUE(fed.router->ResumeSettlements(200).ok());
  EXPECT_EQ(fed.router->Balance(from).value(), Money::Dollars(20));
  EXPECT_EQ(fed.router->PendingSettlements(), 0u);
  EXPECT_EQ(fed.router->Stats().settlements_aborted, 1u);
  EXPECT_TRUE(fed.router->CheckConservation().ok());
}

TEST(FederationChaosTest, DebtorCrashBetweenCreditAndReleaseIsExactlyOnce) {
  const fs::path dir = FreshDir("midflight");
  Federation fed(dir);
  const std::string from = AccountOn(0, "payer");
  const std::string to = AccountOn(1, "payee");
  ASSERT_TRUE(fed.router->CreateAccount(from, Money::Dollars(20)).ok());
  ASSERT_TRUE(fed.router->CreateAccount(to, Money::Dollars(1)).ok());

  // Drive the phases by hand to freeze the protocol exactly between the
  // creditor's credit and the debtor's release — the window where the
  // money exists on the creditor while the debtor still holds it.
  SettlementLeg leg = Leg(from, to, Money::Dollars(5));
  fed.shards[0]->PrepareDebits({&leg, 1}, 100);
  ASSERT_TRUE(leg.status.ok());
  const std::string sid = leg.settlement_id;
  fed.shards[1]->ApplyCredits({&leg, 1}, 100);
  ASSERT_TRUE(leg.status.ok());
  EXPECT_EQ(fed.shards[1]->Balance(to).value(), Money::Dollars(6));

  // Debtor dies before releasing; the WAL replays the open hold.
  fed.shards[0]->SimulateCrash();
  ASSERT_TRUE(fed.shards[0]->Restart().ok());
  ASSERT_EQ(fed.shards[0]->OpenHolds().size(), 1u);

  // Resume finds the credit already applied: release only, no second
  // credit. A retried credit of the same id succeeds and moves nothing.
  ASSERT_TRUE(fed.router->ResumeSettlements(200).ok());
  EXPECT_EQ(fed.router->Balance(to).value(), Money::Dollars(6));
  EXPECT_EQ(fed.router->Balance(from).value(), Money::Dollars(15));
  EXPECT_EQ(fed.router->PendingSettlements(), 0u);
  EXPECT_TRUE(fed.router->IsSettlementSpent(sid));
  EXPECT_TRUE(fed.router->CheckConservation().ok());

  SettlementLeg retry = Leg(from, to, Money::Dollars(5));
  retry.settlement_id = sid;
  fed.shards[1]->ApplyCredits({&retry, 1}, 300);
  EXPECT_TRUE(retry.status.ok()) << retry.status.message();
  EXPECT_EQ(fed.router->Balance(to).value(), Money::Dollars(6));
  EXPECT_EQ(fed.shards[1]->SnapshotInfo().settled_in, Money::Dollars(5));
}

TEST(FederationDurabilityTest, ShardRecoversBitIdenticalLedger) {
  const fs::path dir = FreshDir("bitident");
  Federation fed(dir);
  const std::string a = AccountOn(0, "a");
  const std::string b = AccountOn(0, "b");
  const std::string c = AccountOn(2, "c");
  ASSERT_TRUE(fed.router->CreateAccount(a, Money::Dollars(50)).ok());
  ASSERT_TRUE(fed.router->CreateAccount(b).ok());
  ASSERT_TRUE(fed.router->CreateAccount(c).ok());
  ASSERT_TRUE(fed.router->Mint(a, Money::Dollars(3), 10).ok());
  ASSERT_TRUE(fed.router->Transfer(a, b, Money::Dollars(11), 20).ok());
  ASSERT_TRUE(fed.router->Transfer(a, c, Money::Dollars(13), 30).ok());

  const std::string fed_hash = fed.router->LedgerHash();
  const std::string shard0_hash = fed.shards[0]->LedgerHash();

  fed.shards[0]->SimulateCrash();
  EXPECT_TRUE(fed.shards[0]->crashed());
  // Down shard: calls fail Unavailable, federation totals unverifiable.
  EXPECT_EQ(fed.shards[0]->Balance(a).status().code(),
            StatusCode::kUnavailable);
  EXPECT_EQ(fed.router->CheckConservation().code(),
            StatusCode::kUnavailable);
  EXPECT_NE(fed.router->LedgerHash(), fed_hash);

  ASSERT_TRUE(fed.shards[0]->Restart().ok());
  EXPECT_EQ(fed.shards[0]->LedgerHash(), shard0_hash);
  EXPECT_EQ(fed.router->LedgerHash(), fed_hash);
  EXPECT_TRUE(fed.router->CheckConservation().ok());
  EXPECT_EQ(fed.router->Balance(b).value(), Money::Dollars(11));
}

TEST(FederationDurabilityTest, SnapshotPlusTailRecoversSameHash) {
  const fs::path dir = FreshDir("snapshot");
  store::StoreOptions options;
  options.snapshot_every_records = 8;  // checkpoint mid-history
  Federation fed(dir, options);
  const std::string a = AccountOn(1, "a");
  const std::string b = AccountOn(1, "b");
  ASSERT_TRUE(fed.router->CreateAccount(a, Money::Dollars(100)).ok());
  ASSERT_TRUE(fed.router->CreateAccount(b).ok());
  for (int i = 0; i < 24; ++i)
    ASSERT_TRUE(fed.router->Transfer(a, b, Money::Dollars(1), i).ok());
  ASSERT_GT(fed.stores[1]->stats().snapshots_written, 0u);

  const std::string hash_before = fed.shards[1]->LedgerHash();
  fed.shards[1]->SimulateCrash();
  ASSERT_TRUE(fed.shards[1]->Restart().ok());
  EXPECT_EQ(fed.shards[1]->LedgerHash(), hash_before);
  EXPECT_TRUE(fed.shards[1]->Audit().invariant.ok());
}

TEST(FederationDurabilityTest, RestartWithoutStoreFails) {
  BankShard shard(0);
  shard.SimulateCrash();
  EXPECT_EQ(shard.Restart().code(), StatusCode::kFailedPrecondition);
}

// The canonical text BankShard::LedgerHash hashes, built the way the
// hash was first defined: one StrFormat per account, hold and applied
// credit, then a totals line. Kept as the reference that pins those bytes.
std::string ReferenceCanonicalText(
    const std::map<std::string, Money>& accounts,
    const std::vector<SettlementHold>& holds,
    const std::map<std::string, Money>& applied, Money minted,
    Money settled_in, Money settled_out, std::uint64_t next_settlement_seq) {
  std::string canonical;
  for (const auto& [id, balance] : accounts) {
    canonical += StrFormat("acct|%s|%lld\n", id.c_str(),
                           static_cast<long long>(balance.micros()));
  }
  for (const SettlementHold& hold : holds) {
    canonical += StrFormat(
        "hold|%s|%s|%s|%lld\n", hold.settlement_id.c_str(),
        hold.from.c_str(), hold.to.c_str(),
        static_cast<long long>(hold.amount.micros()));
  }
  for (const auto& [id, amount] : applied) {
    canonical += StrFormat("applied|%s|%lld\n", id.c_str(),
                           static_cast<long long>(amount.micros()));
  }
  canonical += StrFormat(
      "minted|%lld|in|%lld|out|%lld|seq|%llu\n",
      static_cast<long long>(minted.micros()),
      static_cast<long long>(settled_in.micros()),
      static_cast<long long>(settled_out.micros()),
      static_cast<unsigned long long>(next_settlement_seq));
  return canonical;
}

TEST(BankShardTest, LedgerHashIsShaOfCanonicalText) {
  // Recorded ledger hashes stay comparable only while the hashed bytes
  // do: zero, small and near-int64-max balances, a mint, an open hold, a
  // released hold and an applied credit must all hash exactly as the
  // reference text renders them.
  constexpr Micros kLarge = 4'000'000'000'000'000'123;
  BankShard shard(0);
  ASSERT_TRUE(shard.CreateAccount("large", Money::FromMicros(kLarge)).ok());
  ASSERT_TRUE(shard.CreateAccount("small", Money::FromMicros(7)).ok());
  ASSERT_TRUE(shard.CreateAccount("zero").ok());
  ASSERT_TRUE(shard.CreateAccount("credited").ok());
  ASSERT_TRUE(shard.Mint("small", Money::FromMicros(250'000), 10).ok());
  const std::string large = "large";
  const std::string small = "small";
  const std::string remote_a = "remote-a";
  const std::string remote_b = "remote-b";
  const std::string remote_c = "remote-c";
  const std::string credited_id = "credited";
  SettlementLeg open = Leg(large, remote_a, Money::FromMicros(1'500'000));
  shard.PrepareDebits({&open, 1}, 20);
  ASSERT_TRUE(open.status.ok());
  EXPECT_EQ(open.settlement_id, "s0-1");
  SettlementLeg released = Leg(small, remote_b, Money::FromMicros(5));
  shard.PrepareDebits({&released, 1}, 30);
  ASSERT_TRUE(released.status.ok());
  shard.ReleaseHolds({&released, 1}, 40);
  ASSERT_TRUE(released.status.ok());
  SettlementLeg credited = Leg(remote_c, credited_id, Money::FromMicros(42));
  credited.settlement_id = "s3-17";
  shard.ApplyCredits({&credited, 1}, 50);
  ASSERT_TRUE(credited.status.ok());

  SettlementHold hold;
  hold.settlement_id = "s0-1";
  hold.from = "large";
  hold.to = "remote-a";
  hold.amount = Money::FromMicros(1'500'000);
  const std::string canonical = ReferenceCanonicalText(
      {{"credited", Money::FromMicros(42)},
       {"large", Money::FromMicros(kLarge - 1'500'000)},
       {"small", Money::FromMicros(250'002)},
       {"zero", Money::Zero()}},
      {hold}, {{"s3-17", Money::FromMicros(42)}},
      /*minted=*/Money::FromMicros(kLarge + 250'007),
      /*settled_in=*/Money::FromMicros(42),
      /*settled_out=*/Money::FromMicros(5), /*next_settlement_seq=*/3);
  EXPECT_EQ(shard.LedgerHash(), crypto::Sha256::HexDigest(canonical));
  EXPECT_TRUE(shard.Audit().invariant.ok());
}

TEST(ReconcilerTest, SignsVerifiableConservationReport) {
  Federation fed;
  Reconciler reconciler(fed.router.get(), crypto::TestGroup(), 77);
  EXPECT_EQ(reconciler.LastReport().status().code(), StatusCode::kNotFound);

  const std::string a = AccountOn(0, "a");
  const std::string b = AccountOn(2, "b");
  ASSERT_TRUE(fed.router->CreateAccount(a, Money::Dollars(40)).ok());
  ASSERT_TRUE(fed.router->CreateAccount(b).ok());
  ASSERT_TRUE(fed.router->Transfer(a, b, Money::Dollars(9), 100).ok());

  const ReconciliationReport report = reconciler.Sweep(1000);
  EXPECT_TRUE(report.conserved) << report.detail;
  EXPECT_EQ(report.detail, "");
  EXPECT_EQ(report.sweep_seq, 1u);
  EXPECT_EQ(report.shards_live, kShards);
  EXPECT_EQ(report.accounts, 2u);
  EXPECT_EQ(report.applied_settlements, 1u);
  EXPECT_EQ(report.total_minted, Money::Dollars(40));
  EXPECT_EQ(report.total_balances, Money::Dollars(40));
  EXPECT_EQ(report.federation_hash, fed.router->LedgerHash());
  EXPECT_TRUE(reconciler.VerifyReport(report).ok());
  EXPECT_EQ(reconciler.LastReport().value().sweep_seq, 1u);

  // Any mutated field invalidates the signature — the report cannot be
  // doctored into claiming solvency it never attested to.
  ReconciliationReport tampered = report;
  tampered.total_minted += Money::FromMicros(1);
  EXPECT_EQ(reconciler.VerifyReport(tampered).code(),
            StatusCode::kUnauthenticated);
  tampered = report;
  tampered.conserved = false;
  EXPECT_EQ(reconciler.VerifyReport(tampered).code(),
            StatusCode::kUnauthenticated);
}

TEST(ReconcilerTest, FlagsCrashedShard) {
  const fs::path dir = FreshDir("reconcrash");
  Federation fed(dir);
  Reconciler reconciler(fed.router.get(), crypto::TestGroup(), 77);
  const std::string a = AccountOn(0, "a");
  ASSERT_TRUE(fed.router->CreateAccount(a, Money::Dollars(10)).ok());

  fed.shards[3]->SimulateCrash();
  const ReconciliationReport report = reconciler.Sweep(1000);
  EXPECT_FALSE(report.conserved);
  EXPECT_EQ(report.shards_live, kShards - 1);
  EXPECT_NE(report.detail.find("shard 3 down"), std::string::npos)
      << report.detail;
  // The bad-news report is signed too.
  EXPECT_TRUE(reconciler.VerifyReport(report).ok());

  ASSERT_TRUE(fed.shards[3]->Restart().ok());
  EXPECT_TRUE(reconciler.Sweep(2000).conserved);
}

TEST(ReconcilerTest, ReportsACorruptedShardOnce) {
  Federation fed;
  Reconciler reconciler(fed.router.get(), crypto::TestGroup(), 77);
  const std::string a = AccountOn(2, "a");
  ASSERT_TRUE(fed.router->CreateAccount(a, Money::Dollars(10)).ok());

  // Replaying a create record over a live account replaces its balance
  // while adding to minted: shard 2's local identity breaks, and with it
  // the federation's.
  net::Writer record;
  record.WriteU8(1);  // create
  record.WriteString(a);
  record.WriteI64(Money::Dollars(3).micros());
  ASSERT_TRUE(fed.shards[2]->ApplyRecord(record.data()).ok());

  const ReconciliationReport report = reconciler.Sweep(1000);
  EXPECT_FALSE(report.conserved);
  EXPECT_NE(report.detail.find("shard 2"), std::string::npos) << report.detail;
  std::size_t violations = 0;
  for (std::size_t at = report.detail.find("conservation violated");
       at != std::string::npos;
       at = report.detail.find("conservation violated", at + 1))
    ++violations;
  EXPECT_EQ(violations, 1u) << report.detail;
  EXPECT_TRUE(reconciler.VerifyReport(report).ok());
}

TEST(ReconcilerTest, FlagsSettlementNeverClaimedInRegistry) {
  Federation fed;
  Reconciler reconciler(fed.router.get(), crypto::TestGroup(), 77);
  const std::string to = AccountOn(1, "payee");
  ASSERT_TRUE(fed.router->CreateAccount(to).ok());

  // A credit applied behind the router's back: durable on the shard but
  // never claimed in the double-spend registry. The sweep must call out
  // the rogue settlement id.
  const std::string payer = AccountOn(0, "payer");
  SettlementLeg rogue = Leg(payer, to, Money::Dollars(2));
  rogue.settlement_id = "s0-999";
  fed.shards[1]->ApplyCredits({&rogue, 1}, 100);
  ASSERT_TRUE(rogue.status.ok());

  const ReconciliationReport report = reconciler.Sweep(1000);
  EXPECT_FALSE(report.conserved);
  EXPECT_NE(report.detail.find("s0-999"), std::string::npos) << report.detail;
  EXPECT_NE(report.detail.find("never claimed"), std::string::npos)
      << report.detail;
}

}  // namespace
}  // namespace gm::bank::federation
