#include "host/parallel_runner.hpp"

#include <atomic>
#include <chrono>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "bank/federation/reconciler.hpp"
#include "bank/federation/router.hpp"
#include "bank/federation/shard.hpp"
#include "crypto/prime.hpp"
#include "crypto/token.hpp"
#include "net/serialize.hpp"
#include "store/store.hpp"

namespace gm::host {
namespace {

namespace fs = std::filesystem;

/// A self-contained grid of `shards` hosts, each with its own auctioneer,
/// all charging one bank federation once AddFederation attaches it.
/// Everything needed to re-run the exact same workload twice and compare
/// ledgers.
struct World {
  explicit World(std::size_t shards, bool serial, int threads,
                 std::uint64_t seed = 99) {
    ParallelRunnerConfig config;
    config.threads = threads;
    config.serial = serial;
    config.seed = seed;
    runner = std::make_unique<ParallelRunner>(kernel, config);

    for (std::size_t i = 0; i < shards; ++i) {
      HostSpec spec;
      spec.id = "h" + std::to_string(i);
      hosts.push_back(std::make_unique<PhysicalHost>(spec));
      auctioneers.push_back(
          std::make_unique<market::Auctioneer>(*hosts.back(), kernel));
      runner->AddShard(auctioneers.back().get(),
                       "broker/fund-" + std::to_string(i),
                       "broker/host-" + std::to_string(i));
    }
  }

  /// Attach a sharded bank federation holding every shard's fund and
  /// take accounts. Durable (per-shard WALs under `dir`) when a directory
  /// is given.
  void AddFederation(std::size_t num_shards, const fs::path& dir = {}) {
    for (std::size_t i = 0; i < num_shards; ++i) {
      fed_shards.push_back(
          std::make_unique<bank::federation::BankShard>(i));
      if (!dir.empty()) {
        auto store = store::DurableStore::Open(
            (dir / ("fedshard" + std::to_string(i))).string());
        EXPECT_TRUE(store.ok()) << store.status().message();
        fed_stores.push_back(std::move(*store));
        fed_shards.back()->AttachStore(fed_stores.back().get());
      }
    }
    std::vector<bank::federation::BankShard*> ptrs;
    for (const auto& shard : fed_shards) ptrs.push_back(shard.get());
    federation = std::make_unique<bank::federation::FederationRouter>(
        ptrs, &fed_registry);
    for (std::size_t i = 0; i < hosts.size(); ++i) {
      EXPECT_TRUE(federation
                      ->CreateAccount("broker/fund-" + std::to_string(i),
                                      Money::Dollars(100))
                      .ok());
      EXPECT_TRUE(
          federation->CreateAccount("broker/host-" + std::to_string(i))
              .ok());
    }
    runner->SetFederation(federation.get());
  }

  // The runner takes its pool back from the federation on destruction,
  // so it goes first.
  ~World() { runner.reset(); }

  sim::Kernel kernel;
  std::vector<std::unique_ptr<PhysicalHost>> hosts;
  std::vector<std::unique_ptr<market::Auctioneer>> auctioneers;
  std::unique_ptr<ParallelRunner> runner;
  std::vector<std::unique_ptr<store::DurableStore>> fed_stores;
  std::vector<std::unique_ptr<bank::federation::BankShard>> fed_shards;
  crypto::TokenRegistry fed_registry;
  std::unique_ptr<bank::federation::FederationRouter> federation;
};

TEST(ParallelRunnerTest, EightThreadsMatchSerialBitForBit) {
  // Eight auction shards ticking on eight threads: every market's
  // revenue and spot price, and the ledger they charge, must be
  // bit-identical to a serial run's.
  constexpr std::size_t kShards = 8;
  constexpr int kRounds = 6;

  World serial(kShards, /*serial=*/true, /*threads=*/1);
  serial.AddFederation(4);
  const auto serial_report = serial.runner->Run(kRounds);
  ASSERT_TRUE(serial_report.ok());

  World parallel(kShards, /*serial=*/false, /*threads=*/8);
  parallel.AddFederation(4);
  const auto parallel_report = parallel.runner->Run(kRounds);
  ASSERT_TRUE(parallel_report.ok());

  // The acceptance bar: identical ledger hash, not merely equal totals.
  const std::string serial_hash = serial.federation->LedgerHash();
  EXPECT_FALSE(serial_hash.empty());
  EXPECT_EQ(parallel.federation->LedgerHash(), serial_hash);

  EXPECT_EQ(parallel_report->rounds, kRounds);
  EXPECT_EQ(parallel_report->shards, kShards);
  EXPECT_EQ(parallel_report->ticks, serial_report->ticks);
  EXPECT_EQ(parallel_report->fed_ops_applied,
            serial_report->fed_ops_applied);
  EXPECT_EQ(parallel_report->fed_ops_failed, 0u);
  for (std::size_t i = 0; i < kShards; ++i) {
    EXPECT_EQ(
        parallel.auctioneers[i]->total_revenue(),
        serial.auctioneers[i]->total_revenue())
        << "shard " << i;
    EXPECT_EQ(parallel.auctioneers[i]->SpotPriceRate().micros_per_sec(),
              serial.auctioneers[i]->SpotPriceRate().micros_per_sec())
        << "shard " << i;
  }
  EXPECT_TRUE(parallel.federation->CheckConservation().ok());
}

TEST(ParallelRunnerFederationTest, EightThreadsMatchSerialBitForBit) {
  // Auction shards charging a 3-way sharded bank concurrently. Three
  // bank shards split the eight fund/take pairs between same-shard
  // transfers and cross-shard escrow, so the merged federation ledger
  // (settlement ids included) mixes both paths and must still be
  // bit-identical to a serial run's, with every settlement finished.
  constexpr std::size_t kShards = 8;
  constexpr int kRounds = 6;

  World serial(kShards, /*serial=*/true, /*threads=*/1);
  serial.AddFederation(3);
  const auto serial_report = serial.runner->Run(kRounds);
  ASSERT_TRUE(serial_report.ok());

  World parallel(kShards, /*serial=*/false, /*threads=*/8);
  parallel.AddFederation(3);
  const auto parallel_report = parallel.runner->Run(kRounds);
  ASSERT_TRUE(parallel_report.ok());

  const std::string serial_hash = serial.federation->LedgerHash();
  EXPECT_FALSE(serial_hash.empty());
  EXPECT_EQ(parallel.federation->LedgerHash(), serial_hash);
  EXPECT_EQ(parallel_report->fed_ops_applied,
            serial_report->fed_ops_applied);
  EXPECT_EQ(parallel_report->fed_ops_failed, 0u);

  EXPECT_TRUE(parallel.federation->CheckConservation().ok());
  EXPECT_EQ(parallel.federation->PendingSettlements(), 0u);
  const auto stats = parallel.federation->Stats();
  const auto serial_stats = serial.federation->Stats();
  EXPECT_GT(stats.intra_transfers, 0u);
  EXPECT_GT(stats.settlements_completed, 0u);
  EXPECT_EQ(stats.intra_transfers, serial_stats.intra_transfers);
  EXPECT_EQ(stats.settlements_completed, serial_stats.settlements_completed);
  EXPECT_EQ(stats.intra_transfers + stats.settlements_completed,
            parallel_report->fed_ops_applied);
}

TEST(ParallelRunnerTest, RepeatedRunsContinueDeterministically) {
  World a(4, /*serial=*/true, 1);
  a.AddFederation(4);
  World b(4, /*serial=*/false, 8);
  b.AddFederation(4);
  // Two short Runs must equal one long Run regardless of mode: shard RNG
  // streams persist across calls.
  ASSERT_TRUE(a.runner->Run(2).ok());
  ASSERT_TRUE(a.runner->Run(3).ok());
  ASSERT_TRUE(b.runner->Run(2).ok());
  ASSERT_TRUE(b.runner->Run(3).ok());
  const std::string a_hash = a.federation->LedgerHash();
  EXPECT_FALSE(a_hash.empty());
  EXPECT_EQ(b.federation->LedgerHash(), a_hash);
}

TEST(ParallelRunnerTest, RunWithoutShardsFails) {
  sim::Kernel kernel;
  ParallelRunner runner(kernel, {});
  EXPECT_EQ(runner.Run(1).status().code(), StatusCode::kFailedPrecondition);
  // Shards but no ledger to charge fails the same way.
  World world(2, /*serial=*/true, /*threads=*/1);
  EXPECT_EQ(world.runner->Run(1).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(ParallelRunnerFederationChaosTest, ShardCrashMidEscrowSettlesOnce) {
  const fs::path dir = fs::temp_directory_path() / "gm_fed_chaos";
  fs::remove_all(dir);
  fs::create_directories(dir);

  World world(8, /*serial=*/false, /*threads=*/8);
  world.AddFederation(4, dir);

  // Chaos rides a separate thread: crash and restart one bank shard, and
  // wipe two hosts' storage state, while all 8 auction shards are
  // charging the federation, so merges land mid cross-shard escrow —
  // some park on the dead creditor, some die at prepare. The assertions
  // are about exactly-once settlement and conservation after recovery,
  // not determinism (crash timing is wall-clock).
  std::atomic<bool> stop{false};
  gm::Thread chaos([&] {
    std::size_t victim = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      world.fed_shards[victim]->SimulateCrash();
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      (void)world.fed_shards[victim]->Restart();
      world.auctioneers[0]->CrashStorageState();
      world.auctioneers[3]->CrashStorageState();
      victim = (victim + 1) % world.fed_shards.size();
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });

  const auto report = world.runner->Run(40);
  stop.store(true, std::memory_order_relaxed);
  chaos.Join();

  ASSERT_TRUE(report.ok());
  // Every buffered op landed in exactly one bucket: each shard tick
  // buffers four funding -> host transfers.
  const std::uint64_t expected_ops = report->ticks * 4;
  EXPECT_EQ(report->fed_ops_applied + report->fed_ops_failed, expected_ops);

  // Quiesce: restart whatever died, then drive every parked escrow to
  // its exactly-once completion.
  for (const auto& shard : world.fed_shards) {
    if (shard->crashed()) {
      ASSERT_TRUE(shard->Restart().ok());
    }
  }
  ASSERT_TRUE(world.federation->ResumeSettlements(0).ok());
  EXPECT_EQ(world.federation->PendingSettlements(), 0u);
  EXPECT_TRUE(world.federation->CheckConservation().ok());

  // Exactly-once in Money terms: what the fund accounts lost is exactly
  // what the host accounts gained — nothing double-credited, nothing
  // lost in a crashed escrow.
  Money funds;
  Money takes;
  for (std::size_t i = 0; i < world.hosts.size(); ++i) {
    funds +=
        world.federation->Balance("broker/fund-" + std::to_string(i)).value();
    takes +=
        world.federation->Balance("broker/host-" + std::to_string(i)).value();
  }
  EXPECT_EQ(funds + takes,
            Money::Dollars(100.0 * static_cast<double>(world.hosts.size())));

  // Recovery is bit-identical: crash + WAL replay reproduces the exact
  // federation ledger hash.
  const std::string hash_before = world.federation->LedgerHash();
  for (const auto& shard : world.fed_shards) {
    shard->SimulateCrash();
    ASSERT_TRUE(shard->Restart().ok());
  }
  EXPECT_EQ(world.federation->LedgerHash(), hash_before);

  // Note: settlement ids of escrows whose release was lost to a crash
  // are re-claimed on resume, so the reconciler's registry cross-check
  // stays clean and the signed report attests conservation.
  bank::federation::Reconciler reconciler(world.federation.get(),
                                          crypto::TestGroup(), 7);
  const auto sweep = reconciler.Sweep(1000);
  EXPECT_TRUE(sweep.conserved) << sweep.detail;
  EXPECT_TRUE(reconciler.VerifyReport(sweep).ok());

  fs::remove_all(dir);
}

// The federation audits with the runner's pool lent must equal the
// inline walk: the same hash, the same Status code and message.
struct Audit {
  std::string hash;
  Status conservation;
};

Audit RunAudit(const bank::federation::FederationRouter& federation) {
  return {federation.LedgerHash(), federation.CheckConservation()};
}

/// Audits `world` with its runner's pool lent, then inline (the runner
/// takes the pool back for that), expects both to agree, re-lends the
/// pool and returns the audit.
Audit ExpectPooledAuditMatchesInline(World& world) {
  EXPECT_NE(world.federation->audit_pool(), nullptr);
  const Audit pooled = RunAudit(*world.federation);
  world.runner->SetFederation(nullptr);
  EXPECT_EQ(world.federation->audit_pool(), nullptr);
  const Audit inline_walk = RunAudit(*world.federation);
  world.runner->SetFederation(world.federation.get());
  EXPECT_EQ(pooled.hash, inline_walk.hash);
  EXPECT_EQ(pooled.conservation.code(), inline_walk.conservation.code());
  EXPECT_EQ(pooled.conservation.message(), inline_walk.conservation.message());
  return pooled;
}

/// A live account on bank shard `shard` with a positive balance.
std::string FundedAccountOn(World& world, std::size_t shard) {
  for (std::size_t i = 0; i < world.hosts.size(); ++i) {
    for (const std::string& name : {"broker/fund-" + std::to_string(i),
                                   "broker/host-" + std::to_string(i)}) {
      if (bank::federation::StripeFor(name, world.fed_shards.size()) !=
          shard)
        continue;
      const Result<Money> balance = world.federation->Balance(name);
      if (balance.ok() && balance->is_positive()) return name;
    }
  }
  return "";
}

/// Breaks `shard`'s local conservation invariant the way a duplicated
/// journal entry would: a create record (kind 1 in the shard's journal
/// layout) replayed over a live account resets its balance and mints
/// again.
void CorruptShard(World& world, std::size_t shard, Money balance) {
  const std::string account = FundedAccountOn(world, shard);
  ASSERT_FALSE(account.empty()) << "no funded account on shard " << shard;
  net::Writer record;
  record.WriteU8(1);
  record.WriteString(account);
  record.WriteI64(balance.micros());
  ASSERT_TRUE(world.fed_shards[shard]->ApplyRecord(record.data()).ok());
}

TEST(FederationAuditTest, LentPoolAuditsHealthyShardsLikeTheInlineWalk) {
  World serial(16, /*serial=*/true, /*threads=*/1);
  serial.AddFederation(8);
  ASSERT_TRUE(serial.runner->Run(3).ok());
  // A serial runner has no pool to lend.
  EXPECT_EQ(serial.federation->audit_pool(), nullptr);

  World parallel(16, /*serial=*/false, /*threads=*/8);
  parallel.AddFederation(8);
  ASSERT_TRUE(parallel.runner->Run(3).ok());
  const Audit audit = ExpectPooledAuditMatchesInline(parallel);
  EXPECT_TRUE(audit.conservation.ok()) << audit.conservation.message();
  EXPECT_EQ(audit.hash, serial.federation->LedgerHash());
}

TEST(FederationAuditTest, LentPoolAuditsACrashedShardLikeTheInlineWalk) {
  World world(16, /*serial=*/false, /*threads=*/8);
  world.AddFederation(8);
  ASSERT_TRUE(world.runner->Run(3).ok());
  const std::string healthy = world.federation->LedgerHash();
  world.fed_shards[2]->SimulateCrash();
  const Audit audit = ExpectPooledAuditMatchesInline(world);
  EXPECT_NE(audit.hash, healthy);
  EXPECT_EQ(audit.conservation.code(), StatusCode::kUnavailable);
  EXPECT_NE(audit.conservation.message().find("shard 2 is down"),
            std::string::npos)
      << audit.conservation.message();
}

TEST(FederationAuditTest, LentPoolCountsCreditedButUnreleasedHolds) {
  World world(16, /*serial=*/false, /*threads=*/8);
  world.AddFederation(8);
  ASSERT_TRUE(world.runner->Run(2).ok());
  // Phases 1 and 2 of a cross-shard settlement, but no release: the hold
  // still counts on the debtor while the creditor already has the money.
  const std::string from = FundedAccountOn(world, 0);
  ASSERT_FALSE(from.empty());
  std::string to;
  for (std::size_t i = 0; i < world.hosts.size() && to.empty(); ++i) {
    const std::string name = "broker/host-" + std::to_string(i);
    if (bank::federation::StripeFor(name, world.fed_shards.size()) != 0)
      to = name;
  }
  ASSERT_FALSE(to.empty());
  bank::federation::BankShard* debtor = world.federation->ShardFor(from);
  bank::federation::BankShard* creditor = world.federation->ShardFor(to);
  bank::federation::SettlementLeg leg;
  leg.from = &from;
  leg.to = &to;
  leg.amount = Money::FromMicros(7);
  debtor->PrepareDebits({&leg, 1}, 0);
  ASSERT_TRUE(leg.status.ok()) << leg.status.message();
  creditor->ApplyCredits({&leg, 1}, 0);
  ASSERT_TRUE(leg.status.ok()) << leg.status.message();
  ASSERT_EQ(world.federation->PendingSettlements(), 1u);

  const Audit audit = ExpectPooledAuditMatchesInline(world);
  EXPECT_TRUE(audit.conservation.ok()) << audit.conservation.message();
}

TEST(FederationAuditTest, FirstFailingShardInIndexOrderDecides) {
  World world(16, /*serial=*/false, /*threads=*/8);
  world.AddFederation(8);
  ASSERT_TRUE(world.runner->Run(2).ok());
  CorruptShard(world, 3, Money::FromMicros(11));
  CorruptShard(world, 5, Money::FromMicros(13));
  // Shard 6 being down comes after shard 3's violation in index order.
  world.fed_shards[6]->SimulateCrash();
  Audit audit = ExpectPooledAuditMatchesInline(world);
  EXPECT_EQ(audit.conservation.code(), StatusCode::kInternal);
  EXPECT_NE(audit.conservation.message().find("shard 3 conservation"),
            std::string::npos)
      << audit.conservation.message();

  // Shard 1 being down comes first.
  world.fed_shards[1]->SimulateCrash();
  audit = ExpectPooledAuditMatchesInline(world);
  EXPECT_EQ(audit.conservation.code(), StatusCode::kUnavailable);
  EXPECT_NE(audit.conservation.message().find("shard 1 is down"),
            std::string::npos)
      << audit.conservation.message();
}

TEST(FederationAuditTest, RunnerDestroyedFirstLeavesInlineAudits) {
  World world(8, /*serial=*/false, /*threads=*/4);
  world.AddFederation(4);
  ASSERT_TRUE(world.runner->Run(2).ok());
  const Audit pooled = RunAudit(*world.federation);
  world.runner.reset();
  EXPECT_EQ(world.federation->audit_pool(), nullptr);
  const Audit after = RunAudit(*world.federation);
  EXPECT_EQ(after.hash, pooled.hash);
  EXPECT_TRUE(after.conservation.ok()) << after.conservation.message();
}

TEST(FederationAuditTest, RunnerTakesBackOnlyItsOwnPool) {
  World world(8, /*serial=*/false, /*threads=*/4);
  world.AddFederation(4);
  ASSERT_TRUE(world.runner->Run(2).ok());
  const std::string hash = world.federation->LedgerHash();

  // A second runner lends its pool to the same federation; destroying
  // the first must leave the second's loan in place.
  sim::Kernel kernel;
  ParallelRunnerConfig config;
  config.threads = 2;
  ParallelRunner other(kernel, config);
  other.SetFederation(world.federation.get());
  gm::ThreadPool* lent = world.federation->audit_pool();
  ASSERT_NE(lent, nullptr);
  world.runner.reset();
  EXPECT_EQ(world.federation->audit_pool(), lent);
  EXPECT_EQ(world.federation->LedgerHash(), hash);
}

}  // namespace
}  // namespace gm::host
