// End-to-end durability tests over the assembled GridMarket: bank crash
// and restart mid-experiment with an exact ledger match, host restarts
// that warm-start the forecaster window, and warm boots of a whole grid
// from an existing storage directory.
#include <gtest/gtest.h>

#include <filesystem>

#include "core/grid_market.hpp"

namespace gm {
namespace {

namespace fs = std::filesystem;

fs::path FreshDir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / ("gm_grid_" + name);
  fs::remove_all(dir);
  return dir;
}

GridMarket::Config DurableConfig(const fs::path& dir) {
  GridMarket::Config config;
  config.hosts = 4;
  config.cpus_per_host = 2;
  config.cycles_per_cpu = 1000.0;
  config.virtualization_overhead = 0.0;
  config.vm_boot_time = sim::Seconds(5);
  config.plugin.reference_capacity = 1000.0;
  config.seed = 7;
  config.storage.durable = true;
  config.storage.dir = dir.string();
  return config;
}

grid::JobDescription SmallJob(int count, int chunks,
                              double cpu_minutes = 1.0) {
  grid::JobDescription description;
  description.executable = "/bin/work";
  description.job_name = "small";
  description.count = count;
  description.chunks = chunks;
  description.cpu_time_minutes = cpu_minutes;
  description.wall_time_minutes = 240.0;
  return description;
}

TEST(GridMarketDurabilityTest, CrashBankRequiresDurableStorage) {
  GridMarket::Config config = DurableConfig(FreshDir("gate"));
  config.storage.durable = false;
  config.storage.dir.clear();
  GridMarket grid(config);
  EXPECT_EQ(grid.CrashBank().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(grid.RestartBank().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(grid.StorageMonitor().find("in-memory"), std::string::npos);
}

TEST(GridMarketDurabilityTest, BankCrashMidExperimentRecoversExactLedger) {
  const fs::path dir = FreshDir("bankcrash");
  GridMarket grid(DurableConfig(dir));
  ASSERT_TRUE(grid.RegisterUser("alice", Money::Dollars(100.0)).ok());
  // Long enough that the crash window below falls mid-run, before any
  // settlement needs the bank.
  const auto job_id =
      grid.SubmitJob("alice", SmallJob(2, 4, /*cpu_minutes=*/30.0), Money::Dollars(10.0));
  ASSERT_TRUE(job_id.ok()) << job_id.status().ToString();
  grid.RunFor(sim::Minutes(2));

  const std::string hash_before = grid.bank().LedgerHash();
  ASSERT_TRUE(grid.CrashBank().ok());
  EXPECT_TRUE(grid.bank_crashed());
  // The bank is down: client-side money flows fail Unavailable.
  EXPECT_EQ(grid.PayBroker("alice", Money::Dollars(1.0)).status().code(),
            StatusCode::kUnavailable);
  grid.RunFor(sim::Minutes(1));

  ASSERT_TRUE(grid.RestartBank().ok());
  EXPECT_FALSE(grid.bank_crashed());
  // The replayed ledger is bit-identical to the pre-crash one.
  EXPECT_EQ(grid.bank().LedgerHash(), hash_before);
  EXPECT_TRUE(grid.CheckInvariants().ok());

  // The experiment carries on: the job still finishes and settles.
  grid.RunUntil(sim::Hours(3));
  const auto job = grid.Job(*job_id);
  ASSERT_TRUE(job.ok());
  EXPECT_EQ((*job)->state, grid::JobState::kFinished) << (*job)->failure;
  EXPECT_TRUE(grid.CheckInvariants().ok());
}

TEST(GridMarketDurabilityTest, RestartedHostWarmStartsPriceWindow) {
  const fs::path dir = FreshDir("hostwarm");
  GridMarket grid(DurableConfig(dir));
  ASSERT_TRUE(grid.RegisterUser("alice", Money::Dollars(100.0)).ok());
  ASSERT_TRUE(
      grid.SubmitJob("alice", SmallJob(2, 4), Money::Dollars(20.0)).ok());
  grid.RunFor(sim::Minutes(10));

  const std::size_t points_before = grid.auctioneer(0).history().size();
  ASSERT_GT(points_before, 0u);

  ASSERT_TRUE(grid.CrashHost(0).ok());
  EXPECT_TRUE(grid.auctioneer(0).history().empty());
  ASSERT_TRUE(grid.RestartHost(0).ok());
  // The journal replays the window the crash wiped.
  EXPECT_GE(grid.auctioneer(0).history().size(), points_before);
  grid.RunFor(sim::Minutes(2));
  EXPECT_GT(grid.auctioneer(0).history().size(), points_before);
}

TEST(GridMarketDurabilityTest, WarmBootRestoresLedgerAndDirectory) {
  const fs::path dir = FreshDir("warmboot");
  std::string hash_before;
  Money alice_balance;
  std::size_t history_points = 0;
  {
    GridMarket grid(DurableConfig(dir));
    ASSERT_TRUE(grid.RegisterUser("alice", Money::Dollars(250.0)).ok());
    ASSERT_TRUE(grid.PayBroker("alice", Money::Dollars(50.0)).ok());
    grid.RunFor(sim::Minutes(5));
    hash_before = grid.bank().LedgerHash();
    alice_balance = grid.UserBankBalance("alice").value();
    history_points = grid.auctioneer(0).history().size();
    ASSERT_GT(history_points, 0u);
  }
  // A brand-new process over the same directory: the ledger, directory
  // and price windows come back; the broker account is not re-created.
  GridMarket grid(DurableConfig(dir));
  EXPECT_EQ(grid.bank().LedgerHash(), hash_before);
  EXPECT_EQ(grid.UserBankBalance("alice").value(), alice_balance);
  EXPECT_GE(grid.auctioneer(0).history().size(), history_points);
  EXPECT_TRUE(grid.CheckInvariants().ok());
  // The clock resumed past the recovered timestamps.
  EXPECT_GE(grid.now(), grid.auctioneer(0).history().back().at);
  // The warm grid keeps working end-to-end.
  ASSERT_TRUE(grid.RegisterUser("bob", Money::Dollars(100.0)).ok());
  const auto job_id =
      grid.SubmitJob("bob", SmallJob(1, 2), Money::Dollars(10.0));
  ASSERT_TRUE(job_id.ok()) << job_id.status().ToString();
  grid.RunFor(sim::Hours(1));
  EXPECT_EQ((*grid.Job(*job_id))->state, grid::JobState::kFinished);
}

// A warm boot fast-forwards the clock past the journals before any host
// heartbeats again. The recovered SLS records are as old as the last
// process left them, so liveness must never act in that gap.
TEST(GridMarketDurabilityTest, WarmBootNeverMarksAHostDead) {
  const fs::path dir = FreshDir("warmhealth");
  {
    GridMarket grid(DurableConfig(dir));
    ASSERT_TRUE(grid.RegisterUser("alice", Money::Dollars(100.0)).ok());
    const auto job_id =
        grid.SubmitJob("alice", SmallJob(2, 8, /*cpu_minutes=*/30.0),
                       Money::Dollars(10.0));
    ASSERT_TRUE(job_id.ok()) << job_id.status().ToString();
    grid.RunFor(sim::Minutes(20));
    // Shut down mid-job.
    ASSERT_EQ((*grid.Job(*job_id))->state, grid::JobState::kRunning);
  }
  GridMarket grid(DurableConfig(dir));
  EXPECT_GE(grid.now(), sim::Minutes(20));
  for (const grid::HostHealthInfo& info : grid.HostHealthReport()) {
    EXPECT_EQ(info.state, grid::HostHealthState::kHealthy) << info.host_id;
    EXPECT_EQ(info.last_heartbeat, grid.now()) << info.host_id;
  }
  EXPECT_EQ(grid.sls().live_count(), grid.host_count());

  // A job on the warm grid runs to the end without a single migration.
  ASSERT_TRUE(grid.RegisterUser("bob", Money::Dollars(100.0)).ok());
  const auto job_id =
      grid.SubmitJob("bob", SmallJob(2, 4), Money::Dollars(10.0));
  ASSERT_TRUE(job_id.ok()) << job_id.status().ToString();
  grid.RunFor(sim::Hours(1));
  EXPECT_EQ((*grid.Job(*job_id))->state, grid::JobState::kFinished);
  EXPECT_EQ(grid.broker().plugin().migrations(), 0u);
  for (const grid::HostHealthInfo& info : grid.HostHealthReport())
    EXPECT_EQ(info.state, grid::HostHealthState::kHealthy) << info.host_id;
  EXPECT_TRUE(grid.CheckInvariants().ok());
}

TEST(GridMarketDurabilityTest, StorageMonitorRendersPerStoreCounters) {
  const fs::path dir = FreshDir("monitor");
  GridMarket grid(DurableConfig(dir));
  ASSERT_TRUE(grid.RegisterUser("alice", Money::Dollars(10.0)).ok());
  grid.RunFor(sim::Minutes(1));
  const std::string monitor = grid.StorageMonitor();
  EXPECT_NE(monitor.find("bank"), std::string::npos);
  EXPECT_NE(monitor.find("sls"), std::string::npos);
  EXPECT_NE(monitor.find("price/h00"), std::string::npos);
  EXPECT_NE(monitor.find("price/h03"), std::string::npos);
}

std::size_t CountOf(const std::string& text, const std::string& needle) {
  std::size_t count = 0;
  for (std::size_t at = text.find(needle); at != std::string::npos;
       at = text.find(needle, at + 1))
    ++count;
  return count;
}

TEST(GridMarketDurabilityTest, FederationMonitorRendersShardsAndSweeps) {
  const fs::path dir = FreshDir("fedmonitor");
  GridMarket::Config config = DurableConfig(dir);
  config.bank_shards = 11;  // shard10 must follow shard9, not shard1
  GridMarket grid(config);
  ASSERT_TRUE(grid.RegisterUser("alice", Money::Dollars(10.0)).ok());

  // The whole table, byte for byte: shards in index order, alice's
  // mirrored account on its stripe, no sweep yet.
  const std::string rows =
      "shard     accounts    balance($)  pending  applied  state\n"
      "shard0           0          0.00        0        0     up\n"
      "shard1           0          0.00        0        0     up\n"
      "shard2           1          0.00        0        0     up\n"
      "shard3           0          0.00        0        0     up\n"
      "shard4           0          0.00        0        0     up\n"
      "shard5           1          0.00        0        0     up\n"
      "shard6           1          0.00        0        0     up\n"
      "shard7           0          0.00        0        0     up\n"
      "shard8           0          0.00        0        0     up\n"
      "shard9           1          0.00        0        0     up\n"
      "shard10          1         10.00        0        0     up\n";
  std::string monitor = grid.FederationMonitor();
  EXPECT_EQ(monitor, rows + "reconcile: (no sweep yet)\n");

  const auto report = grid.Reconcile();
  ASSERT_TRUE(report.ok());
  ASSERT_TRUE(report->conserved) << report->detail;
  monitor = grid.FederationMonitor();
  EXPECT_NE(monitor.find("reconcile: sweeps=1 conserved=yes\n"),
            std::string::npos)
      << monitor;

  ASSERT_TRUE(grid.CrashBankShard(3).ok());
  monitor = grid.FederationMonitor();
  EXPECT_NE(monitor.find("\nshard3           0          0.00        0        "
                         "0   down\n"),
            std::string::npos)
      << monitor;
  EXPECT_EQ(CountOf(monitor, "  down\n"), 1u) << monitor;
  EXPECT_EQ(CountOf(monitor, "    up\n"), 10u) << monitor;
  ASSERT_TRUE(grid.RestartBankShard(3).ok());
}

}  // namespace
}  // namespace gm
