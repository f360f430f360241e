// End-to-end telemetry through the assembled GridMarket: one submission
// must produce a complete causal chain (submit -> fund-verify -> bid ->
// execute -> stage-out -> refund) with every lifecycle span appearing
// exactly once, CollectMetrics must export the totals the components
// keep in their own structs, and migrations count as they happen.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "core/grid_market.hpp"

namespace gm {
namespace {

GridMarket::Config TelemetryConfig() {
  GridMarket::Config config;
  config.hosts = 4;
  config.cpus_per_host = 2;
  config.cycles_per_cpu = 1000.0;  // tiny units for fast tests
  config.virtualization_overhead = 0.0;
  config.vm_boot_time = sim::Seconds(5);
  config.plugin.reference_capacity = 1000.0;
  config.seed = 7;
  config.telemetry.enabled = true;
  return config;
}

grid::JobDescription SmallJob() {
  grid::JobDescription description;
  description.executable = "/bin/work";
  description.job_name = "traced";
  description.count = 2;
  description.chunks = 4;
  description.cpu_time_minutes = 1.0;
  description.wall_time_minutes = 120.0;
  description.input_files = {{"in.dat", 10.0}};
  description.output_files = {{"out.dat", 1.0}};
  return description;
}

int CountSpans(const std::vector<telemetry::SpanEvent>& events,
               const std::string& name) {
  int n = 0;
  for (const auto& event : events)
    if (event.name == name && !event.instant) ++n;
  return n;
}

TEST(TelemetryE2eTest, JobLifecycleIsOneCompleteSpanChain) {
  GridMarket grid(TelemetryConfig());
  ASSERT_TRUE(grid.RegisterUser("alice", Money::Dollars(100.0)).ok());
  const auto job_id = grid.SubmitJob("alice", SmallJob(), Money::Dollars(10.0));
  ASSERT_TRUE(job_id.ok()) << job_id.status().ToString();
  grid.RunUntil(sim::Hours(1));
  const auto job = grid.Job(*job_id);
  ASSERT_TRUE(job.ok());
  ASSERT_EQ((*job)->state, grid::JobState::kFinished) << (*job)->failure;
  EXPECT_NE((*job)->trace, 0u);

  const auto events = grid.JobTrace(*job_id);
  ASSERT_TRUE(events.ok()) << events.status().ToString();
  // Each lifecycle phase is exactly one span — retries and re-bids never
  // double-count work.
  for (const char* name :
       {"submit", "fund-verify", "bid", "stage-in", "execute", "stage-out",
        "refund"}) {
    EXPECT_EQ(CountSpans(*events, name), 1) << "span: " << name;
  }
  // Everything closed ok, ordered by start time.
  sim::SimTime last_start = -1;
  for (const auto& event : *events) {
    EXPECT_GE(event.start, last_start);
    last_start = event.start;
    if (!event.instant) {
      EXPECT_EQ(event.status, telemetry::SpanStatus::kOk)
          << event.name << " left " << telemetry::SpanStatusName(event.status);
      EXPECT_GE(event.end, event.start) << event.name;
    }
  }
  // The market charged the job at least once along the way.
  EXPECT_GE(CountSpans(*events, "submit"), 1);
  int ticks = 0;
  for (const auto& event : *events)
    if (event.name == "auction-tick") ++ticks;
  EXPECT_GT(ticks, 0);

  // Hot-path metrics accumulated while the job ran.
  const auto snapshot = grid.CollectMetrics();
  ASSERT_TRUE(snapshot.ok());
  EXPECT_GT(snapshot->CounterOr("market.auction.ticks"), 0u);
  EXPECT_GT(snapshot->CounterOr("bank.transfers"), 0u);
  // The bank signs only the user's payment into the broker (one PayBroker
  // per submit); the broker and escrow moves after it are unsigned.
  EXPECT_EQ(snapshot->CounterOr("bank.receipts_signed"), 1u);
  EXPECT_LT(snapshot->CounterOr("bank.receipts_signed"),
            snapshot->CounterOr("bank.transfers"));
  EXPECT_GT(snapshot->summaries.at("predict.persistence.abs_err").count, 0u);
}

TEST(TelemetryE2eTest, DisabledTelemetryLeavesNoTrace) {
  GridMarket::Config config = TelemetryConfig();
  config.telemetry.enabled = false;
  GridMarket grid(config);
  ASSERT_TRUE(grid.RegisterUser("alice", Money::Dollars(100.0)).ok());
  const auto job_id = grid.SubmitJob("alice", SmallJob(), Money::Dollars(10.0));
  ASSERT_TRUE(job_id.ok());
  grid.RunUntil(sim::Hours(1));
  EXPECT_EQ(grid.telemetry(), nullptr);
  EXPECT_EQ(grid.Job(*job_id).value()->trace, 0u);
  EXPECT_FALSE(grid.CollectMetrics().ok());
  EXPECT_FALSE(grid.JobTrace(*job_id).ok());
}

TEST(TelemetryE2eTest, JsonlExportRoundTrips) {
  GridMarket grid(TelemetryConfig());
  ASSERT_TRUE(grid.RegisterUser("alice", Money::Dollars(100.0)).ok());
  const auto job_id = grid.SubmitJob("alice", SmallJob(), Money::Dollars(10.0));
  ASSERT_TRUE(job_id.ok());
  grid.RunUntil(sim::Hours(1));

  const std::string path =
      ::testing::TempDir() + "/telemetry_e2e_export.jsonl";
  ASSERT_TRUE(grid.WriteTelemetryJsonl(path).ok());
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  std::size_t lines = 0;
  bool saw_span = false;
  while (std::getline(in, line)) {
    ASSERT_FALSE(line.empty());
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    if (line.find("\"kind\":\"span\"") != std::string::npos) saw_span = true;
    ++lines;
  }
  EXPECT_GT(lines, 10u);
  EXPECT_TRUE(saw_span);
}

TEST(TelemetryE2eTest, CollectMetricsExportsTheComponentStructs) {
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / "gm_telemetry_collect";
  std::filesystem::remove_all(dir);
  GridMarket::Config config = TelemetryConfig();
  config.storage.durable = true;
  config.storage.dir = dir.string();
  config.bank_shards = 3;
  GridMarket grid(config);
  ASSERT_TRUE(grid.RegisterUser("alice", Money::Dollars(100.0)).ok());
  ASSERT_TRUE(grid.SubmitJob("alice", SmallJob(), Money::Dollars(10.0)).ok());
  grid.RunUntil(sim::Minutes(20));
  ASSERT_TRUE(grid.Reconcile().ok());
  ASSERT_TRUE(grid.Reconcile().ok());

  // The reconciler counts its own sweeps into the registry as they run:
  // no collection pass is needed to see them.
  const telemetry::MetricsSnapshot live =
      grid.telemetry()->metrics().Snapshot();
  EXPECT_EQ(live.CounterOr("fed.reconcile.sweeps"), 2u);
  EXPECT_EQ(live.GaugeOr("fed.reconcile.conserved"), 1.0);

  const auto snapshot = grid.CollectMetrics();
  ASSERT_TRUE(snapshot.ok());
  const std::vector<grid::StoreRow> rows = grid.StoreRows();
  ASSERT_EQ(rows.size(), 2u + config.hosts + config.bank_shards);
  for (const grid::StoreRow& row : rows) {
    const std::string prefix = "store." + row.component + ".";
    EXPECT_GT(row.stats.appended_records, 0u) << row.component;
    EXPECT_EQ(snapshot->CounterOr(prefix + "appended_records"),
              row.stats.appended_records)
        << row.component;
    EXPECT_EQ(snapshot->CounterOr(prefix + "appended_bytes"),
              row.stats.appended_bytes)
        << row.component;
    EXPECT_EQ(snapshot->CounterOr(prefix + "recoveries"),
              row.stats.recoveries)
        << row.component;
  }

  for (std::size_t k = 0; k < grid.bank_shard_count(); ++k) {
    const bank::federation::ShardSnapshotInfo info =
        grid.bank_shard(k).SnapshotInfo();
    const std::string prefix = "fed.shard" + std::to_string(k) + ".";
    EXPECT_EQ(snapshot->CounterOr(prefix + "accounts"), info.accounts);
    EXPECT_EQ(snapshot->CounterOr(prefix + "open_holds"), info.open_holds);
    EXPECT_EQ(snapshot->CounterOr(prefix + "applied"),
              info.applied_settlements);
    EXPECT_EQ(snapshot->GaugeOr(prefix + "balance_dollars"),
              info.balance_total.dollars());
    EXPECT_EQ(snapshot->CounterOr(prefix + "crashed"), 0u);
  }
  EXPECT_EQ(snapshot->CounterOr("fed.reconcile.sweeps"), 2u);
  EXPECT_EQ(snapshot->GaugeOr("fed.reconcile.conserved"), 1.0);
}

// A migration off a crashed host lands in the registry as it happens and
// on the job's trace next to the crash.
TEST(TelemetryE2eTest, MigrationCountsIntoTheRegistryAndTheTrace) {
  GridMarket grid(TelemetryConfig());
  ASSERT_TRUE(grid.RegisterUser("alice", Money::Dollars(100.0)).ok());
  grid::JobDescription long_job = SmallJob();
  long_job.cpu_time_minutes = 10.0;
  const auto job_id = grid.SubmitJob("alice", long_job, Money::Dollars(10.0));
  ASSERT_TRUE(job_id.ok()) << job_id.status().ToString();
  grid.RunFor(sim::Minutes(2));
  const std::string victim = (*grid.Job(*job_id))->hosts_used.at(0);
  for (std::size_t i = 0; i < grid.host_count(); ++i) {
    if (grid.auctioneer(i).physical_host().id() == victim) {
      ASSERT_TRUE(grid.CrashHost(i).ok());
    }
  }
  grid.RunFor(sim::Minutes(10));  // past the TTL and one liveness check

  const std::uint64_t migrations = grid.broker().plugin().migrations();
  EXPECT_EQ(migrations, 1u);
  EXPECT_EQ(grid.telemetry()->metrics().Snapshot().CounterOr(
                "grid.agent.migrations"),
            migrations);
  const auto events = grid.JobTrace(*job_id);
  ASSERT_TRUE(events.ok()) << events.status().ToString();
  sim::SimTime crashed_at = -1;
  sim::SimTime migrated_at = -1;
  for (const auto& event : *events) {
    if (event.name == "host-crash") crashed_at = event.start;
    if (event.name == "migrate") migrated_at = event.start;
  }
  ASSERT_GE(crashed_at, 0);
  EXPECT_GT(migrated_at, crashed_at);
}

}  // namespace
}  // namespace gm
