#include "core/grid_market.hpp"

#include <gtest/gtest.h>

#include <set>
#include <string>

namespace gm {
namespace {

GridMarket::Config SmallConfig() {
  GridMarket::Config config;
  config.hosts = 4;
  config.cpus_per_host = 2;
  config.cycles_per_cpu = 1000.0;  // tiny units for fast tests
  config.virtualization_overhead = 0.0;
  config.vm_boot_time = sim::Seconds(5);
  config.plugin.reference_capacity = 1000.0;
  config.seed = 7;
  return config;
}

grid::JobDescription SmallJob(int count, int chunks,
                              double cpu_minutes = 1.0,
                              double wall_minutes = 120.0) {
  grid::JobDescription description;
  description.executable = "/bin/work";
  description.job_name = "small";
  description.count = count;
  description.chunks = chunks;
  description.cpu_time_minutes = cpu_minutes;
  description.wall_time_minutes = wall_minutes;
  description.input_files = {{"in.dat", 10.0}};
  description.output_files = {{"out.dat", 1.0}};
  return description;
}

TEST(GridMarketTest, ConstructionPublishesHosts) {
  GridMarket grid(SmallConfig());
  EXPECT_EQ(grid.host_count(), 4u);
  // Publishers register immediately.
  EXPECT_EQ(grid.sls().live_count(), 4u);
}

TEST(GridMarketTest, UserRegistration) {
  GridMarket grid(SmallConfig());
  EXPECT_TRUE(grid.RegisterUser("alice", Money::Dollars(500.0)).ok());
  EXPECT_EQ(grid.RegisterUser("alice").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(grid.UserBankBalance("alice").value(), Money::Dollars(500.0));
  EXPECT_FALSE(grid.UserBankBalance("bob").ok());
}

TEST(GridMarketTest, PayBrokerMovesMoneyAndMintsToken) {
  GridMarket grid(SmallConfig());
  ASSERT_TRUE(grid.RegisterUser("alice", Money::Dollars(100.0)).ok());
  const auto token = grid.PayBroker("alice", Money::Dollars(40.0));
  ASSERT_TRUE(token.ok());
  EXPECT_EQ(token->receipt.amount, Money::Dollars(40.0));
  EXPECT_EQ(token->receipt.to_account, "broker");
  EXPECT_EQ(grid.UserBankBalance("alice").value(), Money::Dollars(60.0));
  EXPECT_FALSE(grid.PayBroker("alice", Money::Dollars(1000.0)).ok());  // insufficient
  EXPECT_FALSE(grid.PayBroker("nobody", Money::Dollars(1.0)).ok());
}

TEST(GridMarketTest, SubmitAndFinishJob) {
  GridMarket grid(SmallConfig());
  ASSERT_TRUE(grid.RegisterUser("alice", Money::Dollars(100.0)).ok());
  const auto job_id =
      grid.SubmitJob("alice", SmallJob(2, 4), Money::Dollars(10.0));
  ASSERT_TRUE(job_id.ok()) << job_id.status().ToString();
  grid.RunUntil(sim::Hours(1));
  const auto job = grid.Job(*job_id);
  ASSERT_TRUE(job.ok());
  EXPECT_EQ((*job)->state, grid::JobState::kFinished) << (*job)->failure;
  EXPECT_TRUE(grid.CheckInvariants().ok());
  EXPECT_EQ(grid.Jobs().size(), 1u);
}

TEST(GridMarketTest, SubmitXrslText) {
  GridMarket grid(SmallConfig());
  ASSERT_TRUE(grid.RegisterUser("alice", Money::Dollars(100.0)).ok());
  const auto job_id = grid.SubmitXrsl(
      "alice",
      "&(executable=\"/bin/x\")(count=1)(cpuTime=\"1\")(wallTime=\"60\")", Money::Dollars(5.0));
  ASSERT_TRUE(job_id.ok()) << job_id.status().ToString();
  grid.RunUntil(sim::Minutes(30));
  EXPECT_EQ(grid.Job(*job_id).value()->state, grid::JobState::kFinished);
}

TEST(GridMarketTest, BoostJobAddsBudget) {
  GridMarket grid(SmallConfig());
  ASSERT_TRUE(grid.RegisterUser("alice", Money::Dollars(100.0)).ok());
  const auto job_id =
      grid.SubmitJob("alice", SmallJob(1, 8, 2.0), Money::Dollars(5.0));
  ASSERT_TRUE(job_id.ok());
  grid.RunFor(sim::Minutes(1));
  ASSERT_TRUE(grid.BoostJob("alice", *job_id, Money::Dollars(20.0)).ok());
  EXPECT_EQ(grid.Job(*job_id).value()->budget, Money::Dollars(25.0));
}

TEST(GridMarketTest, HostPriceStatsReflectLoad) {
  GridMarket grid(SmallConfig());
  ASSERT_TRUE(grid.RegisterUser("alice", Money::Dollars(1000.0)).ok());
  const auto job_id =
      grid.SubmitJob("alice", SmallJob(4, 8, 30.0), Money::Dollars(100.0));
  ASSERT_TRUE(job_id.ok());
  grid.RunFor(sim::Minutes(20));
  const auto stats = grid.HostPriceStats("hour");
  ASSERT_TRUE(stats.ok());
  ASSERT_EQ(stats->size(), 4u);
  double total_mean = 0.0;
  for (const auto& host : *stats) {
    EXPECT_GT(host.capacity, 0.0);
    total_mean += host.mean_price;
  }
  EXPECT_GT(total_mean, 0.0);  // the job's bids moved prices
  EXPECT_FALSE(grid.HostPriceStats("nonexistent-window").ok());
}

TEST(GridMarketTest, HeterogeneousClusterSpeeds) {
  GridMarket::Config config = SmallConfig();
  config.heterogeneity = 0.5;
  GridMarket grid(config);
  const double slowest =
      grid.auctioneer(0).physical_host().spec().cycles_per_cpu;
  const double fastest =
      grid.auctioneer(3).physical_host().spec().cycles_per_cpu;
  EXPECT_DOUBLE_EQ(slowest, 500.0);
  EXPECT_DOUBLE_EQ(fastest, 1500.0);
}

TEST(GridMarketTest, MonitorOutputsCluster) {
  GridMarket grid(SmallConfig());
  ASSERT_TRUE(grid.RegisterUser("alice", Money::Dollars(100.0)).ok());
  ASSERT_TRUE(
      grid.SubmitJob("alice", SmallJob(1, 1), Money::Dollars(1.0)).ok());
  grid.RunFor(sim::Minutes(1));
  const std::string monitor = grid.Monitor();
  EXPECT_NE(monitor.find("h00"), std::string::npos);
  EXPECT_NE(monitor.find("small"), std::string::npos);
}

TEST(GridMarketTest, DeterministicAcrossRuns) {
  auto run = [] {
    GridMarket grid(SmallConfig());
    EXPECT_TRUE(grid.RegisterUser("alice", Money::Dollars(100.0)).ok());
    const auto job_id =
        grid.SubmitJob("alice", SmallJob(2, 6, 1.5), Money::Dollars(10.0));
    EXPECT_TRUE(job_id.ok());
    grid.RunUntil(sim::Hours(2));
    const auto job = grid.Job(*job_id);
    EXPECT_TRUE(job.ok());
    return std::make_pair((*job)->spent, (*job)->finished_at);
  };
  const auto first = run();
  const auto second = run();
  EXPECT_EQ(first, second);
}

// A crashed host stops heartbeating, and its SLS record's age is the only
// failure detector: once the TTL lapses the host leaves the directory,
// new jobs never fund it, and the jobs it ran migrate to the survivors.
TEST(GridMarketTest, CrashedHostAgesOutOfTheDirectoryAndJobsMigrate) {
  GridMarket::Config config = SmallConfig();
  config.bank_shards = 2;
  GridMarket grid(config);
  ASSERT_TRUE(grid.RegisterUser("alice", Money::Dollars(100.0)).ok());
  const auto in_directory = [&grid](const std::string& host_id) {
    for (const market::HostRecord& record : grid.sls().Query({}))
      if (record.host_id == host_id) return true;
    return false;
  };

  // 8 chunks of 2 cpu-minutes on 2 hosts: still running at the crash.
  const Money budget = Money::Dollars(10.0);
  const auto running = grid.SubmitJob("alice", SmallJob(2, 8, 2.0), budget);
  ASSERT_TRUE(running.ok()) << running.status().ToString();
  grid.RunFor(sim::Minutes(2));
  const grid::JobRecord* first = *grid.Job(*running);
  ASSERT_EQ(first->state, grid::JobState::kRunning) << first->failure;
  ASSERT_EQ(first->hosts_used.size(), 2u);
  const std::string victim = first->hosts_used[0];
  std::size_t victim_index = grid.host_count();
  for (std::size_t i = 0; i < grid.host_count(); ++i)
    if (grid.auctioneer(i).physical_host().id() == victim) victim_index = i;
  std::set<int> done_before_crash;
  for (const grid::SubJobRecord& subjob : first->subjobs)
    if (subjob.completed) done_before_crash.insert(subjob.ordinal);

  ASSERT_TRUE(grid.CrashHost(victim_index).ok());
  EXPECT_EQ(grid.CrashHost(victim_index).code(),
            StatusCode::kFailedPrecondition);
  // Within the 5 min TTL the record still stands.
  grid.RunFor(sim::Minutes(4));
  EXPECT_TRUE(in_directory(victim));
  // Past it, the host is gone from queries and dead to the scheduler,
  // whose next liveness check has moved the running job off it.
  grid.RunFor(sim::Minutes(6));
  EXPECT_FALSE(in_directory(victim));
  EXPECT_EQ(grid.sls().live_count(), grid.host_count() - 1);
  EXPECT_EQ(grid.broker().plugin().HostHealth(victim),
            grid::HostHealthState::kDead);
  EXPECT_EQ(grid.broker().plugin().migrations(), 1u);

  // A job that asks for every host neither bids on nor funds the dead one.
  const auto later = grid.SubmitJob("alice", SmallJob(4, 4), budget);
  ASSERT_TRUE(later.ok()) << later.status().ToString();
  const grid::JobRecord* second = *grid.Job(*later);
  EXPECT_FALSE(second->hosts_used.empty());
  for (const std::string& host : second->hosts_used) EXPECT_NE(host, victim);
  EXPECT_FALSE(grid.auctioneer(victim_index).HasAccount(second->account));

  grid.RunUntil(sim::Hours(2));
  for (const grid::JobRecord* job : {first, second}) {
    EXPECT_EQ(job->state, grid::JobState::kFinished) << job->failure;
    // Every micro-dollar is spent or back in the job's sub-account.
    EXPECT_EQ(grid.bank().Balance(job->account).value(),
              job->budget - job->spent);
  }
  // The chunks the crash interrupted finished on the survivors.
  for (const grid::SubJobRecord& subjob : first->subjobs) {
    EXPECT_TRUE(subjob.completed);
    if (done_before_crash.count(subjob.ordinal) == 0) {
      EXPECT_NE(subjob.host_id, victim) << "ordinal " << subjob.ordinal;
    }
  }
  EXPECT_FALSE(grid.auctioneer(victim_index).HasAccount(first->account));

  // A restart heartbeats at once: healthy and back in the directory.
  ASSERT_TRUE(grid.RestartHost(victim_index).ok());
  EXPECT_EQ(grid.RestartHost(victim_index).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(grid.broker().plugin().HostHealth(victim),
            grid::HostHealthState::kHealthy);
  EXPECT_TRUE(in_directory(victim));
  grid.RunFor(sim::Minutes(10));
  for (const grid::HostHealthInfo& info : grid.HostHealthReport())
    EXPECT_EQ(info.state, grid::HostHealthState::kHealthy) << info.host_id;

  EXPECT_TRUE(grid.CheckInvariants().ok());
  const auto report = grid.Reconcile();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->conserved) << report->detail;
}

}  // namespace
}  // namespace gm
