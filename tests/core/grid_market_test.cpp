#include "core/grid_market.hpp"

#include <gtest/gtest.h>

#include <map>
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

// The failure detector pings the endpoints GridMarket serves for its hosts,
// so a crash shows as exactly that host going dead and a restart brings it
// back.
TEST(GridMarketTest, ProbesReachEveryHostAndCrashHostGoesDead) {
  GridMarket grid(SmallConfig());
  ASSERT_TRUE(grid.EnableHealthProbes().ok());
  const auto states = [&grid] {
    std::map<std::string, grid::HostHealthState> by_host;
    for (const grid::HostHealthInfo& info : grid.HostHealthReport())
      by_host[info.host_id] = info.state;
    return by_host;
  };
  const std::string crashed = grid.auctioneer(1).physical_host().id();

  grid.RunFor(sim::Minutes(2));
  auto report = states();
  ASSERT_EQ(report.size(), 4u);
  for (const auto& [host_id, state] : report)
    EXPECT_EQ(state, grid::HostHealthState::kHealthy) << host_id;

  ASSERT_TRUE(grid.CrashHost(1).ok());
  grid.RunFor(sim::Minutes(3));
  report = states();
  for (const auto& [host_id, state] : report) {
    EXPECT_EQ(state, host_id == crashed ? grid::HostHealthState::kDead
                                        : grid::HostHealthState::kHealthy)
        << host_id;
  }

  ASSERT_TRUE(grid.RestartHost(1).ok());
  grid.RunFor(sim::Minutes(1));
  for (const auto& [host_id, state] : states())
    EXPECT_EQ(state, grid::HostHealthState::kHealthy) << host_id;
}

}  // namespace
}  // namespace gm
