// Tests for the scheduler-agent behaviours that drive the paper's
// evaluation shape: adaptive re-bidding, soft deadlines, speculative
// straggler re-execution, and dynamic chunk dispatch.
#include <gtest/gtest.h>

#include "grid/broker.hpp"
#include "market/sls.hpp"

namespace gm::grid {
namespace {

class AgentBehaviorTest : public ::testing::Test {
 protected:
  AgentBehaviorTest()
      : bank_(crypto::TestGroup(), 3),
        ca_(crypto::DistinguishedName{"SE", "SweGrid", "CA", "Root"},
            crypto::TestGroup(), rng_),
        alice_keys_(crypto::KeyPair::Generate(crypto::TestGroup(), rng_)),
        sls_(kernel_) {
    EXPECT_TRUE(bank_.CreateAccount("alice", alice_keys_.public_key()).ok());
    EXPECT_TRUE(bank_.CreateAccount("broker", {}).ok());
    EXPECT_TRUE(bank_.Mint("alice", Money::Dollars(100000), 0).ok());
    authorizer_ = std::make_unique<TokenAuthorizer>(bank_, "broker");
    const auto cert = ca_.Issue(alice_dn_, alice_keys_.public_key(), 0,
                                sim::Hours(100000), rng_);
    EXPECT_TRUE(authorizer_->RegisterIdentity(cert, ca_, 0).ok());
  }

  void BuildPlugin(PluginConfig config) {
    config.reference_capacity = 100.0;
    plugin_ = std::make_unique<TycoonSchedulerPlugin>(
        kernel_, sls_, bank_, host::PackageCatalog::Default(), config);
    broker_ = std::make_unique<GridBroker>(kernel_, bank_, *authorizer_,
                                           *plugin_);
    for (auto& auctioneer : auctioneers_) {
      EXPECT_TRUE(plugin_
                      ->RegisterAuctioneer(
                          *auctioneer,
                          "auctioneer:" + auctioneer->physical_host().id())
                      .ok());
    }
  }

  market::Auctioneer& AddHost(const std::string& id, int cpus = 1) {
    host::HostSpec spec;
    spec.id = id;
    spec.cpus = cpus;
    spec.cycles_per_cpu = 100.0;
    spec.virtualization_overhead = 0.0;
    spec.vm_boot_time = 0;
    hosts_.push_back(std::make_unique<host::PhysicalHost>(spec));
    auctioneers_.push_back(
        std::make_unique<market::Auctioneer>(*hosts_.back(), kernel_));
    auctioneers_.back()->Start();
    publishers_.push_back(std::make_unique<market::SlsPublisher>(
        *auctioneers_.back(), sls_, kernel_));
    return *auctioneers_.back();
  }

  /// Pin a background tenant with an always-busy VM and a standing rate.
  void AddTenant(market::Auctioneer& auctioneer, Micros rate) {
    ASSERT_TRUE(auctioneer.OpenAccount("tenant").ok());
    ASSERT_TRUE(
        auctioneer.Fund("tenant", Money::Dollars(1000000)).ok());
    ASSERT_TRUE(auctioneer
                    .SetBid("tenant", Rate::MicrosPerSec(rate),
                            sim::Hours(1000000))
                    .ok());
    auto vm = auctioneer.AcquireVm("tenant");
    ASSERT_TRUE(vm.ok());
    (*vm)->Enqueue({1, 1e18, nullptr});
  }

  crypto::TransferToken Pay(Money amount) {
    const auto nonce = bank_.TransferNonce("alice");
    const auto auth = alice_keys_.Sign(
        bank::TransferAuthPayload("alice", "broker", amount, *nonce), rng_);
    const auto receipt =
        bank_.Transfer("alice", "broker", amount, auth, kernel_.now());
    return crypto::MintToken(*receipt, alice_dn_.ToString(), alice_keys_,
                             rng_);
  }

  static std::string Xrsl(int count, int chunks, double cpu_min,
                          double wall_min) {
    JobDescription description;
    description.executable = "/bin/x";
    description.job_name = "agent-test";
    description.count = count;
    description.chunks = chunks;
    description.cpu_time_minutes = cpu_min;
    description.wall_time_minutes = wall_min;
    return description.ToXrsl();
  }

  Rng rng_{66};
  sim::Kernel kernel_;
  bank::Bank bank_;
  crypto::CertificateAuthority ca_;
  crypto::KeyPair alice_keys_;
  crypto::DistinguishedName alice_dn_{"SE", "KTH", "PDC", "alice"};
  market::ServiceLocationService sls_;
  std::vector<std::unique_ptr<host::PhysicalHost>> hosts_;
  std::vector<std::unique_ptr<market::Auctioneer>> auctioneers_;
  std::vector<std::unique_ptr<market::SlsPublisher>> publishers_;
  std::unique_ptr<TokenAuthorizer> authorizer_;
  std::unique_ptr<TycoonSchedulerPlugin> plugin_;
  std::unique_ptr<GridBroker> broker_;
};

TEST_F(AgentBehaviorTest, SoftDeadlineJobFinishesAfterWallTime) {
  AddHost("h0");
  BuildPlugin({});
  // 4 chunks x 2 min = 8 min of serial work on one vCPU, wallTime 3 min:
  // cannot meet the target but must still FINISH (reaped only at 4x).
  const auto id = broker_->Submit(Xrsl(1, 4, 2.0, 3.0),
                                  Pay(Money::Dollars(50)));
  ASSERT_TRUE(id.ok());
  kernel_.RunUntil(sim::Minutes(11));
  const JobRecord& job = **broker_->Job(*id);
  EXPECT_EQ(job.state, JobState::kFinished) << job.failure;
  EXPECT_GT(job.finished_at, sim::Minutes(3));  // past the wall target
  EXPECT_LT(job.finished_at, sim::Minutes(12));  // before the reap
}

TEST_F(AgentBehaviorTest, HopelessJobIsReapedAtExpiryFactor) {
  AddHost("h0");
  BuildPlugin({});
  // 60 min of work, wallTime 5 min, reap at 4 x 5 = 20 min: cannot
  // finish.
  const auto id = broker_->Submit(Xrsl(1, 30, 2.0, 5.0),
                                  Pay(Money::Dollars(50)));
  ASSERT_TRUE(id.ok());
  kernel_.RunUntil(sim::Minutes(30));
  const JobRecord& job = **broker_->Job(*id);
  EXPECT_EQ(job.state, JobState::kExpired);
  EXPECT_EQ(job.finished_at, sim::Minutes(5 * kExpiryFactor));
}

TEST_F(AgentBehaviorTest, SpeculationRescuesStragglers) {
  // Both hosts look cheap at submission; shortly after the first chunks
  // are dispatched, a tenant swamps h1 with a bid 10^5x what the job can
  // afford. The chunk running there crawls; a speculative copy on h0
  // must rescue it.
  AddHost("h0");
  market::Auctioneer& contested = AddHost("h1");
  AddTenant(contested, /*rate=*/10);
  BuildPlugin({});
  const auto id = broker_->Submit(Xrsl(2, 4, 1.0, 20.0),
                                  Pay(Money::Dollars(20)));
  ASSERT_TRUE(id.ok());
  kernel_.RunUntil(kernel_.now() + sim::Seconds(30));
  ASSERT_TRUE(contested
                  .SetBid("tenant", Rate::MicrosPerSec(10'000'000),
                          sim::Hours(1000000))
                  .ok());
  kernel_.RunUntil(sim::Hours(1));
  const JobRecord& job = **broker_->Job(*id);
  EXPECT_EQ(job.state, JobState::kFinished) << job.failure;
  EXPECT_TRUE(job.AllChunksDone());
  // At least one chunk was rescued: dispatched to h1 first, completed on
  // h0 by its duplicate.
  int rescued = 0;
  for (const SubJobRecord& subjob : job.subjobs) {
    if (subjob.completed && subjob.host_id == "h0" &&
        subjob.vm_id.find("h0") != std::string::npos) {
      ++rescued;
    }
  }
  EXPECT_GE(rescued, 3);  // h0 ends up doing (nearly) everything
}

TEST_F(AgentBehaviorTest, WithoutSpeculationStragglersBlock) {
  AddHost("h0");
  market::Auctioneer& contested = AddHost("h1");
  AddTenant(contested, /*rate=*/10);
  PluginConfig config;
  config.speculative_execution = false;
  BuildPlugin(config);
  const auto id = broker_->Submit(Xrsl(2, 4, 1.0, 20.0),
                                  Pay(Money::Dollars(20)));
  ASSERT_TRUE(id.ok());
  kernel_.RunUntil(kernel_.now() + sim::Seconds(30));
  ASSERT_TRUE(contested
                  .SetBid("tenant", Rate::MicrosPerSec(10'000'000),
                          sim::Hours(1000000))
                  .ok());
  kernel_.RunUntil(sim::Hours(2));
  const JobRecord& job = **broker_->Job(*id);
  // The chunk stuck on the swamped host blocks completion until expiry.
  EXPECT_EQ(job.state, JobState::kExpired);
  EXPECT_LT(job.CompletedChunks(), 4);
  EXPECT_GE(job.CompletedChunks(), 2);
}

TEST_F(AgentBehaviorTest, AdaptiveAgentSpendsLessWhenUnpressured) {
  AddHost("h0", /*cpus=*/2);
  // Run the same job with and without adaptive re-bidding; the adaptive
  // agent should finish no later and spend strictly less (it bids pennies
  // on an idle market instead of budget/deadline).
  Money spent_static;
  Money spent_adaptive;
  for (const bool adaptive : {false, true}) {
    PluginConfig config;
    config.rebid_period = adaptive ? sim::Minutes(1) : 0;
    config.reference_capacity = 100.0;
    // Fresh plugin/broker over the same market.
    BuildPlugin(config);
    const auto id = broker_->Submit(Xrsl(1, 4, 1.0, 30.0),
                                    Pay(Money::Dollars(30)));
    ASSERT_TRUE(id.ok());
    kernel_.RunUntil(kernel_.now() + sim::Hours(1));
    const JobRecord& job = **broker_->Job(*id);
    ASSERT_EQ(job.state, JobState::kFinished) << job.failure;
    (adaptive ? spent_adaptive : spent_static) = job.spent;
  }
  EXPECT_LT(spent_adaptive, spent_static);
}

TEST_F(AgentBehaviorTest, StarvedJobFinishesAfterRichCompetitorLeaves) {
  // The Table 2 dynamic in miniature: a poor job shares one CPU with a
  // rich, deadline-pressured one. The poor job conserves its funds, slows
  // down, and completes after the rich job exits.
  AddHost("h0", /*cpus=*/1);
  BuildPlugin({});
  const auto poor = broker_->Submit(Xrsl(1, 4, 1.0, 8.0),
                                    Pay(Money::Dollars(1)));
  ASSERT_TRUE(poor.ok());
  kernel_.RunUntil(kernel_.now() + sim::Seconds(30));
  const auto rich = broker_->Submit(Xrsl(1, 4, 1.0, 5.0),
                                    Pay(Money::Dollars(1000)));
  ASSERT_TRUE(rich.ok());
  kernel_.RunUntil(sim::Hours(1));
  const JobRecord& poor_job = **broker_->Job(*poor);
  const JobRecord& rich_job = **broker_->Job(*rich);
  ASSERT_EQ(rich_job.state, JobState::kFinished) << rich_job.failure;
  ASSERT_EQ(poor_job.state, JobState::kFinished) << poor_job.failure;
  EXPECT_LT(rich_job.finished_at, poor_job.finished_at);
  // The rich job pays a higher cost *rate* (it may spend less in total
  // because it finishes so much sooner).
  EXPECT_GT(rich_job.CostPerHour(), poor_job.CostPerHour());
  // The poor job must not have gone broke.
  EXPECT_LE(poor_job.spent, Money::Dollars(1));
}

TEST_F(AgentBehaviorTest, SpotPriceExcludingUser) {
  market::Auctioneer& auctioneer = AddHost("h0");
  ASSERT_TRUE(auctioneer.OpenAccount("a").ok());
  ASSERT_TRUE(auctioneer.OpenAccount("b").ok());
  ASSERT_TRUE(auctioneer.Fund("a", Money::FromMicros(1000)).ok());
  ASSERT_TRUE(auctioneer.Fund("b", Money::FromMicros(1000)).ok());
  ASSERT_TRUE(
      auctioneer.SetBid("a", Rate::MicrosPerSec(300), sim::Hours(1)).ok());
  ASSERT_TRUE(
      auctioneer.SetBid("b", Rate::MicrosPerSec(500), sim::Hours(1)).ok());
  EXPECT_EQ(auctioneer.SpotPriceRate().micros_per_sec(), 800);
  EXPECT_EQ(auctioneer.SpotPriceRateExcluding("a").micros_per_sec(), 500);
  EXPECT_EQ(auctioneer.SpotPriceRateExcluding("b").micros_per_sec(), 300);
  EXPECT_EQ(auctioneer.SpotPriceRateExcluding("ghost").micros_per_sec(), 800);
}

}  // namespace
}  // namespace gm::grid
