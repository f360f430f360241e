// Chaos tests: the full grid stack (bank + broker + scheduler plugin +
// auctioneers + RPC health probes) under network faults — message loss,
// burst-loss windows, and auctioneer crashes mid-run. Jobs must still
// complete, money must be conserved to the micro-dollar, and the failure
// detector must report dead hosts while the scheduler re-bids on survivors.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "grid/broker.hpp"
#include "grid/monitor.hpp"
#include "market/sls.hpp"
#include "net/fault.hpp"

namespace gm::grid {
namespace {

class ChaosTest : public ::testing::Test {
 protected:
  static constexpr Money kUserFunds = Money::Dollars(1000);

  ChaosTest()
      : bus_(kernel_, net::LatencyModel::Lossy(0.1), 1913),
        bank_(crypto::TestGroup(), 3),
        ca_(crypto::DistinguishedName{"SE", "SweGrid", "CA", "Root"},
            crypto::TestGroup(), rng_),
        alice_keys_(crypto::KeyPair::Generate(crypto::TestGroup(), rng_)),
        sls_(kernel_) {
    EXPECT_TRUE(bank_.CreateAccount("alice", alice_keys_.public_key()).ok());
    EXPECT_TRUE(bank_.CreateAccount("broker", {}).ok());
    EXPECT_TRUE(bank_.Mint("alice", kUserFunds, 0).ok());

    authorizer_ = std::make_unique<TokenAuthorizer>(bank_, "broker");
    const auto cert = ca_.Issue(alice_dn_, alice_keys_.public_key(), 0,
                                sim::Hours(10000), rng_);
    EXPECT_TRUE(authorizer_->RegisterIdentity(cert, ca_, 0).ok());

    PluginConfig config;
    config.reference_capacity = 100.0;
    config.stage_bandwidth_mb_per_s = 50.0;
    plugin_ = std::make_unique<TycoonSchedulerPlugin>(
        kernel_, sls_, bank_, host::PackageCatalog::Default(), config);
    broker_ = std::make_unique<GridBroker>(kernel_, bank_, *authorizer_,
                                           *plugin_);
  }

  void AddHosts(int count, int cpus = 2) {
    for (int i = 0; i < count; ++i) {
      host::HostSpec spec;
      spec.id = "h" + std::to_string(i);
      spec.cpus = cpus;
      spec.cycles_per_cpu = 100.0;
      spec.virtualization_overhead = 0.0;
      spec.vm_boot_time = sim::Seconds(5);
      spec.max_vms = 15;
      hosts_.push_back(std::make_unique<host::PhysicalHost>(spec));
      auctioneers_.push_back(
          std::make_unique<market::Auctioneer>(*hosts_.back(), kernel_));
      auctioneers_.back()->Start();
      // Each host answers the failure detector's "ping" at its probe
      // endpoint on the lossy bus.
      ping_servers_.push_back(
          std::make_unique<net::RpcServer>(bus_, ProbeEndpoint(spec.id)));
      ping_servers_.back()->RegisterMethod(
          "ping", [](const Bytes&) -> Result<Bytes> { return Bytes{}; });
      publishers_.push_back(std::make_unique<market::SlsPublisher>(
          *auctioneers_.back(), sls_, "test-site", kernel_,
          sim::Seconds(30)));
      EXPECT_TRUE(plugin_
                      ->RegisterAuctioneer(*auctioneers_.back(),
                                           "auctioneer:" + spec.id)
                      .ok());
    }
  }

  void EnableProbes() {
    HealthOptions options;
    options.probe_period = sim::Seconds(10);
    options.probe_timeout = sim::Seconds(2);
    options.probe_attempts = 3;
    options.suspect_after = 2;
    options.dead_after = 3;
    ASSERT_TRUE(plugin_->EnableHealthProbes(bus_, options).ok());
  }

  market::Auctioneer* AuctioneerFor(const std::string& host_id) {
    for (auto& auctioneer : auctioneers_) {
      if (auctioneer->physical_host().id() == host_id)
        return auctioneer.get();
    }
    return nullptr;
  }

  /// Host crash: the market stops ticking (VMs freeze) and the RPC
  /// endpoint vanishes from the bus, so probes start timing out.
  void CrashHost(const std::string& host_id) {
    market::Auctioneer* auctioneer = AuctioneerFor(host_id);
    ASSERT_NE(auctioneer, nullptr);
    auctioneer->Stop();
    ASSERT_TRUE(bus_.CrashEndpoint(ProbeEndpoint(host_id)).ok());
  }

  crypto::TransferToken PayBroker(Money amount) {
    const auto nonce = bank_.TransferNonce("alice");
    EXPECT_TRUE(nonce.ok());
    const auto auth = alice_keys_.Sign(
        bank::TransferAuthPayload("alice", "broker", amount, *nonce), rng_);
    const auto receipt =
        bank_.Transfer("alice", "broker", amount, auth, kernel_.now());
    EXPECT_TRUE(receipt.ok());
    return crypto::MintToken(*receipt, alice_dn_.ToString(), alice_keys_,
                             rng_);
  }

  static std::string ScanXrsl(int count, int chunks,
                              double cpu_minutes = 1.0,
                              double wall_minutes = 60.0) {
    JobDescription description;
    description.executable = "/bin/proteome-scan";
    description.job_name = "scan";
    description.count = count;
    description.chunks = chunks;
    description.cpu_time_minutes = cpu_minutes;
    description.wall_time_minutes = wall_minutes;
    description.runtime_environments = {"blast"};
    description.input_files = {{"db.fasta", 50.0}};
    description.output_files = {{"hits.out", 5.0}};
    return description.ToXrsl();
  }

  Rng rng_{77};
  sim::Kernel kernel_;
  net::MessageBus bus_;
  bank::Bank bank_;
  crypto::CertificateAuthority ca_;
  crypto::KeyPair alice_keys_;
  crypto::DistinguishedName alice_dn_{"SE", "KTH", "PDC", "alice"};
  market::ServiceLocationService sls_;
  std::vector<std::unique_ptr<host::PhysicalHost>> hosts_;
  std::vector<std::unique_ptr<market::Auctioneer>> auctioneers_;
  std::vector<std::unique_ptr<net::RpcServer>> ping_servers_;
  std::vector<std::unique_ptr<market::SlsPublisher>> publishers_;
  std::unique_ptr<TokenAuthorizer> authorizer_;
  std::unique_ptr<TycoonSchedulerPlugin> plugin_;
  std::unique_ptr<GridBroker> broker_;
};

TEST_F(ChaosTest, JobCompletesOnLossyNetworkWithCorrectRefunds) {
  AddHosts(4);
  EnableProbes();
  const auto job_id = broker_->Submit(ScanXrsl(2, 4),
                                      PayBroker(Money::Dollars(10)));
  ASSERT_TRUE(job_id.ok()) << job_id.status().ToString();

  kernel_.RunUntil(sim::Minutes(30));
  const auto job = broker_->Job(*job_id);
  ASSERT_TRUE(job.ok());
  EXPECT_EQ((*job)->state, JobState::kFinished) << (*job)->failure;
  EXPECT_TRUE((*job)->AllChunksDone());
  // Refund accounting holds despite 10% message loss on the probe plane.
  EXPECT_TRUE((*job)->spent.is_positive());
  EXPECT_TRUE((*job)->refunded.is_positive());
  EXPECT_EQ(bank_.Balance((*job)->account).value(),
            Money::Dollars(10) - (*job)->spent);
  EXPECT_TRUE(bank_.CheckInvariants().ok());

  // The failure detector probed through the loss without false verdicts:
  // retries absorb drops, so no host was ever declared dead.
  EXPECT_GT(plugin_->probes_sent(), 0u);
  EXPECT_GT(bus_.stats().dropped, 0u);  // the network really was lossy
  for (const HostHealthInfo& health : plugin_->HostHealthReport()) {
    EXPECT_NE(health.state, HostHealthState::kDead) << health.host_id;
    EXPECT_GE(health.last_ok, 0) << health.host_id;
  }
  EXPECT_TRUE(bus_.stats().Reconciles());
}

TEST_F(ChaosTest, AuctioneerCrashMidRunMigratesJobToSurvivors) {
  AddHosts(4);
  EnableProbes();
  // 8 chunks of 2 cpu-minutes on 2 hosts: comfortably still running when
  // the crash hits at t = 3 min.
  const Money budget = Money::Dollars(10);
  const auto job_id =
      broker_->Submit(ScanXrsl(2, 8, 2.0, 60.0), PayBroker(budget));
  ASSERT_TRUE(job_id.ok()) << job_id.status().ToString();

  kernel_.RunUntil(sim::Minutes(3));
  {
    const auto job = broker_->Job(*job_id);
    ASSERT_TRUE(job.ok());
    ASSERT_EQ((*job)->state, JobState::kRunning) << (*job)->failure;
    ASSERT_EQ((*job)->hosts_used.size(), 2u);
  }
  const std::string dead_host = broker_->Job(*job_id).value()->hosts_used[0];
  const std::string survivor = broker_->Job(*job_id).value()->hosts_used[1];
  // Chunks already finished before the crash keep their host binding.
  std::set<int> done_before_crash;
  for (const SubJobRecord& subjob : broker_->Job(*job_id).value()->subjobs) {
    if (subjob.completed) done_before_crash.insert(subjob.ordinal);
  }
  CrashHost(dead_host);

  kernel_.RunUntil(sim::Hours(2));
  const auto job = broker_->Job(*job_id);
  ASSERT_TRUE(job.ok());
  // The job finished on the survivors despite losing a host mid-run.
  EXPECT_EQ((*job)->state, JobState::kFinished)
      << JobStateName((*job)->state) << " failure=" << (*job)->failure;
  EXPECT_TRUE((*job)->AllChunksDone());

  // The failure detector declared the crashed host dead and the scheduler
  // migrated work off it.
  EXPECT_EQ(plugin_->HostHealth(dead_host), HostHealthState::kDead);
  EXPECT_EQ(plugin_->HostHealth(survivor), HostHealthState::kHealthy);
  EXPECT_GT(plugin_->migrations(), 0u);
  EXPECT_GT(plugin_->probe_failures(), 0u);
  // Every chunk still open at the crash finished somewhere alive.
  for (const SubJobRecord& subjob : (*job)->subjobs) {
    EXPECT_TRUE(subjob.completed);
    if (done_before_crash.count(subjob.ordinal) == 0) {
      EXPECT_NE(subjob.host_id, dead_host) << "ordinal " << subjob.ordinal;
    }
  }

  // Money conserved to the micro-dollar: the dead host's unspent deposit
  // was reclaimed through the bank escrow mirror, everything else was
  // either spent or refunded to the job's sub-account.
  EXPECT_EQ(bank_.Balance((*job)->account).value(), budget - (*job)->spent);
  EXPECT_TRUE(bank_.CheckInvariants().ok());
  EXPECT_FALSE(
      AuctioneerFor(dead_host)->HasAccount((*job)->account));

  // The monitor surfaces the verdicts and the fault counters.
  const std::string health_table =
      RenderHealthTable(plugin_->HostHealthReport());
  EXPECT_NE(health_table.find(dead_host), std::string::npos);
  EXPECT_NE(health_table.find("DEAD"), std::string::npos);
  EXPECT_NE(health_table.find("HEALTHY"), std::string::npos);
  const std::string net_table = RenderNetTable(bus_.stats(), plugin_.get());
  EXPECT_NE(net_table.find("probe_failures"), std::string::npos);
  EXPECT_NE(net_table.find("migrations=1"), std::string::npos);
}

TEST_F(ChaosTest, CrashedHostIsExcludedFromNewSchedulingUntilRestart) {
  AddHosts(3);
  EnableProbes();
  kernel_.RunUntil(sim::Minutes(1));  // all hosts probed healthy
  CrashHost("h0");
  kernel_.RunUntil(sim::Minutes(3));  // detector declares h0 dead
  ASSERT_EQ(plugin_->HostHealth("h0"), HostHealthState::kDead);

  const auto job_id = broker_->Submit(ScanXrsl(3, 6),
                                      PayBroker(Money::Dollars(10)));
  ASSERT_TRUE(job_id.ok());
  kernel_.RunUntil(sim::Minutes(40));
  const auto job = broker_->Job(*job_id);
  ASSERT_TRUE(job.ok());
  EXPECT_EQ((*job)->state, JobState::kFinished) << (*job)->failure;
  for (const std::string& host : (*job)->hosts_used) {
    EXPECT_NE(host, "h0");  // dead host never selected
  }

  // Restart: the endpoint comes back, probes succeed, health recovers.
  AuctioneerFor("h0")->Start();
  ASSERT_TRUE(bus_.RestartEndpoint(ProbeEndpoint("h0")).ok());
  kernel_.RunUntil(kernel_.now() + sim::Minutes(2));
  EXPECT_EQ(plugin_->HostHealth("h0"), HostHealthState::kHealthy);
  EXPECT_TRUE(bank_.CheckInvariants().ok());
}

TEST_F(ChaosTest, BurstLossWindowDoesNotKillHealthyHosts) {
  AddHosts(2);
  EnableProbes();
  // A 30 s burst of 60% loss: individual probe rounds may fail, but the
  // retry budget and the dead_after threshold keep verdicts stable.
  net::FaultPlan plan;
  plan.BurstLoss(sim::Minutes(2), sim::Minutes(2) + sim::Seconds(30), 0.6);
  ApplyFaultPlan(bus_, plan);
  kernel_.RunUntil(sim::Minutes(10));
  for (const HostHealthInfo& health : plugin_->HostHealthReport()) {
    EXPECT_NE(health.state, HostHealthState::kDead) << health.host_id;
  }
  EXPECT_GT(bus_.stats().dropped, 0u);
  EXPECT_TRUE(bus_.stats().Reconciles());
}

}  // namespace
}  // namespace gm::grid
