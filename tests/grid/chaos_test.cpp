// Chaos tests: the full grid stack (bank + broker + scheduler plugin +
// auctioneers + SLS heartbeats) under host crashes mid-run. A crashed
// host stops heartbeating; once its SLS record expires it is dead to the
// scheduler. Jobs must still complete, money must be conserved to the
// micro-dollar, and health must follow the record's age while the
// scheduler re-bids on survivors.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "grid/broker.hpp"
#include "grid/monitor.hpp"
#include "market/sls.hpp"

namespace gm::grid {
namespace {

class ChaosTest : public ::testing::Test {
 protected:
  static constexpr Money kUserFunds = Money::Dollars(1000);

  ChaosTest()
      : bank_(crypto::TestGroup(), 3),
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
      publishers_.push_back(Publisher(*auctioneers_.back()));
      EXPECT_TRUE(plugin_
                      ->RegisterAuctioneer(*auctioneers_.back(),
                                           "auctioneer:" + spec.id)
                      .ok());
    }
  }

  /// A 30 s heartbeat against the SLS's default 5 min TTL.
  std::unique_ptr<market::SlsPublisher> Publisher(
      market::Auctioneer& auctioneer) {
    return std::make_unique<market::SlsPublisher>(
        auctioneer, sls_, "test-site", kernel_, sim::Seconds(30));
  }

  std::size_t IndexOf(const std::string& host_id) const {
    for (std::size_t i = 0; i < auctioneers_.size(); ++i) {
      if (auctioneers_[i]->physical_host().id() == host_id) return i;
    }
    ADD_FAILURE() << "unknown host " << host_id;
    return 0;
  }

  market::Auctioneer* AuctioneerFor(const std::string& host_id) {
    return auctioneers_[IndexOf(host_id)].get();
  }

  /// Host crash: the market stops ticking (VMs freeze) and the host
  /// stops heartbeating, so its SLS record ages out.
  void CrashHost(const std::string& host_id) {
    const std::size_t i = IndexOf(host_id);
    auctioneers_[i]->Stop();
    publishers_[i].reset();
  }

  /// Restart: the market ticks again and the new publisher heartbeats at
  /// once.
  void RestartHost(const std::string& host_id) {
    const std::size_t i = IndexOf(host_id);
    auctioneers_[i]->Start();
    publishers_[i] = Publisher(*auctioneers_[i]);
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

TEST_F(ChaosTest, LiveHostsAreNeverSuspectedAndRefundsAreExact) {
  AddHosts(4);
  const auto job_id = broker_->Submit(ScanXrsl(2, 4),
                                      PayBroker(Money::Dollars(10)));
  ASSERT_TRUE(job_id.ok()) << job_id.status().ToString();

  kernel_.RunUntil(sim::Minutes(30));
  const auto job = broker_->Job(*job_id);
  ASSERT_TRUE(job.ok());
  EXPECT_EQ((*job)->state, JobState::kFinished) << (*job)->failure;
  EXPECT_TRUE((*job)->AllChunksDone());
  EXPECT_TRUE((*job)->spent.is_positive());
  EXPECT_TRUE((*job)->refunded.is_positive());
  EXPECT_EQ(bank_.Balance((*job)->account).value(),
            Money::Dollars(10) - (*job)->spent);
  EXPECT_TRUE(bank_.CheckInvariants().ok());

  // Heartbeats keep every record fresh: no host was ever suspected, and
  // the liveness checks that ran while the job did moved nothing.
  for (const HostHealthInfo& health : plugin_->HostHealthReport()) {
    EXPECT_EQ(health.state, HostHealthState::kHealthy) << health.host_id;
    EXPECT_GE(health.last_heartbeat, kernel_.now() - sim::Seconds(30))
        << health.host_id;
  }
  EXPECT_EQ(plugin_->migrations(), 0u);
}

TEST_F(ChaosTest, AuctioneerCrashMidRunMigratesJobToSurvivors) {
  AddHosts(4);
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

  // The crashed host's record expired, so it reads dead, and the
  // scheduler migrated work off it.
  EXPECT_EQ(plugin_->HostHealth(dead_host), HostHealthState::kDead);
  EXPECT_EQ(plugin_->HostHealth(survivor), HostHealthState::kHealthy);
  EXPECT_EQ(plugin_->migrations(), 1u);
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

  // The monitor surfaces the verdicts.
  const std::string health_table =
      RenderHealthTable(plugin_->HostHealthReport());
  EXPECT_NE(health_table.find(dead_host), std::string::npos);
  EXPECT_NE(health_table.find("DEAD"), std::string::npos);
  EXPECT_NE(health_table.find("HEALTHY"), std::string::npos);
}

TEST_F(ChaosTest, CrashedHostIsExcludedFromNewSchedulingUntilRestart) {
  AddHosts(3);
  kernel_.RunUntil(sim::Minutes(1));  // last heartbeat at t = 1 min
  CrashHost("h0");
  kernel_.RunUntil(sim::Minutes(7));  // the 5 min TTL has lapsed
  ASSERT_EQ(plugin_->HostHealth("h0"), HostHealthState::kDead);
  EXPECT_FALSE(sls_.Lookup("h0").ok());

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

  // Restart: the host heartbeats at once and is healthy again.
  RestartHost("h0");
  EXPECT_EQ(plugin_->HostHealth("h0"), HostHealthState::kHealthy);
  EXPECT_TRUE(sls_.Lookup("h0").ok());
  EXPECT_TRUE(bank_.CheckInvariants().ok());
}

TEST_F(ChaosTest, HealthFollowsHeartbeatAge) {
  AddHosts(2);
  kernel_.RunUntil(sim::Minutes(10));
  CrashHost("h0");  // its last heartbeat went out at t = 10 min
  const auto health_of = [this](const std::string& host_id) {
    for (const HostHealthInfo& info : plugin_->HostHealthReport())
      if (info.host_id == host_id) return info;
    ADD_FAILURE() << "no health row for " << host_id;
    return HostHealthInfo{};
  };

  // Younger than half the TTL: still healthy.
  kernel_.RunUntil(sim::Minutes(12));
  EXPECT_EQ(health_of("h0").state, HostHealthState::kHealthy);
  // Older than half the TTL: suspect, with the last heartbeat on record.
  kernel_.RunUntil(sim::Minutes(13));
  EXPECT_EQ(health_of("h0").state, HostHealthState::kSuspect);
  EXPECT_EQ(health_of("h0").last_heartbeat, sim::Minutes(10));
  // Exactly a TTL old is still live; one tick past it, the record expired.
  kernel_.RunUntil(sim::Minutes(15));
  EXPECT_EQ(health_of("h0").state, HostHealthState::kSuspect);
  kernel_.RunUntil(sim::Minutes(15) + 1);
  EXPECT_EQ(health_of("h0").state, HostHealthState::kDead);
  EXPECT_EQ(health_of("h0").last_heartbeat, -1);
  EXPECT_EQ(sls_.live_count(), 1u);

  // The survivor kept heartbeating throughout.
  EXPECT_EQ(health_of("h1").state, HostHealthState::kHealthy);
  EXPECT_EQ(plugin_->migrations(), 0u);
}

}  // namespace
}  // namespace gm::grid
