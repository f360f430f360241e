// End-to-end Grid market flow: bank + PKI + tokens + SLS + auctioneers +
// best-response scheduling + VM provisioning + execution + refunds.
#include <gtest/gtest.h>

#include "grid/broker.hpp"
#include "grid/monitor.hpp"
#include "market/sls.hpp"

namespace gm::grid {
namespace {

class EndToEndTest : public ::testing::Test {
 protected:
  static constexpr Money kUserFunds = Money::Dollars(1000);

  EndToEndTest()
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
    config.reference_capacity = 100.0;  // 1 cpu-minute == 6000 cycles
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
      publishers_.push_back(std::make_unique<market::SlsPublisher>(
          *auctioneers_.back(), sls_, kernel_));
      EXPECT_TRUE(plugin_
                      ->RegisterAuctioneer(*auctioneers_.back(),
                                           "auctioneer:" + spec.id)
                      .ok());
    }
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

TEST_F(EndToEndTest, JobRunsToCompletion) {
  AddHosts(4);
  const auto job_id =
      broker_->Submit(ScanXrsl(/*count=*/2, /*chunks=*/4), PayBroker(Money::Dollars(10)));
  ASSERT_TRUE(job_id.ok()) << job_id.status().ToString();

  kernel_.RunUntil(sim::Minutes(30));
  const auto job = broker_->Job(*job_id);
  ASSERT_TRUE(job.ok());
  EXPECT_EQ((*job)->state, JobState::kFinished)
      << JobStateName((*job)->state) << " failure=" << (*job)->failure;
  EXPECT_TRUE((*job)->AllChunksDone());
  ASSERT_EQ((*job)->subjobs.size(), 4u);
  // Ordinals assigned and two hosts used.
  EXPECT_EQ((*job)->hosts_used.size(), 2u);
  for (int i = 0; i < 4; ++i) {
    const SubJobRecord& subjob = (*job)->subjobs[static_cast<std::size_t>(i)];
    EXPECT_EQ(subjob.ordinal, i);
    EXPECT_TRUE(subjob.completed);
    EXPECT_GE(subjob.started_at, 0);
    EXPECT_GT(subjob.completed_at, subjob.started_at);
  }
  // Charged for use, refunded the rest; everything accounted for.
  EXPECT_TRUE((*job)->spent.is_positive());
  EXPECT_TRUE((*job)->refunded.is_positive());
  EXPECT_EQ(bank_.Balance((*job)->account).value(),
            Money::Dollars(10) - (*job)->spent);
  EXPECT_TRUE(bank_.CheckInvariants().ok());
}

TEST_F(EndToEndTest, ChunkLatencyMatchesCapacity) {
  AddHosts(2);
  // One VM, one chunk of 2 cpu-minutes at reference 100 cycles/s ==
  // 12000 cycles; the vCPU delivers 100 cycles/s -> 120 s of execution.
  const auto job_id = broker_->Submit(ScanXrsl(1, 1, 2.0),
                                      PayBroker(Money::Dollars(10)));
  ASSERT_TRUE(job_id.ok());
  kernel_.RunUntil(sim::Minutes(60));
  const auto job = broker_->Job(*job_id);
  ASSERT_TRUE(job.ok());
  ASSERT_EQ((*job)->state, JobState::kFinished) << (*job)->failure;
  EXPECT_NEAR((*job)->MeanChunkLatencyMinutes(), 2.0, 0.35);
}

TEST_F(EndToEndTest, NoHostsFailsCleanlyWithRefund) {
  const auto job_id = broker_->Submit(ScanXrsl(2, 4),
                                      PayBroker(Money::Dollars(10)));
  ASSERT_TRUE(job_id.ok());
  const auto job = broker_->Job(*job_id);
  ASSERT_TRUE(job.ok());
  EXPECT_EQ((*job)->state, JobState::kFailed);
  EXPECT_FALSE((*job)->failure.empty());
  EXPECT_EQ((*job)->spent, Money::Zero());
  EXPECT_EQ(bank_.Balance((*job)->account).value(), Money::Dollars(10));
  EXPECT_TRUE(bank_.CheckInvariants().ok());
}

TEST_F(EndToEndTest, UnknownRuntimeEnvironmentFailsBeforeFunding) {
  AddHosts(2);
  JobDescription description;
  description.executable = "/bin/x";
  description.count = 1;
  description.cpu_time_minutes = 1.0;
  description.wall_time_minutes = 60.0;
  description.runtime_environments = {"matlab"};  // not in the catalog
  const auto job_id =
      broker_->Submit(description.ToXrsl(), PayBroker(Money::Dollars(5)));
  ASSERT_TRUE(job_id.ok());
  const auto job = broker_->Job(*job_id);
  ASSERT_TRUE(job.ok());
  EXPECT_EQ((*job)->state, JobState::kFailed);
  EXPECT_NE((*job)->failure.find("matlab"), std::string::npos);
  // No money left anywhere but the refunded sub-account.
  EXPECT_EQ((*job)->spent, Money::Zero());
  EXPECT_EQ(bank_.Balance((*job)->account).value(), Money::Dollars(5));
  for (const auto& auctioneer : auctioneers_) {
    EXPECT_FALSE(auctioneer->HasAccount((*job)->account));
  }
  EXPECT_TRUE(bank_.CheckInvariants().ok());
}

TEST_F(EndToEndTest, FullHostIsSkippedBeforeFunding) {
  AddHosts(2);
  // h0 reaches its VM limit after its SLS record was published, so the
  // stale record still offers a slot and the scheduler picks h0.
  for (int i = 0; i < hosts_[0]->spec().max_vms; ++i) {
    ASSERT_TRUE(hosts_[0]
                    ->CreateVm("filler-" + std::to_string(i),
                               "tenant-" + std::to_string(i), kernel_.now())
                    .ok());
  }
  const auto job_id =
      broker_->Submit(ScanXrsl(2, 4), PayBroker(Money::Dollars(10)));
  ASSERT_TRUE(job_id.ok()) << job_id.status().ToString();
  const auto job = broker_->Job(*job_id);
  ASSERT_TRUE(job.ok());

  // No money moved toward the full host: no bank transfer from the job
  // into h0's escrow mirror, and no market account on h0.
  for (const bank::AuditEntry& entry : bank_.audit_log()) {
    EXPECT_FALSE(entry.from == (*job)->account && entry.to == "auctioneer:h0")
        << entry.kind << " " << entry.from << " -> " << entry.to;
  }
  EXPECT_FALSE(auctioneers_[0]->HasAccount((*job)->account));

  // The job still runs, on the host with room.
  kernel_.RunUntil(sim::Minutes(30));
  EXPECT_EQ((*job)->state, JobState::kFinished)
      << JobStateName((*job)->state) << " failure=" << (*job)->failure;
  EXPECT_EQ((*job)->hosts_used, std::vector<std::string>{"h1"});
  EXPECT_EQ(bank_.Balance((*job)->account).value(),
            Money::Dollars(10) - (*job)->spent);
  EXPECT_TRUE(bank_.CheckInvariants().ok());
}

TEST_F(EndToEndTest, BadTokenRejectedBeforeScheduling) {
  AddHosts(1);
  auto token = PayBroker(Money::Dollars(10));
  token.grid_dn = "/CN=stranger";
  const auto job_id = broker_->Submit(ScanXrsl(1, 1), token);
  EXPECT_FALSE(job_id.ok());
  EXPECT_EQ(job_id.status().code(), StatusCode::kUnauthenticated);
  EXPECT_TRUE(broker_->Jobs().empty());
}

TEST_F(EndToEndTest, DeadlineExpiryRefundsRemainder) {
  AddHosts(1);
  // 3 cpu-minutes of work with a 3-minute wall clock that also has to
  // cover boot + provisioning + staging: cannot finish.
  const auto job_id = broker_->Submit(ScanXrsl(1, 6, 3.0, /*wall=*/3.0),
                                      PayBroker(Money::Dollars(10)));
  ASSERT_TRUE(job_id.ok());
  kernel_.RunUntil(sim::Minutes(30));
  const auto job = broker_->Job(*job_id);
  ASSERT_TRUE(job.ok());
  EXPECT_EQ((*job)->state, JobState::kExpired) << JobStateName((*job)->state);
  EXPECT_FALSE((*job)->AllChunksDone());
  EXPECT_EQ(bank_.Balance((*job)->account).value(),
            Money::Dollars(10) - (*job)->spent);
  EXPECT_TRUE(bank_.CheckInvariants().ok());
}

TEST_F(EndToEndTest, BoostAddsFundsAndRaisesBid) {
  AddHosts(1);
  const auto job_id = broker_->Submit(ScanXrsl(1, 8, 2.0, 120.0),
                                      PayBroker(Money::Dollars(5)));
  ASSERT_TRUE(job_id.ok());
  kernel_.RunUntil(sim::Minutes(2));
  const Rate rate_before = auctioneers_[0]->SpotPriceRate();
  ASSERT_TRUE(broker_->Boost(*job_id, PayBroker(Money::Dollars(50))).ok());
  EXPECT_GT(auctioneers_[0]->SpotPriceRate(), rate_before);
  const auto job = broker_->Job(*job_id);
  ASSERT_TRUE(job.ok());
  EXPECT_EQ((*job)->budget, Money::Dollars(55));
  kernel_.RunUntil(sim::Hours(3));
  EXPECT_EQ(broker_->Job(*job_id).value()->state, JobState::kFinished);
  EXPECT_TRUE(bank_.CheckInvariants().ok());
}

TEST_F(EndToEndTest, BoostByDifferentUserRejected) {
  AddHosts(1);
  const auto job_id = broker_->Submit(ScanXrsl(1, 4, 2.0, 120.0),
                                      PayBroker(Money::Dollars(5)));
  ASSERT_TRUE(job_id.ok());
  // Bob pays for a boost of alice's job: identity mismatch.
  const auto bob_keys = crypto::KeyPair::Generate(crypto::TestGroup(), rng_);
  const crypto::DistinguishedName bob_dn{"SE", "KTH", "PDC", "bob"};
  ASSERT_TRUE(bank_.CreateAccount("bob", bob_keys.public_key()).ok());
  ASSERT_TRUE(bank_.Mint("bob", Money::Dollars(100), 0).ok());
  const auto cert =
      ca_.Issue(bob_dn, bob_keys.public_key(), 0, sim::Hours(100), rng_);
  ASSERT_TRUE(authorizer_->RegisterIdentity(cert, ca_, 0).ok());
  const auto nonce = bank_.TransferNonce("bob");
  const auto auth = bob_keys.Sign(
      bank::TransferAuthPayload("bob", "broker", Money::Dollars(10), *nonce),
      rng_);
  const auto receipt = bank_.Transfer("bob", "broker", Money::Dollars(10),
                                      auth, kernel_.now());
  ASSERT_TRUE(receipt.ok());
  const auto bob_token =
      crypto::MintToken(*receipt, bob_dn.ToString(), bob_keys, rng_);
  EXPECT_EQ(broker_->Boost(*job_id, bob_token).code(),
            StatusCode::kPermissionDenied);
}

TEST_F(EndToEndTest, CompetingJobsShareByFunding) {
  // One single-CPU host: the two jobs genuinely contend for the CPU (on
  // the paper's dual-processor nodes two users would not). Tight wall
  // times make both agents bid aggressively; only the rich one can afford
  // its target share.
  AddHosts(1, /*cpus=*/1);
  const auto cheap = broker_->Submit(ScanXrsl(1, 4, 2.0, 10.0),
                                     PayBroker(Money::Dollars(2)));
  ASSERT_TRUE(cheap.ok());
  kernel_.RunUntil(sim::Seconds(30));
  const auto rich = broker_->Submit(ScanXrsl(1, 4, 2.0, 10.0),
                                    PayBroker(Money::Dollars(20)));
  ASSERT_TRUE(rich.ok());
  kernel_.RunUntil(sim::Hours(4));
  const auto cheap_job = broker_->Job(*cheap);
  const auto rich_job = broker_->Job(*rich);
  ASSERT_TRUE(cheap_job.ok());
  ASSERT_TRUE(rich_job.ok());
  ASSERT_EQ((*cheap_job)->state, JobState::kFinished) << (*cheap_job)->failure;
  ASSERT_EQ((*rich_job)->state, JobState::kFinished) << (*rich_job)->failure;
  // The richer job pays a higher total for its faster chunks.
  EXPECT_GT((*rich_job)->spent, (*cheap_job)->spent);
  EXPECT_LT((*rich_job)->MeanChunkLatencyMinutes(),
            (*cheap_job)->MeanChunkLatencyMinutes());
}

TEST_F(EndToEndTest, MonitorRendersState) {
  AddHosts(2);
  const auto job_id = broker_->Submit(ScanXrsl(2, 4),
                                      PayBroker(Money::Dollars(10)));
  ASSERT_TRUE(job_id.ok());
  kernel_.RunUntil(sim::Minutes(2));
  std::vector<const market::Auctioneer*> views;
  for (const auto& auctioneer : auctioneers_) views.push_back(auctioneer.get());
  const std::string monitor =
      RenderMonitor(views, broker_->Jobs(), kernel_.now());
  EXPECT_NE(monitor.find("h0"), std::string::npos);
  EXPECT_NE(monitor.find("h1"), std::string::npos);
  EXPECT_NE(monitor.find("scan"), std::string::npos);
  EXPECT_NE(monitor.find("alice"), std::string::npos);
  EXPECT_NE(monitor.find("Tycoon Grid Monitor"), std::string::npos);
}

}  // namespace
}  // namespace gm::grid
