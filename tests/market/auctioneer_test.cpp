#include "market/auctioneer.hpp"

#include <gtest/gtest.h>

#include <filesystem>

namespace gm::market {
namespace {

using sim::Seconds;

host::HostSpec SmallHost() {
  host::HostSpec spec;
  spec.id = "h1";
  spec.cpus = 2;
  spec.cycles_per_cpu = 100.0;
  spec.virtualization_overhead = 0.0;
  spec.vm_boot_time = 0;
  spec.max_vms = 10;
  return spec;
}

class AuctioneerTest : public ::testing::Test {
 protected:
  AuctioneerTest() : host_(SmallHost()), auctioneer_(host_, kernel_) {}

  /// Open + fund + bid + enqueue work for a user in one step.
  host::VirtualMachine* Join(const std::string& user, Money funds,
                             Rate rate, sim::SimTime deadline,
                             Cycles work = 1e12) {
    EXPECT_TRUE(auctioneer_.OpenAccount(user).ok());
    EXPECT_TRUE(auctioneer_.Fund(user, funds).ok());
    EXPECT_TRUE(auctioneer_.SetBid(user, rate, deadline).ok());
    auto vm = auctioneer_.AcquireVm(user);
    EXPECT_TRUE(vm.ok());
    if (work > 0) (*vm)->Enqueue({next_work_id_++, work, nullptr});
    return *vm;
  }

  sim::Kernel kernel_;
  host::PhysicalHost host_;
  Auctioneer auctioneer_;
  std::uint64_t next_work_id_ = 1;
};

TEST_F(AuctioneerTest, AccountLifecycle) {
  EXPECT_TRUE(auctioneer_.OpenAccount("alice").ok());
  EXPECT_EQ(auctioneer_.OpenAccount("alice").code(),
            StatusCode::kAlreadyExists);
  EXPECT_TRUE(auctioneer_.Fund("alice", Money::FromMicros(100)).ok());
  EXPECT_EQ(auctioneer_.Balance("alice").value(), Money::FromMicros(100));
  EXPECT_FALSE(auctioneer_.Fund("bob", Money::FromMicros(100)).ok());
  EXPECT_FALSE(auctioneer_.Fund("alice", Money::Zero()).ok());
  const auto refund = auctioneer_.CloseAccount("alice");
  ASSERT_TRUE(refund.ok());
  EXPECT_EQ(*refund, Money::FromMicros(100));
  EXPECT_FALSE(auctioneer_.HasAccount("alice"));
}

TEST_F(AuctioneerTest, VmRequiresAccount) {
  EXPECT_EQ(auctioneer_.AcquireVm("ghost").status().code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(AuctioneerTest, AcquireVmIsIdempotent) {
  ASSERT_TRUE(auctioneer_.OpenAccount("alice").ok());
  const auto a = auctioneer_.AcquireVm("alice");
  const auto b = auctioneer_.AcquireVm("alice");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(*a, *b);  // one VM per user per host
  EXPECT_NE((*a)->market_slot(), BidTable::kNoSlot);
}

TEST_F(AuctioneerTest, ReusedSlotChargesOnlyItsNewOwner) {
  host::VirtualMachine* alice = Join("alice", Money::Dollars(100),
                                     Rate::MicrosPerSec(1000), Seconds(1000));
  const std::uint32_t slot = alice->market_slot();
  ASSERT_TRUE(auctioneer_.CloseAccount("alice").ok());  // destroys her VM
  // A VM made on the host for alice outlives her account.
  auto stray = host_.CreateVm("stray-alice", "alice", 0);
  ASSERT_TRUE(stray.ok());
  (*stray)->Enqueue({next_work_id_++, 1e12, nullptr});

  host::VirtualMachine* bob = Join("bob", Money::Dollars(100),
                                   Rate::MicrosPerSec(1000), Seconds(1000));
  EXPECT_EQ(bob->market_slot(), slot);  // alice's slot, recycled
  auctioneer_.Start();
  kernel_.RunUntil(Seconds(10));
  EXPECT_EQ(auctioneer_.Spent("bob").value(), Money::FromMicros(10000));
  EXPECT_EQ(auctioneer_.total_revenue(), Money::FromMicros(10000));
  EXPECT_FALSE(auctioneer_.Spent("alice").ok());
  EXPECT_GT(bob->delivered_cycles(), 0.0);
  EXPECT_EQ((*stray)->delivered_cycles(), 0.0);
}

TEST_F(AuctioneerTest, VmCreatedOnTheHostGetsNoShareAndNoCharge) {
  // Carol has an account and a bid, but this VM was made on the host, not
  // by AcquireVm: it holds no slot, so it earns nothing and costs nothing.
  auto stray = host_.CreateVm("stray-carol", "carol", 0);
  ASSERT_TRUE(stray.ok());
  (*stray)->Enqueue({next_work_id_++, 1e12, nullptr});
  host::VirtualMachine* carol = Join("carol", Money::Dollars(100),
                                     Rate::MicrosPerSec(1000), Seconds(1000));
  EXPECT_NE(carol, *stray);  // AcquireVm makes and binds its own VM
  auctioneer_.Start();
  kernel_.RunUntil(Seconds(30));
  EXPECT_EQ((*stray)->market_slot(), BidTable::kNoSlot);
  EXPECT_EQ((*stray)->delivered_cycles(), 0.0);
  EXPECT_GT(carol->delivered_cycles(), 0.0);
  EXPECT_EQ(auctioneer_.Spent("carol").value(), Money::FromMicros(30000));
  EXPECT_EQ(auctioneer_.total_revenue(), Money::FromMicros(30000));
}

TEST_F(AuctioneerTest, RevenueIsTheSumOfSpent) {
  const std::vector<std::string> users = {"alice", "bob", "carol", "dave"};
  for (std::size_t i = 0; i < users.size(); ++i) {
    Join(users[i], Money::Dollars(1), Rate::MicrosPerSec(700 * (i + 1)),
         Seconds(40 * (i + 1)), /*work=*/300.0 * (i + 1));
  }
  auctioneer_.Start();
  kernel_.RunUntil(Seconds(200));
  Money spent = Money::Zero();
  for (const std::string& user : users) spent += auctioneer_.Spent(user).value();
  EXPECT_TRUE(spent.is_positive());
  EXPECT_EQ(auctioneer_.total_revenue(), spent);
}

TEST_F(AuctioneerTest, SpotPriceSumsActiveBids) {
  Join("alice", Money::Dollars(100), Rate::MicrosPerSec(500), Seconds(1000));
  Join("bob", Money::Dollars(100), Rate::MicrosPerSec(300), Seconds(1000));
  EXPECT_EQ(auctioneer_.SpotPriceRate().micros_per_sec(), 800);
  // Price per capacity: $8e-4/s over 200 cycles/s... in micro terms.
  EXPECT_DOUBLE_EQ(auctioneer_.PricePerCapacity(),
                   MicrosToDollars(800) / 200.0);
}

TEST_F(AuctioneerTest, ExpiredAndUnfundedBidsExcludedFromPrice) {
  Join("alice", Money::Dollars(100), Rate::MicrosPerSec(500), Seconds(5));
  kernel_.RunUntil(Seconds(10));
  EXPECT_TRUE(auctioneer_.SpotPriceRate().is_zero());  // deadline passed
  ASSERT_TRUE(auctioneer_.OpenAccount("bob").ok());
  ASSERT_TRUE(
      auctioneer_.SetBid("bob", Rate::MicrosPerSec(300), Seconds(1000)).ok());
  EXPECT_TRUE(auctioneer_.SpotPriceRate().is_zero());  // no funds
}

TEST_F(AuctioneerTest, TickChargesProportionallyToUse) {
  Join("alice", Money::Dollars(100), Rate::MicrosPerSec(1000), Seconds(1000));
  auctioneer_.Start();
  kernel_.RunUntil(Seconds(10));  // one interval
  // Fully used share: pays rate * 10 s.
  EXPECT_EQ(auctioneer_.Spent("alice").value(), Money::FromMicros(10000));
  EXPECT_EQ(auctioneer_.Balance("alice").value(),
            Money::Dollars(100) - Money::FromMicros(10000));
  EXPECT_EQ(auctioneer_.total_revenue(), Money::FromMicros(10000));
}

TEST_F(AuctioneerTest, IdleVmIsNotCharged) {
  Join("alice", Money::Dollars(100), Rate::MicrosPerSec(1000), Seconds(1000),
       /*work=*/0);
  auctioneer_.Start();
  kernel_.RunUntil(Seconds(30));
  EXPECT_EQ(auctioneer_.Spent("alice").value(), Money::Zero());
  EXPECT_EQ(auctioneer_.Balance("alice").value(), Money::Dollars(100));
}

TEST_F(AuctioneerTest, PartialUseChargesFraction) {
  // 100 cycles of work, host grants 200 cycles/s for 10 s => uses 5% of
  // the granted capacity => pays 5% of rate * dt... with a 2-CPU host and
  // single vCPU cap 100/s the VM gets 100/s => uses 1% of 10 s.
  host::VirtualMachine* vm = Join("alice", Money::Dollars(100),
                                  Rate::MicrosPerSec(1000), Seconds(1000),
                                  /*work=*/0);
  vm->Enqueue({99, 100.0, nullptr});
  auctioneer_.Start();
  kernel_.RunUntil(Seconds(10));
  // granted = 100 cycles/s (vCPU cap), offered = 1000 cycles, used = 100
  // -> fraction 0.1 -> cost = 1000 µ$/s * 10 s * 0.1 = 1000 µ$.
  EXPECT_EQ(auctioneer_.Spent("alice").value(), Money::FromMicros(1000));
}

TEST_F(AuctioneerTest, HigherBidGetsProportionallyMoreCpu) {
  host::VirtualMachine* alice =
      Join("alice", Money::Dollars(100), Rate::MicrosPerSec(3000),
           Seconds(1000));
  host::VirtualMachine* bob =
      Join("bob", Money::Dollars(100), Rate::MicrosPerSec(1000),
           Seconds(1000));
  host::VirtualMachine* carol =
      Join("carol", Money::Dollars(100), Rate::MicrosPerSec(1000),
           Seconds(1000));
  auctioneer_.Start();
  kernel_.RunUntil(Seconds(100));
  // Weights 3:1:1 on 200 cycles/s with a 100 cap: alice capped at 100,
  // bob and carol share the rest 50/50.
  EXPECT_NEAR(alice->delivered_cycles(), 100.0 * 100, 1.0);
  EXPECT_NEAR(bob->delivered_cycles(), 50.0 * 100, 1.0);
  EXPECT_NEAR(carol->delivered_cycles(), 50.0 * 100, 1.0);
}

TEST_F(AuctioneerTest, BalanceExhaustionStopsService) {
  // Funds for exactly 5 intervals at full use.
  host::VirtualMachine* vm =
      Join("alice", Money::FromMicros(50'000), Rate::MicrosPerSec(1000),
           Seconds(100000));
  auctioneer_.Start();
  kernel_.RunUntil(Seconds(200));
  EXPECT_EQ(auctioneer_.Balance("alice").value(), Money::Zero());
  EXPECT_EQ(auctioneer_.Spent("alice").value(), Money::FromMicros(50'000));
  // Work stops once the account drains: 50 s of CPU at 100 cycles/s.
  EXPECT_NEAR(vm->delivered_cycles(), 5000.0, 1.0);
}

TEST_F(AuctioneerTest, PriceHistoryRecordedEveryTick) {
  Join("alice", Money::Dollars(100), Rate::MicrosPerSec(800), Seconds(1000));
  auctioneer_.Start();
  kernel_.RunUntil(Seconds(50));
  EXPECT_EQ(auctioneer_.history().size(), 5u);
  EXPECT_DOUBLE_EQ(auctioneer_.history().back().price,
                   MicrosToDollars(800) / 200.0);
}

TEST_F(AuctioneerTest, WindowStatsAndDistributionsFed) {
  Join("alice", Money::Dollars(100), Rate::MicrosPerSec(800), Seconds(1000));
  auctioneer_.Start();
  kernel_.RunUntil(Seconds(100));
  const auto moments = auctioneer_.Moments("hour");
  ASSERT_TRUE(moments.ok());
  EXPECT_GT((*moments)->mean(), 0.0);
  const auto table = auctioneer_.Distribution("hour");
  ASSERT_TRUE(table.ok());
  EXPECT_GT(table.value()->slot_count(), 0u);
  EXPECT_FALSE(auctioneer_.Moments("decade").ok());
}

TEST_F(AuctioneerTest, CloseAccountRefundsUnusedBalance) {
  Join("alice", Money::Dollars(100), Rate::MicrosPerSec(1000), Seconds(1000));
  auctioneer_.Start();
  kernel_.RunUntil(Seconds(20));
  const Money spent = auctioneer_.Spent("alice").value();
  const auto refund = auctioneer_.CloseAccount("alice");
  ASSERT_TRUE(refund.ok());
  EXPECT_EQ(*refund + spent, Money::Dollars(100));
  // The VM is gone too.
  EXPECT_EQ(host_.vm_count(), 0u);
}

TEST_F(AuctioneerTest, WorkCompletionDuringTicks) {
  host::VirtualMachine* vm = Join("alice", Money::Dollars(100),
                                  Rate::MicrosPerSec(1000), Seconds(1000),
                                  /*work=*/0);
  sim::SimTime completed_at = -1;
  // 250 cycles at 100 cycles/s = 2.5 s into the first interval.
  vm->Enqueue({1, 250.0, [&](sim::SimTime t) { completed_at = t; }});
  auctioneer_.Start();
  kernel_.RunUntil(Seconds(10));
  EXPECT_EQ(completed_at, sim::Seconds(2.5));
}

TEST_F(AuctioneerTest, CrashedHostWarmStartsForecasterWindowFromJournal) {
  const auto dir = std::filesystem::path(::testing::TempDir()) / "gm_auct_warm";
  std::filesystem::remove_all(dir);
  auto store = store::DurableStore::Open(dir.string());
  ASSERT_TRUE(store.ok());
  auctioneer_.AttachStore(store->get());

  Join("alice", Money::Dollars(100), Rate::MicrosPerSec(1000), sim::Hours(2));
  auctioneer_.Start();
  kernel_.RunUntil(sim::Minutes(30));
  const std::size_t points_before = auctioneer_.history().size();
  ASSERT_GT(points_before, 0u);
  const auto moments_before = auctioneer_.Moments("hour");
  ASSERT_TRUE(moments_before.ok());
  const double mean_before = (*moments_before)->mean();
  ASSERT_GT(mean_before, 0.0);

  // Crash: the in-memory window and the window statistics built from it
  // are gone.
  auctioneer_.CrashStorageState();
  EXPECT_TRUE(auctioneer_.history().empty());
  EXPECT_DOUBLE_EQ((*auctioneer_.Moments("hour"))->mean(), 0.0);

  // Restart: the journal replays the window, and re-feeding it into the
  // statistics warm-starts the forecasters at their pre-crash view.
  auto stats = auctioneer_.RecoverHistory();
  ASSERT_TRUE(stats.ok()) << stats.status().message();
  EXPECT_EQ(auctioneer_.history().size(), points_before);
  const auto moments_after = auctioneer_.Moments("hour");
  ASSERT_TRUE(moments_after.ok());
  EXPECT_DOUBLE_EQ((*moments_after)->mean(), mean_before);
}

TEST_F(AuctioneerTest, ExcludedSpotPriceTracksSameTickRemovals) {
  // Regression guard for the incremental spot-price maintenance: the
  // excluded price (the y_j a Best Response agent bids against) must
  // track bid removals, re-bids and deadline lapses the instant they
  // happen — between ticks, with no Tick() re-sum to repair the total.
  Join("alice", Money::Dollars(100), Rate::MicrosPerSec(500), Seconds(1000));
  Join("bob", Money::Dollars(100), Rate::MicrosPerSec(300), Seconds(1000));
  Join("carol", Money::Dollars(100), Rate::MicrosPerSec(200), Seconds(600));
  EXPECT_EQ(auctioneer_.SpotPriceRateExcluding("alice").micros_per_sec(), 500);

  // Same-tick removal: bob's account closes (escrow reclaimed); the
  // excluded price drops immediately.
  ASSERT_TRUE(auctioneer_.CloseAccount("bob").ok());
  EXPECT_EQ(auctioneer_.SpotPriceRate().micros_per_sec(), 700);
  EXPECT_EQ(auctioneer_.SpotPriceRateExcluding("alice").micros_per_sec(), 200);

  // Same-tick re-bid: the exclusion must use the replacement rate, not
  // the stale one.
  ASSERT_TRUE(auctioneer_
                  .SetBid("alice", Rate::MicrosPerSec(250), Seconds(1000))
                  .ok());
  EXPECT_EQ(auctioneer_.SpotPriceRateExcluding("carol").micros_per_sec(), 250);

  // Deadline lapse with no intervening Tick: advancing the clock alone
  // must expire carol's bid from both the total and the exclusion.
  kernel_.RunUntil(Seconds(700));
  EXPECT_EQ(auctioneer_.SpotPriceRate().micros_per_sec(), 250);
  EXPECT_EQ(auctioneer_.SpotPriceRateExcluding("carol").micros_per_sec(), 250);
  EXPECT_EQ(auctioneer_.SpotPriceRateExcluding("alice").micros_per_sec(), 0);

  // And an expired bidder who re-bids past the lapse comes back.
  ASSERT_TRUE(auctioneer_
                  .SetBid("carol", Rate::MicrosPerSec(200), Seconds(2000))
                  .ok());
  EXPECT_EQ(auctioneer_.SpotPriceRate().micros_per_sec(), 450);
  EXPECT_EQ(auctioneer_.SpotPriceRateExcluding("alice").micros_per_sec(), 200);
}

TEST_F(AuctioneerTest, HistoryRetentionDefaultsToLongestWindow) {
  // With no explicit override, the retention horizon must cover the
  // longest prediction window ("week") so warm-started statistics see a
  // full window.
  EXPECT_GE(auctioneer_.history().retention(), 7 * sim::kDay);
}

}  // namespace
}  // namespace gm::market
