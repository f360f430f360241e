#include "market/sls.hpp"

#include <gtest/gtest.h>

#include <filesystem>

namespace gm::market {
namespace {

using sim::Minutes;
using sim::Seconds;

HostRecord MakeRecord(const std::string& id, double price,
                      double cycles = 100.0, std::size_t vms = 0,
                      int max_vms = 10) {
  HostRecord record;
  record.host_id = id;
  record.site = "test-site";
  record.cpus = 2;
  record.cycles_per_cpu = cycles;
  record.price_per_capacity = price;
  record.vm_count = vms;
  record.max_vms = max_vms;
  return record;
}

class SlsTest : public ::testing::Test {
 protected:
  sim::Kernel kernel_;
  ServiceLocationService sls_{kernel_};
};

TEST_F(SlsTest, PublishAndLookup) {
  sls_.Publish(MakeRecord("h1", 0.5));
  const auto record = sls_.Lookup("h1");
  ASSERT_TRUE(record.ok());
  EXPECT_DOUBLE_EQ(record->price_per_capacity, 0.5);
  EXPECT_FALSE(sls_.Lookup("h2").ok());
}

TEST_F(SlsTest, PublishUpserts) {
  sls_.Publish(MakeRecord("h1", 0.5));
  sls_.Publish(MakeRecord("h1", 0.9));
  EXPECT_DOUBLE_EQ(sls_.Lookup("h1")->price_per_capacity, 0.9);
  EXPECT_EQ(sls_.live_count(), 1u);
}

TEST_F(SlsTest, QuerySortsByPrice) {
  sls_.Publish(MakeRecord("expensive", 0.9));
  sls_.Publish(MakeRecord("cheap", 0.1));
  sls_.Publish(MakeRecord("middle", 0.5));
  const auto records = sls_.Query({});
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0].host_id, "cheap");
  EXPECT_EQ(records[1].host_id, "middle");
  EXPECT_EQ(records[2].host_id, "expensive");
}

TEST_F(SlsTest, QueryFilters) {
  sls_.Publish(MakeRecord("slow", 0.1, /*cycles=*/50.0));
  sls_.Publish(MakeRecord("fast", 0.5, /*cycles=*/200.0));
  sls_.Publish(MakeRecord("full", 0.2, /*cycles=*/200.0, /*vms=*/10,
                          /*max_vms=*/10));

  HostQuery query;
  query.min_cycles_per_cpu = 100.0;
  query.require_vm_slot = true;
  const auto records = sls_.Query(query);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].host_id, "fast");

  HostQuery price_query;
  price_query.max_price_per_capacity = 0.3;
  EXPECT_EQ(sls_.Query(price_query).size(), 2u);  // slow + full

  HostQuery limited;
  limited.limit = 2;
  EXPECT_EQ(sls_.Query(limited).size(), 2u);
}

TEST_F(SlsTest, RecordsExpireWithoutHeartbeat) {
  sls_.Publish(MakeRecord("h1", 0.5));
  kernel_.RunUntil(Minutes(4));
  EXPECT_EQ(sls_.live_count(), 1u);
  kernel_.RunUntil(Minutes(6));
  EXPECT_EQ(sls_.live_count(), 0u);
  EXPECT_FALSE(sls_.Lookup("h1").ok());
  EXPECT_TRUE(sls_.Query({}).empty());
}

TEST_F(SlsTest, RemoveDeletesRecord) {
  sls_.Publish(MakeRecord("h1", 0.5));
  EXPECT_TRUE(sls_.Remove("h1").ok());
  EXPECT_FALSE(sls_.Remove("h1").ok());
  EXPECT_FALSE(sls_.Lookup("h1").ok());
}

TEST_F(SlsTest, PublisherHeartbeatsAuctioneerState) {
  host::HostSpec spec;
  spec.id = "h9";
  spec.cpus = 2;
  spec.cycles_per_cpu = 100.0;
  spec.virtualization_overhead = 0.0;
  spec.vm_boot_time = 0;
  host::PhysicalHost host(spec);
  Auctioneer auctioneer(host, kernel_);
  ASSERT_TRUE(auctioneer.OpenAccount("alice").ok());
  ASSERT_TRUE(auctioneer.Fund("alice", Money::FromMicros(1000000)).ok());
  ASSERT_TRUE(
      auctioneer.SetBid("alice", Rate::MicrosPerSec(400), sim::Hours(10)).ok());

  SlsPublisher publisher(auctioneer, sls_, kernel_);
  // Published immediately at construction.
  const auto record = sls_.Lookup("h9");
  ASSERT_TRUE(record.ok());
  EXPECT_EQ(record->site, "hp-palo-alto");
  EXPECT_DOUBLE_EQ(record->price_per_capacity,
                   MicrosToDollars(400) / 200.0);

  // Heartbeats keep the record alive well past the TTL.
  kernel_.RunUntil(Minutes(20));
  EXPECT_TRUE(sls_.Lookup("h9").ok());
}

TEST(SlsWireTest, HostRecordRoundTrip) {
  HostRecord record = MakeRecord("h1", 0.25, 123.0, 3, 15);
  record.mean_price = 0.2;
  record.stddev_price = 0.05;
  record.updated_at = 999;
  net::Writer writer;
  WriteHostRecord(writer, record);
  net::Reader reader(writer.data());
  const auto decoded = ReadHostRecord(reader);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->host_id, "h1");
  EXPECT_EQ(decoded->site, "test-site");
  EXPECT_DOUBLE_EQ(decoded->price_per_capacity, 0.25);
  EXPECT_DOUBLE_EQ(decoded->mean_price, 0.2);
  EXPECT_EQ(decoded->vm_count, 3u);
  EXPECT_EQ(decoded->max_vms, 15);
  EXPECT_EQ(decoded->updated_at, 999);
}


namespace fs = std::filesystem;

fs::path SlsFreshDir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / ("gm_sls_" + name);
  fs::remove_all(dir);
  return dir;
}

TEST(SlsDurabilityTest, DirectorySurvivesRecovery) {
  const fs::path dir = SlsFreshDir("survive");
  auto store = store::DurableStore::Open(dir.string());
  ASSERT_TRUE(store.ok());
  sim::Kernel kernel;
  {
    ServiceLocationService sls(kernel);
    sls.AttachStore(store->get());
    sls.Publish(MakeRecord("h1", 0.5));
    sls.Publish(MakeRecord("h2", 0.1));
    ASSERT_TRUE(sls.Remove("h1").ok());
  }
  ServiceLocationService recovered(kernel);
  recovered.AttachStore(store->get());
  auto stats = recovered.RecoverFromStore();
  ASSERT_TRUE(stats.ok()) << stats.status().message();
  EXPECT_EQ(stats->replayed_records, 3u);
  EXPECT_EQ(recovered.live_count(), 1u);
  EXPECT_FALSE(recovered.Lookup("h1").ok());
  EXPECT_DOUBLE_EQ(recovered.Lookup("h2")->price_per_capacity, 0.1);
}

TEST(SlsDurabilityTest, RecoveryRevalidatesLiveness) {
  const fs::path dir = SlsFreshDir("liveness");
  auto store = store::DurableStore::Open(dir.string());
  ASSERT_TRUE(store.ok());
  sim::Kernel kernel;
  ServiceLocationService sls(kernel);
  sls.AttachStore(store->get());
  sls.Publish(MakeRecord("stale-host", 0.5));  // heartbeat at t=0
  kernel.RunUntil(sim::Minutes(10));
  sls.Publish(MakeRecord("fresh-host", 0.2));  // heartbeat at t=10min

  // The host directory a recovering SLS replays contains both
  // registrations, but stale-host's TTL lapsed while it was down: it
  // must not be resurrected as a live allocation target.
  ServiceLocationService recovered(kernel);
  recovered.AttachStore(store->get());
  ASSERT_TRUE(recovered.RecoverFromStore().ok());
  EXPECT_EQ(recovered.stale_dropped(), 1u);
  EXPECT_FALSE(recovered.Lookup("stale-host").ok());
  EXPECT_TRUE(recovered.Lookup("fresh-host").ok());
  EXPECT_EQ(recovered.live_count(), 1u);
}

TEST(SlsDurabilityTest, CrashAndRecoverInPlace) {
  const fs::path dir = SlsFreshDir("crash");
  auto store = store::DurableStore::Open(dir.string());
  ASSERT_TRUE(store.ok());
  sim::Kernel kernel;
  ServiceLocationService sls(kernel);
  sls.AttachStore(store->get());
  sls.Publish(MakeRecord("h1", 0.4));
  sls.Clear();  // crash: directory gone
  EXPECT_EQ(sls.live_count(), 0u);
  ASSERT_TRUE(sls.RecoverFromStore().ok());
  EXPECT_EQ(sls.live_count(), 1u);
  // Journaling continues after recovery; a second recovery sees both.
  sls.Publish(MakeRecord("h2", 0.6));
  sls.Clear();
  ASSERT_TRUE(sls.RecoverFromStore().ok());
  EXPECT_EQ(sls.live_count(), 2u);
}

}  // namespace
}  // namespace gm::market
