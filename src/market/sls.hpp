// Service Location Service: the Tycoon resource directory.
//
// Auctioneers publish host records (capacity, load, spot price and
// advertised price statistics) on a heartbeat; agents query for candidate
// hosts. Records expire if a host stops heartbeating — the failure mode a
// decentralized market must tolerate. The scheduler plugin is co-located
// with the broker and queries the directory in process (paper §3.1).
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/concurrency.hpp"
#include "common/status.hpp"
#include "market/auctioneer.hpp"
#include "net/serialize.hpp"
#include "sim/kernel.hpp"
#include "store/store.hpp"

namespace gm::market {

struct HostRecord {
  std::string host_id;
  std::string site;  // owning site, e.g. "hp-palo-alto"
  int cpus = 0;
  double cycles_per_cpu = 0.0;        // effective, after overhead
  double price_per_capacity = 0.0;    // current spot, $/s per cycles/s
  double mean_price = 0.0;            // advertised window stats
  double stddev_price = 0.0;
  std::size_t vm_count = 0;
  int max_vms = 0;
  sim::SimTime updated_at = 0;
};

struct HostQuery {
  double min_cycles_per_cpu = 0.0;
  std::optional<double> max_price_per_capacity;
  bool require_vm_slot = false;  // host must accept another VM
  std::size_t limit = 0;         // 0 = unlimited
};

/// Thread-safe: one mutex (rank kSls) guards the directory map, so
/// heartbeats from concurrent auction shards and queries from broker
/// threads serialize cleanly. Liveness checks read the sim clock, which
/// parallel phases treat as read-only (it advances only between rounds).
/// The Recoverable hooks are reached only through the attached store
/// while mu_ is already held.
class ServiceLocationService : public store::Recoverable {
 public:
  explicit ServiceLocationService(sim::Kernel& kernel,
                                  sim::SimDuration record_ttl = sim::Minutes(5));

  /// Upsert a host record (heartbeat).
  void Publish(HostRecord record);
  Status Remove(const std::string& host_id);
  Result<HostRecord> Lookup(const std::string& host_id) const;

  /// Matching, unexpired records sorted by ascending spot price.
  std::vector<HostRecord> Query(const HostQuery& query) const;
  std::size_t live_count() const;
  /// A record is live while it is at most this old.
  sim::SimDuration ttl() const { return ttl_; }

  // -- durability --
  /// Journal every subsequent Publish/Remove into `s` (non-owning;
  /// nullptr detaches).
  void AttachStore(store::DurableStore* s) {
    gm::MutexLock lock(&mu_);
    store_ = s;
  }
  /// Rebuild the directory from the store, then re-validate liveness: a
  /// replayed host whose heartbeat TTL already lapsed is dropped rather
  /// than resurrected as a live allocation target.
  Result<store::RecoveryStats> RecoverFromStore();
  /// Registrations dropped by liveness re-validation during recovery.
  std::size_t stale_dropped() const {
    gm::MutexLock lock(&mu_);
    return stale_dropped_;
  }
  /// Crash simulation: lose the in-memory directory (the store survives).
  void Clear() {
    gm::MutexLock lock(&mu_);
    records_.clear();
  }

  // store::Recoverable — externally serialized: only reached through the
  // store while this service holds mu_ (see class comment).
  Status ApplyRecord(const Bytes& record) override;
  void WriteSnapshot(net::Writer& writer) const override;
  Status LoadSnapshot(net::Reader& reader) override;

 private:
  bool Expired(const HostRecord& record) const;

  sim::Kernel& kernel_;
  const sim::SimDuration ttl_;
  mutable gm::Mutex mu_{"market.sls", gm::lockrank::kSls};
  std::map<std::string, HostRecord> records_ GM_GUARDED_BY(mu_);
  store::DurableStore* store_ GM_GUARDED_BY(mu_) = nullptr;  // non-owning
  std::size_t stale_dropped_ GM_GUARDED_BY(mu_) = 0;
};

/// Publishes an auctioneer's state to the SLS on a heartbeat timer.
class SlsPublisher {
 public:
  SlsPublisher(Auctioneer& auctioneer, ServiceLocationService& sls,
               std::string site, sim::Kernel& kernel,
               sim::SimDuration period = sim::Minutes(1),
               std::string stats_window = "day");
  ~SlsPublisher();
  SlsPublisher(const SlsPublisher&) = delete;
  SlsPublisher& operator=(const SlsPublisher&) = delete;

  void PublishNow();

 private:
  Auctioneer& auctioneer_;
  ServiceLocationService& sls_;
  std::string site_;
  sim::Kernel& kernel_;
  std::string stats_window_;
  sim::EventHandle timer_;
};

/// Wire format of a host record, shared by the SLS journal and snapshots.
void WriteHostRecord(net::Writer& writer, const HostRecord& record);
Result<HostRecord> ReadHostRecord(net::Reader& reader);

}  // namespace gm::market
