#include "market/sls.hpp"

#include <algorithm>

#include "common/log.hpp"

namespace gm::market {
namespace {

// Journal record kinds for the SLS directory.
enum SlsRecordKind : std::uint8_t {
  kSlsPublish = 1,
  kSlsRemove = 2,
};

constexpr std::uint64_t kSlsSnapshotVersion = 1;

}  // namespace

bool ServiceLocationService::Expired(const HostRecord& record) const {
  return kernel_.now() - record.updated_at > kSlsRecordTtl;
}

void ServiceLocationService::Publish(HostRecord record) {
  gm::MutexLock lock(&mu_);
  record.updated_at = kernel_.now();
  if (store_ != nullptr) {
    net::Writer journal;
    journal.WriteU8(kSlsPublish);
    WriteHostRecord(journal, record);
    const Status appended = store_->Append(journal.data());
    GM_ASSERT(appended.ok(), "SLS: journal append failed");
  }
  const std::string host_id = record.host_id;
  records_[host_id] = std::move(record);
  // Checkpoint after the apply so the snapshot contains the record it
  // claims to cover.
  if (store_ != nullptr) {
    const Status snapshot = store_->MaybeSnapshot(*this);
    if (!snapshot.ok()) {
      GM_LOG_WARN << "SLS: snapshot after publish of " << host_id
                  << " failed: " << snapshot.ToString();
    }
  }
}

Status ServiceLocationService::Remove(const std::string& host_id) {
  gm::MutexLock lock(&mu_);
  if (records_.find(host_id) == records_.end())
    return Status::NotFound("host record: " + host_id);
  if (store_ != nullptr) {
    net::Writer journal;
    journal.WriteU8(kSlsRemove);
    journal.WriteString(host_id);
    GM_RETURN_IF_ERROR(store_->Append(journal.data()));
  }
  records_.erase(host_id);
  if (store_ != nullptr) {
    const Status snapshot = store_->MaybeSnapshot(*this);
    if (!snapshot.ok()) {
      GM_LOG_WARN << "SLS: snapshot after remove of " << host_id
                  << " failed: " << snapshot.ToString();
    }
  }
  return Status::Ok();
}

Result<HostRecord> ServiceLocationService::Lookup(
    const std::string& host_id) const {
  gm::MutexLock lock(&mu_);
  const auto it = records_.find(host_id);
  if (it == records_.end() || Expired(it->second))
    return Status::NotFound("host record: " + host_id);
  return it->second;
}

std::vector<HostRecord> ServiceLocationService::Query(
    const HostQuery& query) const {
  gm::MutexLock lock(&mu_);
  std::vector<HostRecord> out;
  for (const auto& [id, record] : records_) {
    if (Expired(record)) continue;
    if (record.cycles_per_cpu < query.min_cycles_per_cpu) continue;
    if (query.max_price_per_capacity.has_value() &&
        record.price_per_capacity > *query.max_price_per_capacity)
      continue;
    if (query.require_vm_slot &&
        record.vm_count >= static_cast<std::size_t>(record.max_vms))
      continue;
    out.push_back(record);
  }
  std::sort(out.begin(), out.end(),
            [](const HostRecord& a, const HostRecord& b) {
              if (a.price_per_capacity < b.price_per_capacity) return true;
              if (b.price_per_capacity < a.price_per_capacity) return false;
              return a.host_id < b.host_id;
            });
  if (query.limit > 0 && out.size() > query.limit) out.resize(query.limit);
  return out;
}

std::size_t ServiceLocationService::live_count() const {
  gm::MutexLock lock(&mu_);
  std::size_t count = 0;
  for (const auto& [id, record] : records_) {
    if (!Expired(record)) ++count;
  }
  return count;
}

// ---------------------------------------------------------------------
// Durability

// mu_ is deliberately held across store_->Recover(*this): the store
// calls back into LoadSnapshot/ApplyRecord below. Lock order sls (kSls)
// -> store (kStore) matches Publish's checkpoint path.
Result<store::RecoveryStats> ServiceLocationService::RecoverFromStore() {
  gm::MutexLock lock(&mu_);
  if (store_ == nullptr)
    return Status::FailedPrecondition("no store attached");
  records_.clear();
  GM_ASSIGN_OR_RETURN(const store::RecoveryStats stats,
                      store_->Recover(*this));
  // Liveness re-validation: replay restores registrations with their
  // original heartbeat timestamps; anything past its TTL now is stale
  // directory state, not a live host, and must not be offered to agents.
  for (auto it = records_.begin(); it != records_.end();) {
    if (Expired(it->second)) {
      it = records_.erase(it);
      ++stale_dropped_;
    } else {
      ++it;
    }
  }
  return stats;
}

// Reached only via the store while mu_ is held (see class comment).
Status ServiceLocationService::ApplyRecord(const Bytes& record)
    GM_NO_THREAD_SAFETY_ANALYSIS {
  net::Reader reader(record);
  GM_ASSIGN_OR_RETURN(const std::uint8_t kind, reader.ReadU8());
  switch (kind) {
    case kSlsPublish: {
      GM_ASSIGN_OR_RETURN(HostRecord host, ReadHostRecord(reader));
      records_[host.host_id] = std::move(host);
      return Status::Ok();
    }
    case kSlsRemove: {
      GM_ASSIGN_OR_RETURN(const std::string host_id, reader.ReadString());
      records_.erase(host_id);
      return Status::Ok();
    }
    default:
      return Status::Internal("unknown SLS journal record kind");
  }
}

// Reached only via the store while mu_ is held (see class comment).
void ServiceLocationService::WriteSnapshot(net::Writer& writer) const
    GM_NO_THREAD_SAFETY_ANALYSIS {
  writer.WriteVarint(kSlsSnapshotVersion);
  writer.WriteVarint(records_.size());
  for (const auto& [id, record] : records_) WriteHostRecord(writer, record);
}

// Reached only via the store while mu_ is held (see class comment).
Status ServiceLocationService::LoadSnapshot(net::Reader& reader)
    GM_NO_THREAD_SAFETY_ANALYSIS {
  GM_ASSIGN_OR_RETURN(const std::uint64_t version, reader.ReadVarint());
  if (version != kSlsSnapshotVersion)
    return Status::Internal("unsupported SLS snapshot version");
  records_.clear();
  GM_ASSIGN_OR_RETURN(const std::uint64_t count, reader.ReadVarint());
  for (std::uint64_t i = 0; i < count; ++i) {
    GM_ASSIGN_OR_RETURN(HostRecord record, ReadHostRecord(reader));
    records_[record.host_id] = std::move(record);
  }
  return Status::Ok();
}

SlsPublisher::SlsPublisher(Auctioneer& auctioneer,
                           ServiceLocationService& sls, sim::Kernel& kernel)
    : auctioneer_(auctioneer), sls_(sls), kernel_(kernel) {
  PublishNow();
  timer_ = kernel_.ScheduleEvery(kSlsHeartbeat, kSlsHeartbeat,
                                 [this] { PublishNow(); });
}

SlsPublisher::~SlsPublisher() {
  if (timer_.valid()) kernel_.Cancel(timer_);
}

void SlsPublisher::PublishNow() {
  const host::PhysicalHost& host = auctioneer_.physical_host();
  HostRecord record;
  record.host_id = host.id();
  record.site = kSlsSite;
  record.cpus = host.spec().cpus;
  record.cycles_per_cpu = host.PerCpuCapacity();
  record.price_per_capacity = auctioneer_.PricePerCapacity();
  const auto moments = auctioneer_.Moments("day");
  if (moments.ok()) {
    record.mean_price = (*moments)->mean();
    record.stddev_price = (*moments)->stddev();
  }
  record.vm_count = host.vm_count();
  record.max_vms = host.spec().max_vms;
  sls_.Publish(std::move(record));
}

void WriteHostRecord(net::Writer& writer, const HostRecord& record) {
  writer.WriteString(record.host_id);
  writer.WriteString(record.site);
  writer.WriteU32(static_cast<std::uint32_t>(record.cpus));
  writer.WriteDouble(record.cycles_per_cpu);
  writer.WriteDouble(record.price_per_capacity);
  writer.WriteDouble(record.mean_price);
  writer.WriteDouble(record.stddev_price);
  writer.WriteU32(static_cast<std::uint32_t>(record.vm_count));
  writer.WriteU32(static_cast<std::uint32_t>(record.max_vms));
  writer.WriteI64(record.updated_at);
}

Result<HostRecord> ReadHostRecord(net::Reader& reader) {
  HostRecord record;
  GM_ASSIGN_OR_RETURN(record.host_id, reader.ReadString());
  GM_ASSIGN_OR_RETURN(record.site, reader.ReadString());
  GM_ASSIGN_OR_RETURN(const std::uint32_t cpus, reader.ReadU32());
  record.cpus = static_cast<int>(cpus);
  GM_ASSIGN_OR_RETURN(record.cycles_per_cpu, reader.ReadDouble());
  GM_ASSIGN_OR_RETURN(record.price_per_capacity, reader.ReadDouble());
  GM_ASSIGN_OR_RETURN(record.mean_price, reader.ReadDouble());
  GM_ASSIGN_OR_RETURN(record.stddev_price, reader.ReadDouble());
  GM_ASSIGN_OR_RETURN(const std::uint32_t vm_count, reader.ReadU32());
  record.vm_count = vm_count;
  GM_ASSIGN_OR_RETURN(const std::uint32_t max_vms, reader.ReadU32());
  record.max_vms = static_cast<int>(max_vms);
  GM_ASSIGN_OR_RETURN(record.updated_at, reader.ReadI64());
  return record;
}

}  // namespace gm::market
