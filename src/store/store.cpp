#include "store/store.hpp"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>

#include "common/strings.hpp"
#include "store/crc32.hpp"

namespace fs = std::filesystem;

namespace gm::store {
namespace {

constexpr char kSnapshotMagic[8] = {'G', 'M', 'S', 'N', 'A', 'P', '0', '1'};
constexpr std::size_t kMagicBytes = sizeof(kSnapshotMagic);
constexpr std::size_t kSnapshotHeaderBytes = kMagicBytes + 8 + 4 + 4;

std::string SnapshotName(std::uint64_t last_seq) {
  return StrFormat("snap-%020llu.snap",
                   static_cast<unsigned long long>(last_seq));
}

std::vector<std::string> SnapshotFiles(const std::string& dir) {
  std::vector<std::string> files;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("snap-", 0) == 0 &&
        name.size() > kMagicBytes + 1 &&
        name.substr(name.size() - 5) == ".snap") {
      files.push_back(name);
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

void PutU32(Bytes& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back((v >> (8 * i)) & 0xFFu);
}

void PutU64(Bytes& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back((v >> (8 * i)) & 0xFFu);
}

std::uint32_t GetU32(const std::uint8_t* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
  return v;
}

std::uint64_t GetU64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  return v;
}

/// Validate and decode one snapshot file; any inconsistency is an error
/// (the caller falls back to an older snapshot).
Result<std::pair<std::uint64_t, Bytes>> ReadSnapshot(const std::string& path) {
  GM_ASSIGN_OR_RETURN(const Bytes data, ReadWholeFile(path));
  if (data.size() < kSnapshotHeaderBytes ||
      !std::equal(kSnapshotMagic, kSnapshotMagic + kMagicBytes, data.begin()))
    return Status::Internal("snapshot header invalid: " + path);
  const std::uint64_t last_seq = GetU64(&data[kMagicBytes]);
  const std::uint32_t length = GetU32(&data[kMagicBytes + 8]);
  const std::uint32_t crc = GetU32(&data[kMagicBytes + 12]);
  if (data.size() - kSnapshotHeaderBytes != length)
    return Status::Internal("snapshot length mismatch: " + path);
  Bytes payload(data.begin() + kSnapshotHeaderBytes, data.end());
  if (Crc32(payload) != crc)
    return Status::Internal("snapshot checksum mismatch: " + path);
  return std::make_pair(last_seq, std::move(payload));
}

}  // namespace

DurableStore::DurableStore(std::unique_ptr<WriteAheadLog> wal,
                           StoreOptions options)
    : wal_(std::move(wal)), options_(options) {}

Result<std::unique_ptr<DurableStore>> DurableStore::Open(
    std::string dir, StoreOptions options) {
  WalOptions wal_options;
  wal_options.segment_max_bytes = options.segment_max_bytes;
  GM_ASSIGN_OR_RETURN(std::unique_ptr<WriteAheadLog> wal,
                      WriteAheadLog::Open(std::move(dir), wal_options));
  return std::unique_ptr<DurableStore>(
      new DurableStore(std::move(wal), options));
}

void DurableStore::AttachTelemetry(telemetry::Telemetry* telemetry,
                                   const std::string& label) {
  if (telemetry == nullptr) {
    append_hist_ = nullptr;
    snapshot_hist_ = nullptr;
    return;
  }
  append_hist_ =
      telemetry->metrics().GetHistogram("store." + label + ".append_wall_ns");
  snapshot_hist_ =
      telemetry->metrics().GetHistogram("store." + label + ".snapshot_wall_ns");
}

namespace {

std::uint64_t WallNanosSince(
    std::chrono::steady_clock::time_point start) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
}

}  // namespace

Status DurableStore::Append(const Bytes& record) {
  gm::MutexLock lock(&mu_);
  // Sampled 1-in-8: a page-cache append costs about as much as two
  // steady_clock reads, so timing every one would be the dominant cost
  // of attaching telemetry. Quantiles stay representative; exact append
  // counts come from stats_ / the mirrored counters.
  if (append_hist_ != nullptr && (append_sample_++ & 7u) == 0) {
    const auto start = std::chrono::steady_clock::now();
    GM_RETURN_IF_ERROR(wal_->Append(record));
    append_hist_->Record(WallNanosSince(start));
  } else {
    GM_RETURN_IF_ERROR(wal_->Append(record));
  }
  ++stats_.appended_records;
  stats_.appended_bytes += record.size();
  ++appends_since_snapshot_;
  return Status::Ok();
}

Status DurableStore::WriteSnapshot(const Recoverable& state) {
  gm::MutexLock lock(&mu_);
  return WriteSnapshotLocked(state);
}

Status DurableStore::WriteSnapshotLocked(const Recoverable& state) {
  const auto wall_start = std::chrono::steady_clock::now();
  // Rotate first: everything before the new segment is then covered by
  // the checkpoint and can be compacted away.
  GM_RETURN_IF_ERROR(wal_->Rotate());
  const std::uint64_t last_seq = wal_->next_seq() - 1;

  net::Writer writer;
  state.WriteSnapshot(writer);
  const Bytes payload = writer.Take();

  Bytes file;
  file.reserve(kSnapshotHeaderBytes + payload.size());
  file.insert(file.end(), kSnapshotMagic, kSnapshotMagic + kMagicBytes);
  PutU64(file, last_seq);
  PutU32(file, static_cast<std::uint32_t>(payload.size()));
  PutU32(file, Crc32(payload));
  file.insert(file.end(), payload.begin(), payload.end());

  const std::string name = SnapshotName(last_seq);
  const std::string path = dir() + "/" + name;
  // Write to a temp name then rename: a crash mid-write must never leave
  // a half-written file masquerading as the newest snapshot.
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out.is_open())
      return Status::Unavailable("cannot create snapshot " + tmp);
    out.write(reinterpret_cast<const char*>(file.data()),
              static_cast<std::streamsize>(file.size()));
    out.flush();
    if (!out.good())
      return Status::Unavailable("cannot write snapshot " + tmp);
  }
  std::error_code ec;
  fs::rename(tmp, path, ec);
  if (ec)
    return Status::Unavailable("cannot publish snapshot " + path + ": " +
                               ec.message());
  ++stats_.snapshots_written;
  appends_since_snapshot_ = 0;

  // Compact: older snapshots and pre-rotation segments are redundant.
  for (const std::string& old : SnapshotFiles(dir())) {
    if (old != name) fs::remove(dir() + "/" + old, ec);
  }
  const Status compacted = wal_->DropSegmentsExceptActive();
  if (snapshot_hist_ != nullptr)
    snapshot_hist_->Record(WallNanosSince(wall_start));
  return compacted;
}

Status DurableStore::MaybeSnapshot(const Recoverable& state) {
  gm::MutexLock lock(&mu_);
  if (options_.snapshot_every_records == 0 ||
      appends_since_snapshot_ < options_.snapshot_every_records)
    return Status::Ok();
  return WriteSnapshotLocked(state);
}

Result<RecoveryStats> DurableStore::Recover(Recoverable& state) {
  gm::MutexLock lock(&mu_);
  RecoveryStats recovery;
  ++stats_.recoveries;
  recovery.truncated_bytes = wal_->open_truncated_bytes();

  // Newest valid snapshot wins; corrupt ones fall back to older copies.
  std::vector<std::string> snapshots = SnapshotFiles(dir());
  for (auto it = snapshots.rbegin(); it != snapshots.rend(); ++it) {
    const auto decoded = ReadSnapshot(dir() + "/" + *it);
    if (!decoded.ok()) continue;
    net::Reader reader(decoded->second);
    if (!state.LoadSnapshot(reader).ok()) continue;
    recovery.snapshot_loaded = true;
    recovery.snapshot_seq = decoded->first;
    ++stats_.snapshots_loaded;
    break;
  }

  GM_ASSIGN_OR_RETURN(
      const RecoveryStats replay,
      wal_->Replay(recovery.snapshot_seq,
                   [&](std::uint64_t, const Bytes& payload) {
                     return state.ApplyRecord(payload);
                   }));
  recovery.replayed_records = replay.replayed_records;
  recovery.skipped_duplicates = replay.skipped_duplicates;
  recovery.truncated_bytes += replay.truncated_bytes;
  recovery.segments_scanned = replay.segments_scanned;
  stats_.replayed_records += replay.replayed_records;
  stats_.skipped_duplicates += replay.skipped_duplicates;
  stats_.truncated_bytes += recovery.truncated_bytes;
  return recovery;
}

}  // namespace gm::store
