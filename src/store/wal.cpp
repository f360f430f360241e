#include "store/wal.hpp"

#include <fcntl.h>
#include <sys/file.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>

#include "common/strings.hpp"
#include "store/crc32.hpp"

namespace fs = std::filesystem;

namespace gm::store {
namespace {

constexpr char kSegmentMagic[8] = {'G', 'M', 'W', 'A', 'L', '0', '0', '1'};
constexpr std::size_t kMagicBytes = sizeof(kSegmentMagic);
constexpr std::size_t kRecordHeaderBytes = 4 + 4 + 8;  // len + crc + seq
// Sanity cap: a corrupted length field must not trigger a giant
// allocation; anything larger is treated as tail corruption.
constexpr std::uint32_t kMaxRecordBytes = 1u << 26;
// The mapped window slides over the active segment in steps of this
// size (a larger record gets a window that fits it). The file grows a
// window at a time, so an open segment runs up to this far past its
// last record; with eight logs the windows add at most 0.5 MB of RSS.
constexpr std::size_t kWindowBytes = 64 << 10;

std::size_t PageBytes() {
  static const std::size_t page =
      static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  return page;
}

std::size_t RoundUp(std::size_t n, std::size_t step) {
  return (n + step - 1) / step * step;
}

// `what` failed with the errno value `err`. Callers copy errno before
// building `what`, which may allocate.
Status SystemError(const std::string& what, int err) {
  return Status::Unavailable(what + ": " + std::strerror(err));
}

void StoreU32(std::uint8_t* p, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

void StoreU64(std::uint8_t* p, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<std::uint8_t>(v >> (8 * i));
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

/// CRC over the (seq || payload) pair exactly as laid out on disk.
std::uint32_t RecordCrc(std::uint64_t seq, const std::uint8_t* payload,
                        std::size_t size) {
  std::uint8_t seq_bytes[8];
  StoreU64(seq_bytes, seq);
  return Crc32(payload, size, Crc32(seq_bytes, sizeof(seq_bytes)));
}

struct SegmentScan {
  bool header_ok = false;
  std::uint64_t records = 0;
  std::uint64_t last_seq = 0;        // highest seq seen in this segment
  std::uint64_t valid_bytes = 0;     // end offset of the last valid record
  std::uint64_t truncated_bytes = 0; // corrupt/torn tail after it
};

/// Walk one segment, calling `visit` (may be null) for every record that
/// passes the checksum. Stops at the first torn or corrupt record; bytes
/// after it count as truncated unless they are all zero.
Result<SegmentScan> ScanSegment(
    const std::string& path,
    const std::function<Status(std::uint64_t seq, const Bytes& payload)>&
        visit) {
  GM_ASSIGN_OR_RETURN(const Bytes data, ReadWholeFile(path));
  SegmentScan scan;
  if (data.size() < kMagicBytes ||
      !std::equal(kSegmentMagic, kSegmentMagic + kMagicBytes, data.begin())) {
    scan.truncated_bytes = data.size();
    return scan;
  }
  scan.header_ok = true;
  scan.valid_bytes = kMagicBytes;
  std::size_t pos = kMagicBytes;
  Bytes payload;
  while (pos < data.size()) {
    if (data.size() - pos < kRecordHeaderBytes) break;  // torn header
    const std::uint32_t length = GetU32(&data[pos]);
    const std::uint32_t crc = GetU32(&data[pos + 4]);
    const std::uint64_t seq = GetU64(&data[pos + 8]);
    if (length > kMaxRecordBytes) break;  // corrupt length field
    if (data.size() - pos - kRecordHeaderBytes < length) break;  // torn body
    const std::uint8_t* body = &data[pos + kRecordHeaderBytes];
    if (RecordCrc(seq, body, length) != crc) break;  // flipped bits
    if (visit) {
      payload.assign(body, body + length);
      GM_RETURN_IF_ERROR(visit(seq, payload));
    }
    ++scan.records;
    scan.last_seq = std::max(scan.last_seq, seq);
    pos += kRecordHeaderBytes + length;
    scan.valid_bytes = pos;
  }
  // Zeros from the last record to the end are preallocation: a clean end.
  const bool zero_tail =
      std::all_of(data.begin() + static_cast<std::ptrdiff_t>(pos), data.end(),
                  [](std::uint8_t b) { return b == 0; });
  if (!zero_tail) scan.truncated_bytes = data.size() - scan.valid_bytes;
  return scan;
}

}  // namespace

WriteAheadLog::WriteAheadLog(std::string dir, WalOptions options, int dir_fd)
    : dir_(std::move(dir)), options_(options), dir_fd_(dir_fd) {}

WriteAheadLog::~WriteAheadLog() {
  {
    gm::MutexLock lock(&mu_);
    // A failed trim leaves a zero tail, which the next Open reads as a
    // clean end.
    (void)CloseActiveSegment();
  }
  // Release the directory only once the segment is trimmed, so the next
  // owner never sees a file shrink under its mapping.
  ::close(dir_fd_);
}

std::string WriteAheadLog::SegmentName(std::uint64_t first_seq) const {
  return StrFormat("wal-%020llu.log",
                   static_cast<unsigned long long>(first_seq));
}

std::vector<std::string> WriteAheadLog::SegmentFiles() const {
  std::vector<std::string> files;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir_, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("wal-", 0) == 0 && name.size() > 8 &&
        name.substr(name.size() - 4) == ".log") {
      files.push_back(name);
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

Result<std::unique_ptr<WriteAheadLog>> WriteAheadLog::Open(
    std::string dir, WalOptions options) {
  if (dir.empty()) return Status::InvalidArgument("empty WAL directory");
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec)
    return Status::Unavailable("cannot create WAL dir " + dir + ": " +
                               ec.message());
  // One owner per directory: a second log would map the same segment and
  // trim it under the first one's window. The lock lives on the open
  // directory, so it is released when the owner closes it or dies.
  const int dir_fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (dir_fd < 0) {
    const int err = errno;
    return SystemError("cannot open WAL dir " + dir, err);
  }
  if (::flock(dir_fd, LOCK_EX | LOCK_NB) != 0) {
    const int err = errno;
    ::close(dir_fd);
    if (err == EWOULDBLOCK)
      return Status::FailedPrecondition("WAL dir " + dir +
                                        " is owned by another open log");
    return SystemError("cannot lock WAL dir " + dir, err);
  }
  auto wal = std::unique_ptr<WriteAheadLog>(
      new WriteAheadLog(std::move(dir), options, dir_fd));
  // The log is not yet published to any other thread; the lock is taken
  // purely to satisfy the static analysis on the guarded fields.
  gm::MutexLock lock(&wal->mu_);

  const std::vector<std::string> files = wal->SegmentFiles();
  std::uint64_t max_seq = 0;
  for (std::size_t i = 0; i < files.size(); ++i) {
    const std::string path = wal->dir_ + "/" + files[i];
    GM_ASSIGN_OR_RETURN(const SegmentScan scan, ScanSegment(path, nullptr));
    max_seq = std::max(max_seq, scan.last_seq);
    const bool last = i + 1 == files.size();
    if (last && scan.truncated_bytes > 0) {
      // Torn or corrupt tail in the segment we would append to: truncate
      // back to the last valid record so new records land on solid ground.
      wal->open_truncated_bytes_ += scan.truncated_bytes;
      fs::resize_file(path, scan.valid_bytes, ec);
      if (ec)
        return Status::Unavailable("cannot truncate " + path + ": " +
                                   ec.message());
    }
    if (last && scan.header_ok) {
      wal->active_segment_ = files[i];
      wal->active_size_ = scan.valid_bytes;
    }
  }
  wal->next_seq_ = max_seq + 1;
  if (!wal->active_segment_.empty())
    GM_RETURN_IF_ERROR(wal->OpenActiveSegment(/*create=*/false));
  return wal;
}

Status WriteAheadLog::OpenActiveSegment(bool create) {
  const std::string path = dir_ + "/" + active_segment_;
  fd_ = ::open(path.c_str(),
               O_RDWR | O_CLOEXEC | (create ? O_CREAT | O_TRUNC : 0), 0666);
  if (fd_ < 0) {
    const int err = errno;
    return SystemError("cannot open segment " + path, err);
  }
  if (!create) {
    struct stat st {};
    if (::fstat(fd_, &st) != 0) {
      const int err = errno;
      // Nothing was mapped or grown yet, so closing cannot trim anything.
      (void)CloseActiveSegment();
      return SystemError("cannot stat segment " + path, err);
    }
    file_bytes_ = static_cast<std::size_t>(st.st_size);
    return Status::Ok();
  }
  active_size_ = 0;
  const Result<std::uint8_t*> header = Reserve(kMagicBytes);
  if (!header.ok()) {
    // The growth error is the one to report; closing trims the new file
    // back to empty, which Open treats as a torn header.
    (void)CloseActiveSegment();
    return header.status();
  }
  std::memcpy(*header, kSegmentMagic, kMagicBytes);
  active_size_ = kMagicBytes;
  return Status::Ok();
}

Status WriteAheadLog::CloseActiveSegment() {
  if (fd_ < 0) return Status::Ok();
  UnmapWindow();
  Status status = Status::Ok();
  if (file_bytes_ > active_size_ &&
      ::ftruncate(fd_, static_cast<off_t>(active_size_)) != 0) {
    const int err = errno;
    status = SystemError("cannot trim segment " + dir_ + "/" +
                             active_segment_,
                         err);
  }
  ::close(fd_);
  fd_ = -1;
  file_bytes_ = 0;
  return status;
}

void WriteAheadLog::UnmapWindow() {
  if (window_ == nullptr) return;
  ::munmap(window_, window_bytes_);
  window_ = nullptr;
}

Result<std::uint8_t*> WriteAheadLog::Reserve(std::size_t bytes) {
  const std::size_t end = active_size_ + bytes;
  if (window_ == nullptr || end > window_offset_ + window_bytes_) {
    UnmapWindow();
    const std::size_t page = PageBytes();
    const std::size_t offset = active_size_ / page * page;
    const std::size_t length =
        RoundUp(std::max(kWindowBytes, end - offset), page);
    // Grow the file over the whole window at once, with allocated blocks
    // rather than a sparse hole: a full disk fails here instead of
    // raising SIGBUS on a copy, and the journaled size update (several
    // µs) is paid once per window, not once per page.
    if (offset + length > file_bytes_) {
      const int err =
          ::posix_fallocate(fd_, static_cast<off_t>(file_bytes_),
                            static_cast<off_t>(offset + length - file_bytes_));
      if (err != 0)
        return SystemError("cannot grow segment " + dir_ + "/" +
                               active_segment_,
                           err);
      file_bytes_ = offset + length;
    }
    void* mapped = ::mmap(nullptr, length, PROT_READ | PROT_WRITE,
                          MAP_SHARED, fd_, static_cast<off_t>(offset));
    if (mapped == MAP_FAILED) {
      const int err = errno;
      return SystemError("cannot map segment " + dir_ + "/" + active_segment_,
                         err);
    }
    // Fault the whole window in, writable, so that no append inside it
    // takes a page fault. Best effort: where the kernel lacks
    // MADV_POPULATE_WRITE, each page faults on its first copy instead.
    (void)::madvise(mapped, length, MADV_POPULATE_WRITE);
    window_ = static_cast<std::uint8_t*>(mapped);
    window_offset_ = offset;
    window_bytes_ = length;
  }
  return window_ + (active_size_ - window_offset_);
}

Status WriteAheadLog::Rotate() {
  gm::MutexLock lock(&mu_);
  return RotateLocked();
}

Status WriteAheadLog::RotateLocked() {
  GM_RETURN_IF_ERROR(CloseActiveSegment());
  active_segment_ = SegmentName(next_seq_);
  return OpenActiveSegment(/*create=*/true);
}

Status WriteAheadLog::Append(const Bytes& payload) {
  if (payload.size() > kMaxRecordBytes)
    return Status::InvalidArgument("record exceeds max WAL record size");
  gm::MutexLock lock(&mu_);
  if (fd_ < 0 || active_size_ >= options_.segment_max_bytes)
    GM_RETURN_IF_ERROR(RotateLocked());

  const std::size_t frame_bytes = kRecordHeaderBytes + payload.size();
  GM_ASSIGN_OR_RETURN(std::uint8_t* const frame, Reserve(frame_bytes));
  StoreU32(frame, static_cast<std::uint32_t>(payload.size()));
  StoreU32(frame + 4, RecordCrc(next_seq_, payload.data(), payload.size()));
  StoreU64(frame + 8, next_seq_);
  if (!payload.empty())
    std::memcpy(frame + kRecordHeaderBytes, payload.data(), payload.size());
  active_size_ += frame_bytes;
  ++next_seq_;
  return Status::Ok();
}

Result<RecoveryStats> WriteAheadLog::Replay(
    std::uint64_t after_seq,
    const std::function<Status(std::uint64_t seq, const Bytes& payload)>&
        apply) const {
  // Hold the mutex across the whole replay: a concurrent Append must not
  // grow or rotate a segment mid-scan.
  gm::MutexLock lock(&mu_);
  RecoveryStats stats;
  std::uint64_t last_applied = after_seq;
  for (const std::string& file : SegmentFiles()) {
    ++stats.segments_scanned;
    GM_ASSIGN_OR_RETURN(
        const SegmentScan scan,
        ScanSegment(dir_ + "/" + file,
                    [&](std::uint64_t seq, const Bytes& payload) -> Status {
                      if (seq <= last_applied) {
                        ++stats.skipped_duplicates;
                        return Status::Ok();
                      }
                      GM_RETURN_IF_ERROR(apply(seq, payload));
                      last_applied = seq;
                      ++stats.replayed_records;
                      return Status::Ok();
                    }));
    stats.truncated_bytes += scan.truncated_bytes;
  }
  return stats;
}

Status WriteAheadLog::DropSegmentsExceptActive() {
  gm::MutexLock lock(&mu_);
  std::error_code ec;
  for (const std::string& file : SegmentFiles()) {
    if (file == active_segment_) continue;
    fs::remove(dir_ + "/" + file, ec);
    if (ec)
      return Status::Unavailable("cannot remove segment " + file + ": " +
                                 ec.message());
  }
  return Status::Ok();
}

Result<Bytes> ReadWholeFile(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return Status::Unavailable("cannot open " + path);
  struct stat st {};
  Bytes data;
  bool ok = ::fstat(fd, &st) == 0;
  if (ok) data.resize(static_cast<std::size_t>(st.st_size));
  std::size_t done = 0;
  while (ok && done < data.size()) {
    const ssize_t n = ::read(fd, data.data() + done, data.size() - done);
    if (n == 0) break;  // the file shrank since fstat
    if (n < 0 && errno == EINTR) continue;
    ok = n > 0;
    if (ok) done += static_cast<std::size_t>(n);
  }
  ::close(fd);
  data.resize(done);
  if (!ok) return Status::Unavailable("read failed: " + path);
  return data;
}

}  // namespace gm::store
