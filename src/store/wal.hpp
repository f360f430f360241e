// Checksummed, append-only, segmented write-ahead log.
//
// On-disk layout (one directory per logical log):
//   wal-<first-seq, 20 digits>.log   segment files, ordered by name
//
// Each segment starts with an 8-byte magic ("GMWAL001") followed by
// length-prefixed records:
//   u32  payload length (little endian)
//   u32  CRC-32 over (seq bytes || payload)
//   u64  record sequence number (little endian, strictly increasing)
//   ...  payload bytes
//
// The sequence number makes replay idempotent: a duplicated segment
// (operator copied a file, backup restored twice) replays records whose
// seq was already applied and they are skipped, not double-applied.
//
// Durability: Append copies the record into a shared memory mapping of
// the active segment, so when it returns the record is in the kernel's
// page cache, exactly as after a write(2). It survives the process
// dying (crash, kill, _exit) but not power loss: nothing calls fsync.
// The file is grown ahead of the records with posix_fallocate, one
// mapped window (64 KB) at a time, so while a segment is open its end
// is zero bytes; a full disk fails Append instead of faulting the copy.
// Closing or rotating a segment trims it back to its last record, so a
// closed segment holds exactly the appended bytes.
//
// Ownership: one WriteAheadLog owns a directory at a time. Open takes an
// exclusive flock on the directory and fails with FailedPrecondition
// while another log (in this process or another) holds it; the lock is
// released by the destructor, after the trim, or by the owner's death.
//
// Torn-write policy: a scan stops at the first record whose header is
// incomplete, whose payload is cut short, or whose checksum mismatches,
// and truncates the segment back to the last valid record — recovery
// never crashes on a corrupt tail, it recovers the longest valid prefix.
// All-zero bytes from a record boundary to the end of the file are the
// preallocation of a writer that died (or, to the owner's own Replay, of
// the live segment), not a torn record: a real header is never all zero
// because seq >= 1. Such a tail is a clean end; it is not counted as
// truncated and Open leaves it in place for the new owner to append over
// and trim on close.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "common/concurrency.hpp"
#include "common/status.hpp"
#include "store/recoverable.hpp"

namespace gm::store {

struct WalOptions {
  /// Rotate to a fresh segment once the active one exceeds this size.
  std::size_t segment_max_bytes = 1 << 20;
};

/// Thread-safe: one mutex (rank kWal) serializes the append cursor, the
/// active-segment mapping and rotation/compaction, so concurrent stores
/// can share a log without torn frames.
class WriteAheadLog {
 public:
  /// Open (or create) the log in `dir`, scan existing segments, truncate
  /// any corrupt tail, and position the append cursor after the last
  /// valid record. The last segment stays open for appends. Fails with
  /// FailedPrecondition while another open log owns `dir`.
  static Result<std::unique_ptr<WriteAheadLog>> Open(std::string dir,
                                                     WalOptions options = {});
  ~WriteAheadLog();
  WriteAheadLog(const WriteAheadLog&) = delete;
  WriteAheadLog& operator=(const WriteAheadLog&) = delete;

  /// Append one record; assigns the next sequence number. On return the
  /// record is in the page cache (see the file comment).
  Status Append(const Bytes& payload) GM_EXCLUDES(mu_);

  /// Replay every record with seq > `after_seq` in append order.
  /// Duplicate sequence numbers are skipped; corrupt tails are counted in
  /// the returned stats. `apply` failures abort the replay.
  Result<RecoveryStats> Replay(
      std::uint64_t after_seq,
      const std::function<Status(std::uint64_t seq, const Bytes& payload)>&
          apply) const GM_EXCLUDES(mu_);

  /// Close the active segment and start a new one at the current seq.
  Status Rotate() GM_EXCLUDES(mu_);

  /// Delete every segment except the active one (compaction after a
  /// snapshot has made the older segments redundant).
  Status DropSegmentsExceptActive() GM_EXCLUDES(mu_);

  /// Sequence number the next Append will use (== 1 + last durable seq).
  std::uint64_t next_seq() const {
    gm::MutexLock lock(&mu_);
    return next_seq_;
  }
  const std::string& dir() const { return dir_; }
  /// Sorted segment file names (relative to dir). Reads only the (fixed)
  /// directory; safe without the mutex.
  std::vector<std::string> SegmentFiles() const;
  /// Bytes dropped from corrupt tails during Open.
  std::uint64_t open_truncated_bytes() const {
    gm::MutexLock lock(&mu_);
    return open_truncated_bytes_;
  }

 private:
  WriteAheadLog(std::string dir, WalOptions options, int dir_fd);

  Status RotateLocked() GM_REQUIRES(mu_);
  Status OpenActiveSegment(bool create) GM_REQUIRES(mu_);
  Status CloseActiveSegment() GM_REQUIRES(mu_);
  Result<std::uint8_t*> Reserve(std::size_t bytes) GM_REQUIRES(mu_);
  void UnmapWindow() GM_REQUIRES(mu_);
  std::string SegmentName(std::uint64_t first_seq) const;

  const std::string dir_;
  const WalOptions options_;
  // The directory, held open with the exclusive ownership flock.
  const int dir_fd_;
  mutable gm::Mutex mu_{"store.wal", gm::lockrank::kWal};
  std::uint64_t next_seq_ GM_GUARDED_BY(mu_) = 1;
  // File name of the active segment, empty until one is opened.
  std::string active_segment_ GM_GUARDED_BY(mu_);
  // Bytes in the active segment (end of its last record).
  std::size_t active_size_ GM_GUARDED_BY(mu_) = 0;
  // The active segment's descriptor (-1 when none is open) and its size
  // on disk, which runs up to a window ahead of active_size_.
  int fd_ GM_GUARDED_BY(mu_) = -1;
  std::size_t file_bytes_ GM_GUARDED_BY(mu_) = 0;
  // The mapped window over the active segment (null when unmapped):
  // page-aligned, starting at or before active_size_.
  std::uint8_t* window_ GM_GUARDED_BY(mu_) = nullptr;
  std::size_t window_offset_ GM_GUARDED_BY(mu_) = 0;
  std::size_t window_bytes_ GM_GUARDED_BY(mu_) = 0;
  std::uint64_t open_truncated_bytes_ GM_GUARDED_BY(mu_) = 0;
};

/// Read a whole file with one sized read.
Result<Bytes> ReadWholeFile(const std::string& path);

}  // namespace gm::store
