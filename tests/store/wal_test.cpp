#include "store/wal.hpp"

#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "common/proc_io.hpp"
#include "store/crc32.hpp"

namespace gm::store {
namespace {

namespace fs = std::filesystem;

fs::path FreshDir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / ("gm_wal_" + name);
  fs::remove_all(dir);
  return dir;
}

Bytes Payload(const std::string& text) {
  return Bytes(text.begin(), text.end());
}

std::vector<std::string> ReplayAll(WriteAheadLog& wal,
                                   RecoveryStats* stats_out = nullptr) {
  std::vector<std::string> seen;
  auto stats = wal.Replay(0, [&](std::uint64_t, const Bytes& payload) {
    seen.emplace_back(payload.begin(), payload.end());
    return Status::Ok();
  });
  EXPECT_TRUE(stats.ok()) << stats.status().message();
  if (stats_out != nullptr && stats.ok()) *stats_out = *stats;
  return seen;
}

void AppendLe(Bytes& out, std::uint64_t v, int bytes) {
  for (int i = 0; i < bytes; ++i) out.push_back((v >> (8 * i)) & 0xFFu);
}

TEST(Crc32Test, MatchesKnownVector) {
  const std::string check = "123456789";
  EXPECT_EQ(Crc32(reinterpret_cast<const std::uint8_t*>(check.data()),
                  check.size()),
            0xCBF43926u);
}

TEST(Crc32Test, IncrementalMatchesOneShot) {
  const Bytes data = Payload("hello, write-ahead world");
  const std::uint32_t one_shot = Crc32(data);
  const std::uint32_t first = Crc32(data.data(), 5);
  const std::uint32_t chained = Crc32(data.data() + 5, data.size() - 5, first);
  EXPECT_EQ(chained, one_shot);
}

TEST(WalTest, EmptyDirectoryRecoversCleanly) {
  const fs::path dir = FreshDir("empty");
  auto wal = WriteAheadLog::Open(dir.string());
  ASSERT_TRUE(wal.ok()) << wal.status().message();
  RecoveryStats stats;
  EXPECT_TRUE(ReplayAll(**wal, &stats).empty());
  EXPECT_EQ(stats.replayed_records, 0u);
  EXPECT_EQ(stats.truncated_bytes, 0u);
  EXPECT_EQ((*wal)->next_seq(), 1u);
  // The empty log is immediately usable.
  EXPECT_TRUE((*wal)->Append(Payload("first")).ok());
}

TEST(WalTest, AppendReplayRoundTrip) {
  const fs::path dir = FreshDir("roundtrip");
  auto wal = WriteAheadLog::Open(dir.string());
  ASSERT_TRUE(wal.ok());
  ASSERT_TRUE((*wal)->Append(Payload("alpha")).ok());
  ASSERT_TRUE((*wal)->Append(Payload("beta")).ok());
  ASSERT_TRUE((*wal)->Append(Payload("gamma")).ok());

  std::vector<std::uint64_t> seqs;
  std::vector<std::string> seen;
  auto stats = (*wal)->Replay(0, [&](std::uint64_t seq, const Bytes& payload) {
    seqs.push_back(seq);
    seen.emplace_back(payload.begin(), payload.end());
    return Status::Ok();
  });
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(seen, (std::vector<std::string>{"alpha", "beta", "gamma"}));
  EXPECT_EQ(seqs, (std::vector<std::uint64_t>{1, 2, 3}));
  EXPECT_EQ(stats->replayed_records, 3u);
}

TEST(WalTest, SequenceContinuesAcrossReopen) {
  const fs::path dir = FreshDir("reopen");
  {
    auto wal = WriteAheadLog::Open(dir.string());
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE((*wal)->Append(Payload("one")).ok());
    ASSERT_TRUE((*wal)->Append(Payload("two")).ok());
  }
  auto wal = WriteAheadLog::Open(dir.string());
  ASSERT_TRUE(wal.ok());
  EXPECT_EQ((*wal)->next_seq(), 3u);
  ASSERT_TRUE((*wal)->Append(Payload("three")).ok());
  EXPECT_EQ(ReplayAll(**wal),
            (std::vector<std::string>{"one", "two", "three"}));
}

TEST(WalTest, ReplayAfterSeqSkipsPrefix) {
  const fs::path dir = FreshDir("after");
  auto wal = WriteAheadLog::Open(dir.string());
  ASSERT_TRUE(wal.ok());
  for (const char* p : {"a", "b", "c", "d"})
    ASSERT_TRUE((*wal)->Append(Payload(p)).ok());
  std::vector<std::string> seen;
  auto stats = (*wal)->Replay(2, [&](std::uint64_t, const Bytes& payload) {
    seen.emplace_back(payload.begin(), payload.end());
    return Status::Ok();
  });
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(seen, (std::vector<std::string>{"c", "d"}));
  EXPECT_EQ(stats->skipped_duplicates, 2u);
}

TEST(WalTest, TruncatedFinalRecordIsDroppedNotFatal) {
  const fs::path dir = FreshDir("torn");
  std::string segment;
  {
    auto wal = WriteAheadLog::Open(dir.string());
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE((*wal)->Append(Payload("intact-record-1")).ok());
    ASSERT_TRUE((*wal)->Append(Payload("intact-record-2")).ok());
    ASSERT_TRUE((*wal)->Append(Payload("torn-record-3")).ok());
    ASSERT_EQ((*wal)->SegmentFiles().size(), 1u);
    segment = (*wal)->SegmentFiles()[0];
  }
  // Simulate a crash mid-write: cut 4 bytes out of the final payload.
  const fs::path file = dir / segment;
  const auto full = fs::file_size(file);
  fs::resize_file(file, full - 4);

  auto wal = WriteAheadLog::Open(dir.string());
  ASSERT_TRUE(wal.ok()) << wal.status().message();
  EXPECT_GT((*wal)->open_truncated_bytes(), 0u);
  EXPECT_EQ(ReplayAll(**wal),
            (std::vector<std::string>{"intact-record-1", "intact-record-2"}));
  // The torn seq was never durable, so it is reused.
  EXPECT_EQ((*wal)->next_seq(), 3u);
  ASSERT_TRUE((*wal)->Append(Payload("rewritten-3")).ok());
  EXPECT_EQ(ReplayAll(**wal),
            (std::vector<std::string>{"intact-record-1", "intact-record-2",
                                      "rewritten-3"}));
}

TEST(WalTest, FlippedBitFailsChecksumAndTruncates) {
  const fs::path dir = FreshDir("bitflip");
  std::string segment;
  {
    auto wal = WriteAheadLog::Open(dir.string());
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE((*wal)->Append(Payload("good")).ok());
    ASSERT_TRUE((*wal)->Append(Payload("corrupted-later")).ok());
    segment = (*wal)->SegmentFiles()[0];
  }
  // Flip one bit in the final record's payload (last byte of the file).
  const fs::path file = dir / segment;
  const auto size = fs::file_size(file);
  {
    std::fstream f(file, std::ios::binary | std::ios::in | std::ios::out);
    f.seekg(static_cast<std::streamoff>(size - 1));
    char byte = 0;
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x40);
    f.seekp(static_cast<std::streamoff>(size - 1));
    f.write(&byte, 1);
  }

  auto wal = WriteAheadLog::Open(dir.string());
  ASSERT_TRUE(wal.ok()) << wal.status().message();
  EXPECT_GT((*wal)->open_truncated_bytes(), 0u);
  EXPECT_EQ(ReplayAll(**wal), (std::vector<std::string>{"good"}));
}

TEST(WalTest, GarbageLengthFieldIsTreatedAsTornTail) {
  const fs::path dir = FreshDir("garbage");
  std::string segment;
  {
    auto wal = WriteAheadLog::Open(dir.string());
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE((*wal)->Append(Payload("valid")).ok());
    segment = (*wal)->SegmentFiles()[0];
  }
  {
    // Append a bogus record header claiming a huge payload.
    std::ofstream f(dir / segment, std::ios::binary | std::ios::app);
    const std::uint32_t huge = 0xFFFFFFFFu;
    f.write(reinterpret_cast<const char*>(&huge), sizeof(huge));
    f.write("junkjunkjunk", 12);
  }
  auto wal = WriteAheadLog::Open(dir.string());
  ASSERT_TRUE(wal.ok());
  EXPECT_GT((*wal)->open_truncated_bytes(), 0u);
  EXPECT_EQ(ReplayAll(**wal), (std::vector<std::string>{"valid"}));
}

TEST(WalTest, RotationSplitsSegmentsAndReplaysAll) {
  const fs::path dir = FreshDir("rotate");
  WalOptions options;
  options.segment_max_bytes = 64;  // force frequent rotation
  auto wal = WriteAheadLog::Open(dir.string(), options);
  ASSERT_TRUE(wal.ok());
  std::vector<std::string> expected;
  for (int i = 0; i < 20; ++i) {
    expected.push_back("record-" + std::to_string(i));
    ASSERT_TRUE((*wal)->Append(Payload(expected.back())).ok());
  }
  EXPECT_GT((*wal)->SegmentFiles().size(), 1u);
  EXPECT_EQ(ReplayAll(**wal), expected);

  // Reopen still sees every segment. The directory has one owner at a
  // time, so the first log is closed before the second opens.
  wal->reset();
  wal = WriteAheadLog::Open(dir.string(), options);
  ASSERT_TRUE(wal.ok());
  EXPECT_EQ(ReplayAll(**wal), expected);
}

TEST(WalTest, DuplicateSegmentRecordsAreSkippedOnce) {
  const fs::path dir = FreshDir("dup");
  std::vector<std::string> segments;
  {
    auto wal = WriteAheadLog::Open(dir.string());
    ASSERT_TRUE(wal.ok());
    for (const char* p : {"s1-a", "s1-b", "s1-c"})
      ASSERT_TRUE((*wal)->Append(Payload(p)).ok());
    ASSERT_TRUE((*wal)->Rotate().ok());
    for (const char* p : {"s2-d", "s2-e"})
      ASSERT_TRUE((*wal)->Append(Payload(p)).ok());
    segments = (*wal)->SegmentFiles();
    ASSERT_EQ(segments.size(), 2u);
  }
  // An operator restores a backup of the first segment under a name that
  // sorts after everything else: its records are duplicates.
  fs::copy_file(dir / segments[0], dir / "wal-00000000000000000099.log");

  auto wal = WriteAheadLog::Open(dir.string());
  ASSERT_TRUE(wal.ok());
  RecoveryStats stats;
  EXPECT_EQ(ReplayAll(**wal, &stats),
            (std::vector<std::string>{"s1-a", "s1-b", "s1-c", "s2-d", "s2-e"}));
  EXPECT_EQ(stats.skipped_duplicates, 3u);
  EXPECT_EQ(stats.replayed_records, 5u);
}

TEST(WalTest, DropSegmentsExceptActiveCompacts) {
  const fs::path dir = FreshDir("drop");
  WalOptions options;
  options.segment_max_bytes = 48;
  auto wal = WriteAheadLog::Open(dir.string(), options);
  ASSERT_TRUE(wal.ok());
  for (int i = 0; i < 12; ++i)
    ASSERT_TRUE((*wal)->Append(Payload("payload-" + std::to_string(i))).ok());
  ASSERT_GT((*wal)->SegmentFiles().size(), 1u);
  ASSERT_TRUE((*wal)->Rotate().ok());
  ASSERT_TRUE((*wal)->DropSegmentsExceptActive().ok());
  EXPECT_EQ((*wal)->SegmentFiles().size(), 1u);
  // Old records are gone; the sequence counter is preserved.
  EXPECT_TRUE(ReplayAll(**wal).empty());
  EXPECT_EQ((*wal)->next_seq(), 13u);
}

TEST(WalTest, ApplyFailureAbortsReplay) {
  const fs::path dir = FreshDir("abort");
  auto wal = WriteAheadLog::Open(dir.string());
  ASSERT_TRUE(wal.ok());
  for (const char* p : {"ok", "bad", "never-reached"})
    ASSERT_TRUE((*wal)->Append(Payload(p)).ok());
  int applied = 0;
  auto stats = (*wal)->Replay(0, [&](std::uint64_t seq, const Bytes&) {
    if (seq == 2) return Status::Internal("poisoned record");
    ++applied;
    return Status::Ok();
  });
  EXPECT_FALSE(stats.ok());
  EXPECT_EQ(applied, 1);
}

// A closed segment holds exactly the appended frames: the magic, then
// per record u32 length, u32 CRC(seq || payload), u64 seq and the payload.
// No preallocated byte survives the close.
TEST(WalTest, ClosedSegmentHoldsExactlyTheAppendedBytes) {
  const fs::path dir = FreshDir("exact");
  const std::vector<std::string> payloads = {"alpha", "", "gamma-gamma"};
  std::string segment;
  {
    auto wal = WriteAheadLog::Open(dir.string());
    ASSERT_TRUE(wal.ok());
    for (const std::string& p : payloads)
      ASSERT_TRUE((*wal)->Append(Payload(p)).ok());
    segment = (*wal)->SegmentFiles()[0];
  }
  Bytes expected = Payload("GMWAL001");
  std::uint64_t seq = 1;
  for (const std::string& p : payloads) {
    Bytes seq_bytes;
    AppendLe(seq_bytes, seq, 8);
    const Bytes body = Payload(p);
    AppendLe(expected, body.size(), 4);
    AppendLe(expected, Crc32(body, Crc32(seq_bytes)), 4);
    AppendLe(expected, seq, 8);
    expected.insert(expected.end(), body.begin(), body.end());
    ++seq;
  }
  std::ifstream in(dir / segment, std::ios::binary);
  const Bytes on_disk((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  EXPECT_EQ(on_disk, expected);
}

// One log owns a directory at a time. While a segment is open its end is
// zero preallocation, which the owner's own replay reads as a clean end. A
// second Open of the directory fails without touching the file; once the
// owner closes (and trims), the directory can be opened again.
TEST(WalTest, SecondOpenOfAnOwnedDirectoryFails) {
  const fs::path dir = FreshDir("owned");
  auto writer = WriteAheadLog::Open(dir.string());
  ASSERT_TRUE(writer.ok());
  for (const char* p : {"one", "two", "three"})
    ASSERT_TRUE((*writer)->Append(Payload(p)).ok());
  const fs::path file = dir / (*writer)->SegmentFiles()[0];
  const std::uintmax_t written = 8 + 3 * 16 + 3 + 3 + 5;
  const std::uintmax_t preallocated = fs::file_size(file);
  EXPECT_GT(preallocated, written);

  RecoveryStats stats;
  EXPECT_EQ(ReplayAll(**writer, &stats),
            (std::vector<std::string>{"one", "two", "three"}));
  EXPECT_EQ(stats.truncated_bytes, 0u);

  const auto second = WriteAheadLog::Open(dir.string());
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(fs::file_size(file), preallocated);
  ASSERT_TRUE((*writer)->Append(Payload("four")).ok());

  writer->reset();
  EXPECT_EQ(fs::file_size(file), written + 16 + 4);
  auto reopened = WriteAheadLog::Open(dir.string());
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ((*reopened)->next_seq(), 5u);
  EXPECT_EQ(ReplayAll(**reopened),
            (std::vector<std::string>{"one", "two", "three", "four"}));
}

// Garbage after the last record is a torn tail even when zeros follow it:
// every byte from the garbage to the end counts as truncated.
TEST(WalTest, ZeroTailAfterGarbageIsStillTruncated) {
  const fs::path dir = FreshDir("garbage_then_zeros");
  std::string segment;
  {
    auto wal = WriteAheadLog::Open(dir.string());
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE((*wal)->Append(Payload("valid")).ok());
    segment = (*wal)->SegmentFiles()[0];
  }
  const fs::path file = dir / segment;
  const std::uintmax_t valid = fs::file_size(file);
  {
    std::ofstream f(file, std::ios::binary | std::ios::app);
    f.write("junk", 4);
    const std::string zeros(4096, '\0');
    f.write(zeros.data(), static_cast<std::streamsize>(zeros.size()));
  }
  auto wal = WriteAheadLog::Open(dir.string());
  ASSERT_TRUE(wal.ok());
  EXPECT_EQ((*wal)->open_truncated_bytes(), 4u + 4096u);
  EXPECT_EQ(fs::file_size(file), valid);
  EXPECT_EQ(ReplayAll(**wal), (std::vector<std::string>{"valid"}));
}

// A process that dies with the log open runs no destructor, so its
// segment keeps the zero preallocation. Every record it appended is in
// the file all the same; the next owner replays them all, counts nothing
// as truncated, continues the sequence and trims the file when it closes.
TEST(WalTest, ProcessDeathWithTheLogOpenLosesNoRecord) {
  const fs::path dir = FreshDir("process_death");
  constexpr int kRecords = 500;
  const auto payload_of = [](int i) {
    return "record-" + std::to_string(i) + std::string(i % 23, 'x');
  };
  std::uintmax_t expected_bytes = 8;
  for (int i = 0; i < kRecords; ++i)
    expected_bytes += 16 + payload_of(i).size();

  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    auto wal = WriteAheadLog::Open(dir.string());
    if (!wal.ok()) ::_exit(2);
    for (int i = 0; i < kRecords; ++i)
      if (!(*wal)->Append(Payload(payload_of(i))).ok()) ::_exit(3);
    ::_exit(0);  // no destructor runs: the segment is left untrimmed
  }
  int status = 0;
  ASSERT_EQ(::waitpid(child, &status, 0), child);
  ASSERT_TRUE(WIFEXITED(status));
  ASSERT_EQ(WEXITSTATUS(status), 0);

  std::string segment;
  {
    auto wal = WriteAheadLog::Open(dir.string());
    ASSERT_TRUE(wal.ok()) << wal.status().message();
    ASSERT_EQ((*wal)->SegmentFiles().size(), 1u);
    segment = (*wal)->SegmentFiles()[0];
    EXPECT_GT(fs::file_size(dir / segment), expected_bytes);
    EXPECT_EQ((*wal)->open_truncated_bytes(), 0u);
    EXPECT_EQ((*wal)->next_seq(), static_cast<std::uint64_t>(kRecords) + 1);
    RecoveryStats stats;
    const std::vector<std::string> seen = ReplayAll(**wal, &stats);
    ASSERT_EQ(seen.size(), static_cast<std::size_t>(kRecords));
    for (int i = 0; i < kRecords; ++i) EXPECT_EQ(seen[i], payload_of(i));
    EXPECT_EQ(stats.truncated_bytes, 0u);
  }
  EXPECT_EQ(fs::file_size(dir / segment), expected_bytes);
}

// Appends reach the page cache through the mapping, not through one
// write(2) each: 10,000 of them make at most 10 write-family syscalls.
TEST(WalTest, AppendsMakeNoWriteSyscallPerRecord) {
  if (!WriteSyscalls().has_value())
    GTEST_SKIP() << "/proc/self/io is not readable";
  const fs::path dir = FreshDir("syscalls");
  auto wal = WriteAheadLog::Open(dir.string());
  ASSERT_TRUE(wal.ok());
  const Bytes payload(64, 0xAB);
  const std::uint64_t before = *WriteSyscalls();
  for (int i = 0; i < 10'000; ++i) ASSERT_TRUE((*wal)->Append(payload).ok());
  const std::uint64_t after = *WriteSyscalls();
  EXPECT_LE(after - before, 10u);
}

}  // namespace
}  // namespace gm::store
