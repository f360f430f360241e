// ScenarioEngine over a scripted fake backend: digest stability and
// sensitivity, the wall-clock exclusion rule, flash-crowd recovery
// tracking, and the per-(seed, shard, round) stream seed.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "common/units.hpp"
#include "scenario/engine.hpp"
#include "sim/time.hpp"

namespace gm::scenario {
namespace {

// Replays pre-scripted telemetry rows; LedgerHash changes per epoch so
// the digest covers the ledger-evolution sequence too.
class FakeBackend : public ScenarioBackend {
 public:
  explicit FakeBackend(std::vector<EpochTelemetry> rows)
      : rows_(std::move(rows)) {}

  void RunEpoch(int epoch, EpochTelemetry& out) override {
    EpochTelemetry row = rows_[static_cast<std::size_t>(epoch)];
    row.epoch = epoch;
    out = row;
  }
  std::string LedgerHash() override {
    return "ledger-" + std::to_string(++hashes_);
  }

 private:
  std::vector<EpochTelemetry> rows_;
  int hashes_ = 0;
};

EpochTelemetry Row(sim::SimTime start, sim::SimTime end,
                   std::size_t queue_depth) {
  EpochTelemetry telem;
  telem.start = start;
  telem.end = end;
  telem.arrivals = 100;
  telem.completions = 95;
  telem.max_queue_depth = queue_depth;
  telem.replay_attempts = 3;
  telem.replays_rejected = 3;
  telem.total_balance = Money::Dollars(500);
  telem.expected_total = Money::Dollars(500);
  telem.reconciler_clean = true;
  return telem;
}

std::vector<EpochTelemetry> FiveMinuteRows(
    const std::vector<std::size_t>& depths) {
  std::vector<EpochTelemetry> rows;
  for (std::size_t e = 0; e < depths.size(); ++e) {
    const sim::SimTime start = static_cast<sim::SimTime>(e) * 5 * sim::kMinute;
    rows.push_back(Row(start, start + 5 * sim::kMinute, depths[e]));
  }
  return rows;
}

ScenarioConfig FiveEpochConfig() {
  ScenarioConfig config;
  config.epochs = 5;
  config.epoch_duration = 5 * sim::kMinute;
  config.slo.max_queue_depth = 100'000;
  return config;
}

TEST(ScenarioEngineTest, DigestIsStableAcrossRuns) {
  const auto rows = FiveMinuteRows({10, 12, 500, 100, 20});
  const ScenarioConfig config = FiveEpochConfig();
  FakeBackend a(rows);
  FakeBackend b(rows);
  const ScenarioResult ra = ScenarioEngine(config).Run(a);
  const ScenarioResult rb = ScenarioEngine(config).Run(b);
  EXPECT_EQ(ra.digest, rb.digest);
  EXPECT_EQ(ra.digest.size(), 16u);  // 64-bit hex
  EXPECT_EQ(ra.total_arrivals, 500u);
  EXPECT_TRUE(ra.slo.passed) << ra.slo.Summary();
}

TEST(ScenarioEngineTest, DigestSeesEveryDeterministicObservable) {
  const ScenarioConfig config = FiveEpochConfig();
  auto rows = FiveMinuteRows({10, 12, 500, 100, 20});
  FakeBackend base(rows);
  const std::string baseline = ScenarioEngine(config).Run(base).digest;

  rows[3].completions += 1;  // one count anywhere flips the digest
  FakeBackend changed(rows);
  EXPECT_NE(ScenarioEngine(config).Run(changed).digest, baseline);

  ScenarioConfig reseeded = config;
  reseeded.seed = 43;  // the seed itself is digested
  FakeBackend same(FiveMinuteRows({10, 12, 500, 100, 20}));
  EXPECT_NE(ScenarioEngine(reseeded).Run(same).digest, baseline);
}

TEST(ScenarioEngineTest, WallClockLatencyStaysOutOfTheDigest) {
  const ScenarioConfig config = FiveEpochConfig();
  auto rows = FiveMinuteRows({10, 12, 500, 100, 20});
  FakeBackend base(rows);
  const std::string baseline = ScenarioEngine(config).Run(base).digest;

  // settle_p99_ns varies run to run on real hardware; the digest must
  // not change with it or the same seed could not reproduce it.
  for (auto& row : rows) row.settle_p99_ns = 9.9e9;
  FakeBackend jittered(rows);
  EXPECT_EQ(ScenarioEngine(config).Run(jittered).digest, baseline);
}

TEST(ScenarioEngineTest, FlashRecoveryMeasuredFromFlashEnd) {
  ScenarioConfig config = FiveEpochConfig();
  config.traffic.flash_start = 10 * sim::kMinute;  // inside epoch 2
  config.traffic.flash_duration = 2 * sim::kMinute;

  // Pre-flash peak = 12 -> envelope 2 * 12 = 24. Epoch 3 (depth 100) is
  // still over; epoch 4 (depth 20) recovers. flash_end = 12 min, epoch 4
  // ends at 25 min -> recovery = 13 min.
  FakeBackend backend(FiveMinuteRows({10, 12, 500, 100, 20}));
  const ScenarioResult result = ScenarioEngine(config).Run(backend);
  EXPECT_EQ(result.flash_recovery, 13 * sim::kMinute);
}

TEST(ScenarioEngineTest, NoRecoveryReportedWhenQueuesNeverDrain) {
  ScenarioConfig config = FiveEpochConfig();
  config.traffic.flash_start = 10 * sim::kMinute;
  config.traffic.flash_duration = 2 * sim::kMinute;
  FakeBackend backend(FiveMinuteRows({10, 12, 500, 400, 300}));
  EXPECT_EQ(ScenarioEngine(config).Run(backend).flash_recovery, -1);

  // And with no flash configured at all, the field stays -1.
  ScenarioConfig quiet = FiveEpochConfig();
  FakeBackend calm(FiveMinuteRows({10, 12, 11, 10, 12}));
  EXPECT_EQ(ScenarioEngine(quiet).Run(calm).flash_recovery, -1);
}

TEST(ScenarioEngineTest, SloViolationsSurfaceInTheResult) {
  ScenarioConfig config = FiveEpochConfig();
  config.slo.max_queue_depth = 50;
  FakeBackend backend(FiveMinuteRows({10, 12, 500, 100, 20}));
  const ScenarioResult result = ScenarioEngine(config).Run(backend);
  EXPECT_FALSE(result.slo.passed);
  EXPECT_EQ(result.slo.violations.size(), 2u);  // epochs 2 and 3
  EXPECT_EQ(result.epochs.size(), 5u);
}

TEST(ShardStreamSeedTest, DistinctPerShardAndRoundStableAcrossCalls) {
  std::set<std::uint64_t> seen;
  for (std::uint64_t shard = 0; shard < 8; ++shard) {
    for (std::uint64_t round = 0; round < 64; ++round) {
      const std::uint64_t s = ShardStreamSeed(42, shard, round);
      EXPECT_EQ(s, ShardStreamSeed(42, shard, round));
      EXPECT_TRUE(seen.insert(s).second)
          << "collision at shard " << shard << " round " << round;
    }
  }
  EXPECT_NE(ShardStreamSeed(1, 0, 0), ShardStreamSeed(2, 0, 0));
}

}  // namespace
}  // namespace gm::scenario
