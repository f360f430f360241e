#include "scenario/engine.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>

#include "common/rng.hpp"
#include "common/status.hpp"

namespace gm::scenario {

std::uint64_t ShardStreamSeed(std::uint64_t seed, std::uint64_t shard,
                              std::uint64_t round) {
  // Sequential SplitMix64 absorption: each word is folded into the MIXED
  // output of the previous step (not the raw counter), so it fully
  // avalanches before the next word enters. Folding into the un-mixed
  // state would let (shard, round) and (shard+1, round-1) alias through
  // the additive constant — adjacent shards sharing streams.
  std::uint64_t state = seed;
  state = SplitMix64(state) ^ (shard + 0x9e3779b97f4a7c15ULL);
  state = SplitMix64(state) ^ (round + 0xbf58476d1ce4e5b9ULL);
  return SplitMix64(state);
}

namespace {

// FNV-1a 64-bit. Local on purpose: the scenario layer must not pull in
// crypto/ for a non-adversarial checksum, and FNV is enough to make any
// run-to-run divergence visible.
class Fnv {
 public:
  void Bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      hash_ ^= p[i];
      hash_ *= 0x100000001b3ULL;
    }
  }
  void U64(std::uint64_t v) { Bytes(&v, sizeof(v)); }
  void I64(std::int64_t v) { Bytes(&v, sizeof(v)); }
  void F64(double v) {
    // Bit pattern, not value: the digest asserts the computation itself
    // is identical, not merely close.
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    U64(bits);
  }
  void Str(const std::string& s) {
    U64(s.size());
    Bytes(s.data(), s.size());
  }
  std::uint64_t hash() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

std::string HexDigest(std::uint64_t h) {
  static const char* kHex = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = kHex[h & 0xf];
    h >>= 4;
  }
  return out;
}

}  // namespace

ScenarioEngine::ScenarioEngine(ScenarioConfig config) : config_(config) {
  GM_ASSERT(config_.epochs > 0, "scenario needs at least one epoch");
  GM_ASSERT(config_.epoch_duration > 0, "epoch duration must be positive");
}

ScenarioResult ScenarioEngine::Run(ScenarioBackend& backend) const {
  const auto wall_start = std::chrono::steady_clock::now();
  const TrafficModel traffic(config_.traffic);
  const sim::SimTime flash_end = traffic.FlashEnd();

  ScenarioResult result;
  SloChecker checker(config_.slo);
  Fnv digest;
  digest.U64(config_.seed);

  std::size_t pre_flash_peak = 0;
  for (int epoch = 0; epoch < config_.epochs; ++epoch) {
    EpochTelemetry telem;
    telem.epoch = epoch;
    backend.RunEpoch(epoch, telem);
    checker.Check(telem);

    // Recovery envelope: worst queue peak over epochs that closed before
    // the flash started is the "normal" load level.
    if (flash_end >= 0 && telem.end <= config_.traffic.flash_start)
      pre_flash_peak = std::max(pre_flash_peak, telem.max_queue_depth);
    if (flash_end >= 0 && result.flash_recovery < 0 &&
        telem.start >= flash_end) {
      const auto envelope = static_cast<std::size_t>(
          config_.recovery_slack *
          static_cast<double>(std::max<std::size_t>(1, pre_flash_peak)));
      if (telem.max_queue_depth <= envelope)
        result.flash_recovery = telem.end - flash_end;
    }

    result.total_arrivals += telem.arrivals + telem.hostile_arrivals;

    // Deterministic observables only — settle_p99_ns is wall clock and
    // must stay out.
    digest.I64(telem.start);
    digest.I64(telem.end);
    digest.U64(telem.arrivals);
    digest.U64(telem.hostile_arrivals);
    digest.U64(telem.completions);
    digest.U64(telem.rejected);
    digest.U64(telem.max_queue_depth);
    digest.F64(telem.worst_wait_ratio);
    digest.U64(telem.snipe_bids);
    digest.U64(telem.replay_attempts);
    digest.U64(telem.replays_rejected);
    digest.I64(telem.total_balance.micros());
    digest.I64(telem.expected_total.micros());
    digest.U64(telem.reconciler_clean ? 1 : 0);
    digest.Str(backend.LedgerHash());

    result.epochs.push_back(telem);
  }

  result.slo = checker.report();
  result.digest = HexDigest(digest.hash());
  result.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();
  return result;
}

}  // namespace gm::scenario
