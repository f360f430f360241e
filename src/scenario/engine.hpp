// Scenario engine: epochs, SLO folding and the determinism digest.
//
// The engine owns the experiment loop, not the system under test. A
// ScenarioBackend adapts the system (GridScenarioBackend: the
// full-fidelity grid facade) behind two calls: run one epoch of
// simulated time and report a ledger hash. The engine then
//
//   - drives `epochs` epochs and hands each EpochTelemetry row to the
//     SloChecker,
//   - tracks flash-crowd recovery (how long after the spike ends until
//     queue depth returns to its pre-flash envelope),
//   - folds every deterministic observable into a 64-bit FNV-1a digest.
//
// The digest is the scenario-level determinism contract: two runs of the
// same config and seed must produce the same digest bit-for-bit, on any
// machine. Wall-clock observables (settlement p99) are deliberately
// excluded — they are reported but can never enter the digest.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "scenario/adversary.hpp"
#include "scenario/slo.hpp"
#include "scenario/traffic.hpp"
#include "sim/time.hpp"

namespace gm::scenario {

/// Deterministic per-(seed, shard, round) stream seed: shards draw from
/// independent streams that depend only on these three values, never on
/// thread scheduling. SplitMix64 over the mixed words.
std::uint64_t ShardStreamSeed(std::uint64_t seed, std::uint64_t shard,
                              std::uint64_t round);

struct ScenarioConfig {
  TrafficConfig traffic;
  AdversaryConfig adversary;
  SloConfig slo;
  std::uint64_t seed = 42;
  int epochs = 12;
  sim::SimDuration epoch_duration = 5 * sim::kMinute;
};

/// One concrete system-under-test. Implementations advance their own sim
/// clock by the epoch duration and fill `out` from telemetry snapshots
/// and the federation reconciler.
class ScenarioBackend {
 public:
  virtual ~ScenarioBackend() = default;
  virtual void RunEpoch(int epoch, EpochTelemetry& out) = 0;
  /// Order-independent hash of the complete ledger state (accounts and
  /// balances); folded into the determinism digest after every epoch.
  virtual std::string LedgerHash() = 0;
};

struct ScenarioResult {
  SloReport slo;
  std::vector<EpochTelemetry> epochs;
  /// FNV-1a 64-bit digest of every deterministic observable, hex.
  std::string digest;
  /// Sim-time from flash end until the first recovered epoch closes;
  /// -1 when no flash was configured or recovery never happened.
  sim::SimDuration flash_recovery = -1;
  std::uint64_t total_arrivals = 0;  // honest + hostile admitted
  double wall_seconds = 0.0;         // engine loop wall time (not digested)

  double ArrivalsPerWallSec() const {
    return wall_seconds > 0.0
               ? static_cast<double>(total_arrivals) / wall_seconds
               : 0.0;
  }
};

class ScenarioEngine {
 public:
  explicit ScenarioEngine(ScenarioConfig config);

  ScenarioResult Run(ScenarioBackend& backend) const;

 private:
  ScenarioConfig config_;
};

}  // namespace gm::scenario
