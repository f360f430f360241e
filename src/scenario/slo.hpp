// Telemetry-driven SLO checks for stress scenarios.
//
// A scenario is not "passing" because it ran to completion — it passes
// when the system stayed LIVE under load. The checker evaluates four
// liveness/safety invariants from a per-epoch telemetry snapshot:
//
//   bounded queues     broker queue depth never exceeds a configured
//                      bound (open-loop overload otherwise grows queues
//                      without limit — the first observable of collapse).
//   no starvation      no honest job waits beyond `starvation_multiple`
//                      times its own deadline. Hostile flood jobs are
//                      excluded: the market is SUPPOSED to starve them.
//   settlement p99     federation settlement latency p99 stays under
//                      threshold (wall-clock health of the money path).
//   money conservation exact: sum of all balances equals the initially
//                      minted total, verified via the federation
//                      Reconciler. Not a statistic — a single missing
//                      micro-dollar is a failed epoch.
//
// The checker is pure: it folds EpochTelemetry rows into an SloReport and
// never touches the system under test, so the same rows can be checked
// offline from a recorded run.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/units.hpp"
#include "sim/time.hpp"

namespace gm::scenario {

/// One epoch's worth of observations, filled by a scenario backend from
/// telemetry snapshots and reconciler reports.
struct EpochTelemetry {
  int epoch = 0;
  sim::SimTime start = 0;
  sim::SimTime end = 0;

  std::uint64_t arrivals = 0;          // honest arrivals admitted
  std::uint64_t hostile_arrivals = 0;  // flood jobs admitted
  std::uint64_t completions = 0;       // honest completions
  std::uint64_t rejected = 0;          // admission-rejected orders
  std::size_t max_queue_depth = 0;     // peak broker/backlog depth seen
  /// Worst (wait / deadline) ratio over honest jobs still queued or
  /// completed this epoch; 0 when nothing waited.
  double worst_wait_ratio = 0.0;

  std::uint64_t snipe_bids = 0;
  std::uint64_t replay_attempts = 0;
  std::uint64_t replays_rejected = 0;

  /// Settlement latency p99 in nanoseconds (wall clock, from the
  /// "fed.settle_latency_ns" histogram); 0 when no settlements ran.
  double settle_p99_ns = 0.0;

  /// Conservation: total money across every account vs the minted total.
  Money total_balance;
  Money expected_total;
  bool reconciler_clean = false;  // federation Reconciler found no drift
};

struct SloConfig {
  std::size_t max_queue_depth = 50'000;
  /// An honest job is starved when wait > starvation_multiple * deadline.
  double starvation_multiple = 4.0;
  double settle_p99_ns_limit = 5.0e6;  // 5 ms
  /// Wall-clock latency is nondeterministic, so by default the p99 check
  /// is reported only and verdicts are machine-independent; set true to
  /// make it part of pass/fail.
  bool enforce_settle_p99 = false;
};

struct SloViolation {
  int epoch = 0;
  std::string invariant;  // "bounded-queue" | "starvation" | ...
  std::string detail;
};

struct SloReport {
  bool passed = true;
  std::vector<SloViolation> violations;
  int epochs_checked = 0;

  std::string Summary() const;
};

class SloChecker {
 public:
  explicit SloChecker(SloConfig config);

  const SloConfig& config() const { return config_; }

  /// Evaluate one epoch, appending any violations to the running report.
  void Check(const EpochTelemetry& epoch);

  const SloReport& report() const { return report_; }

 private:
  void Violate(const EpochTelemetry& epoch, std::string invariant,
               std::string detail);

  SloConfig config_;
  SloReport report_;
};

}  // namespace gm::scenario
