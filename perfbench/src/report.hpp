// Metric catalog and result assembly.
//
// Every run prints one metric set: the end-to-end catalog with tracing
// off, the per-layer catalog with tracing on. Both catalogs are fixed, so
// a workload that never calls a layer reports that layer's spans as 0.
// The last stdout line is the JSON result object.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "trace.hpp"

namespace perfbench {

struct MetricSpec {
  std::string name;
  std::string unit;
  std::string better;  // "lower" / "higher"; empty for per-layer
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Metric and unit grammar: 1-64 chars of [A-Za-z0-9_.-], starting with
/// a letter or digit.
bool ValidMetricName(std::string_view name);
/// 1-16 chars of [A-Za-z0-9_/%.-].
bool ValidUnit(std::string_view unit);

const std::vector<MetricSpec>& EndToEndCatalog();
const std::vector<MetricSpec>& PerLayerCatalog();

/// What one run of a workload measured.
struct RunStats {
  enum class StepKind : std::uint8_t {
    kSetup,    // building the system before the timed phase
    kSim,      // advancing simulated time (RunFor, ParallelRunner::Run)
    kOp,       // the workload's user call, e.g. one SubmitJob
    kOther,    // the rest of the timed phase
    kUntimed,  // checks and bookkeeping outside both phases
  };
  struct Step {
    StepKind kind = StepKind::kOther;
    double seconds = 0.0;
    double sim_hours = 0.0;  // simulated time a kSim step advanced
  };
  /// One iteration: set-up and timed phases over one variant's work, cut
  /// into steps that tile its wall time. Every iteration of a variant
  /// takes the same steps.
  struct Iteration {
    int variant = 0;
    std::vector<Step> steps;
    /// kProbeNominalS ÷ the mean ProbeSeconds() just before and after the
    /// iteration. Its step times are multiplied by it, so a stretch in
    /// which a shared machine runs slow does not read as a slower program.
    double speed = 1.0;
  };
  std::vector<Iteration> iterations;
  CallTally tally;
  std::vector<std::string> check_failures;
  /// Per-layer values computed outside spans (ratios, byte counts,
  /// registry counters), keyed by catalog name.
  std::map<std::string, double> layer;
  int threads = 1;  // most threads the workload ran at once
  double loop_wall_s = 0.0;  // wall and process CPU time of all iterations
  double loop_cpu_s = 0.0;

  void Check(bool ok, const std::string& what) {
    if (!ok) check_failures.push_back(what);
  }

  /// Open an iteration of `variant`, in its set-up phase.
  void BeginIteration(int variant);
  /// Close the step that ran since the previous one. Outside the timed
  /// phase every step but kUntimed counts as set-up.
  void EndStep(StepKind kind, double sim_hours = 0.0);
  /// Close the set-up and start the timed phase.
  void BeginTimed();
  /// Close the timed phase's last step; what follows is set-up again.
  void EndTimed();

 private:
  std::int64_t mark_ns_ = 0;
  bool timed_ = false;
};

/// The typical repeat of one variant. Each of its steps is the median
/// over the variant's iterations of that step's speed-scaled time: the
/// iterations repeat the same work, so a burst of load on a shared
/// machine that slowed one repeat of a step does not count.
struct Typical {
  int repeats = 0;
  double setup_s = 0.0;     // sum of the kSetup steps
  double run_s = 0.0;       // sum of the kSim, kOp and kOther steps
  double sim_hours = 0.0;   // simulated time of the kSim steps
  double sim_wall_s = 0.0;  // sum of the kSim steps
  std::vector<double> op_us;  // each step of the workload's op kind
};

/// Typical for each variant that ran, in variant order; `op_kind` names
/// the steps that are the workload's user op. Fails a check in `stats`
/// when two repeats of a variant took different steps.
std::vector<Typical> TypicalRepeats(RunStats& stats,
                                    RunStats::StepKind op_kind);

/// op_tail_us's percentile. Every workload has at least 1000 op samples
/// over its variants, so p99 leaves at least ten beyond it; the count is
/// fixed by the work, not by how many iterations fit into a run.
inline constexpr double kOpTailPercentile = 99.0;

/// End-to-end metrics from an untraced run, in catalog order: means over
/// variants of their typical set-up and timed-phase times, throughputs
/// over the sums of those times, and op_p50_us / op_tail_us over every
/// variant's op samples.
std::vector<Metric> EndToEndMetrics(const std::vector<Typical>& typical,
                                    double peak_rss_mb);

/// Mean over variants of the typical timed-phase seconds.
double TypicalRunSeconds(const std::vector<Typical>& typical);

/// Per-layer metrics from a traced run plus the untraced baseline used
/// for trace.overhead_pct, in catalog order.
std::vector<Metric> PerLayerMetrics(const Tracer& tracer,
                                    const RunStats& traced,
                                    double traced_run_s,
                                    double untraced_run_s);

/// The result line: {"correct", "attempted", "failed", "metrics"}.
std::string ResultJson(bool correct, std::uint64_t attempted,
                       std::uint64_t failed,
                       const std::vector<Metric>& metrics);

/// ru_maxrss of this process in MB.
double PeakRssMb();
/// User + system CPU seconds of this process so far.
double ProcessCpuSeconds();

}  // namespace perfbench
