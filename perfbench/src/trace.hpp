// Measurement primitives of the benchmark: wall-clock samples with the
// tail-percentile rule, spans recorded around each public call the
// workload drivers make, and the attempted/failed tally.
//
// Spans are recorded from outside the program, around calls into its
// public API, so a span's self time is its duration minus the part of it
// that child spans (calls the driver made while the parent was open)
// cover. Spans are kept in memory and written out when the run ends.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Wall seconds of a fixed mix of work owned by the benchmark (64-bit
/// divides, hash-table updates, a sort; about 3 ms), the fastest of three
/// runs: how fast the machine runs right now. The program's code does
/// not affect it.
double ProbeSeconds();

/// ProbeSeconds() on the 4-core 2 GHz Xeon machine the benchmark was
/// tuned on, in a quiet stretch. Wall times are reported scaled to it.
inline constexpr double kProbeNominalS = 0.0028;

/// A tail percentile chosen by the benchmark's rule.
struct Tail {
  double percentile = 0.0;  // e.g. 99.0
  double value = 0.0;
  std::size_t samples = 0;  // samples the percentile was taken over
  std::size_t beyond = 0;   // samples strictly above the reported rank
  bool ok = false;          // false when no ladder rung qualifies
};

/// Percentile ladder for tails: the highest rung with at least
/// `min_beyond` samples beyond it is reported.
inline constexpr double kTailLadder[] = {50.0, 90.0, 99.0, 99.9};

/// Nearest-rank percentile of sorted `values` (p in (0, 100]).
double PercentileSorted(const std::vector<double>& sorted, double p);

/// Samples strictly above the nearest rank of percentile p among n.
std::size_t SamplesBeyond(std::size_t n, double p);

/// The highest rung of kTailLadder whose nearest rank leaves at least
/// `min_beyond` samples strictly above it.
Tail TailPercentile(std::vector<double> values, std::size_t min_beyond = 10);

/// Median of `values` (mean of the two middle values for even counts);
/// 0 for an empty vector.
double Median(std::vector<double> values);

/// One recorded span.
struct SpanRecord {
  std::uint32_t name = 0;    // index into the tracer's name table
  std::int32_t parent = -1;  // index into Tracer::spans(); -1 = root
  std::uint32_t run = 0;     // the driver iteration that opened it
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  bool failed = false;
};

/// Per-name aggregate of a tracer's spans.
struct SpanSummary {
  std::uint64_t count = 0;
  std::uint64_t failed = 0;
  double busy_ns = 0.0;           // sum of durations
  double self_ns = 0.0;           // busy minus child coverage
  std::vector<double> durations_us;
};

/// In-memory span recorder for one single-threaded driver. Disabled
/// tracers record nothing; Span still measures wall time through them.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  void set_run(std::uint32_t run) { run_ = run; }

  /// Open a span as a child of the innermost open span. Returns its
  /// index, or -1 when disabled.
  int Begin(std::string_view name, std::int64_t start_ns);
  void End(int index, std::int64_t end_ns, bool failed);

  const std::vector<SpanRecord>& spans() const { return spans_; }

  /// Aggregate by span name, with self time from child coverage.
  std::map<std::string, SpanSummary> Summarize() const;

  /// One JSON object per span: name, run, start/end (ns since the first
  /// span), parent index and failed flag. False on I/O error.
  bool WriteJsonl(const std::string& path) const;

 private:
  bool enabled_;
  std::uint32_t run_ = 0;
  std::vector<SpanRecord> spans_;
  std::vector<std::string> names_;
  std::map<std::string, std::uint32_t, std::less<>> name_index_;
  std::vector<int> open_;
};

/// Self time of each span in `spans`: its duration minus the length of
/// the union of its direct children's intervals clipped to it.
std::vector<double> SelfTimesNs(const std::vector<SpanRecord>& spans);

/// RAII span: always measures wall time; records into the tracer only
/// when it is enabled.
class Span {
 public:
  Span(Tracer& tracer, std::string_view name)
      : tracer_(tracer), start_ns_(NowNs()),
        index_(tracer.Begin(name, start_ns_)) {}
  ~Span() { Stop(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  void Fail() { failed_ = true; }
  /// Close the span (idempotent); returns its duration in microseconds.
  double Stop();

 private:
  Tracer& tracer_;
  std::int64_t start_ns_;
  int index_;
  bool failed_ = false;
  bool stopped_ = false;
  double elapsed_us_ = 0.0;
};

/// What the workload expected of a call.
enum class Expect {
  kSuccess,  // an error is a failure
  kRefusal,  // the workload provoked a refusal; success fails the check
  kEither,   // a provoked refusal is allowed (e.g. a priced-out flood)
};

/// Attempted/failed accounting. Every timed call is attempted; only
/// errors the workload did not provoke are failures. A call that should
/// have been refused but succeeded is counted in `accepted_refusals`,
/// which fails the output check.
struct CallTally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t refused = 0;
  std::uint64_t accepted_refusals = 0;

  /// Record one call; returns `ok` for chaining.
  bool Record(bool ok, Expect expect = Expect::kSuccess);
  double FailedRatio() const {
    return attempted == 0 ? 0.0
                          : static_cast<double>(failed) /
                                static_cast<double>(attempted);
  }
};

}  // namespace perfbench
