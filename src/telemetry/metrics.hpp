// Metrics registry: named counters, gauges, summaries and log-bucketed
// latency histograms.
//
// Designed for the hot paths of a multi-day simulated run (millions of
// auction ticks and ledger transfers): recording into a counter is one
// relaxed atomic add, recording into a histogram is a bit_width plus two
// adds under the histogram's own mutex. Metric objects are owned by the
// registry in node-based maps, so pointers returned by Get* stay valid
// for the registry's lifetime — components look a metric up once and keep
// the pointer for their hot loop.
//
// Thread safety: Counter and Gauge are relaxed atomics — runner threads
// record without taking any lock, and relaxed ordering is sufficient
// because metric values never gate control flow. Summary and
// LatencyHistogram keep multi-word state, so each instance carries its
// own gm::Mutex (rank kMetric); the registry maps are guarded by the
// registry mutex (rank kMetricsRegistry, acquired before any per-metric
// mutex during Snapshot()).
//
// Quantiles (p50/p90/p99) are extracted from power-of-two buckets with
// linear interpolation inside the winning bucket, clamped to the observed
// min/max so a single-sample histogram reports that sample exactly.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <string>

#include "common/concurrency.hpp"

namespace gm::telemetry {

/// Monotonic event count. Lock-free.
class Counter {
 public:
  void Inc(std::uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  /// Overwrite: used when mirroring a component-kept total into the
  /// registry at snapshot time (pull-based collection).
  void Set(std::uint64_t v) { value_.store(v, std::memory_order_relaxed); }
  std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-written instantaneous value (a price, a queue depth). Lock-free.
class Gauge {
 public:
  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Running moments of a double-valued observation stream (prediction
/// errors, per-tick prices) where bucketing would lose sign/scale.
class Summary {
 public:
  void Observe(double v);
  std::uint64_t count() const {
    gm::MutexLock lock(&mu_);
    return count_;
  }
  double sum() const {
    gm::MutexLock lock(&mu_);
    return sum_;
  }
  double min() const {
    gm::MutexLock lock(&mu_);
    return min_;
  }
  double max() const {
    gm::MutexLock lock(&mu_);
    return max_;
  }
  double mean() const {
    gm::MutexLock lock(&mu_);
    return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
  }

 private:
  mutable gm::Mutex mu_{"telemetry.summary", gm::lockrank::kMetric};
  std::uint64_t count_ GM_GUARDED_BY(mu_) = 0;
  double sum_ GM_GUARDED_BY(mu_) = 0.0;
  double min_ GM_GUARDED_BY(mu_) = 0.0;
  double max_ GM_GUARDED_BY(mu_) = 0.0;
};

/// Log2-bucketed histogram over non-negative integer values (sim-time
/// microseconds, wall-clock nanoseconds, byte counts). Bucket i holds
/// values whose bit width is i, i.e. [2^(i-1), 2^i - 1]; bucket 0 holds
/// the value 0. 64 buckets cover the whole uint64 range, so nothing is
/// ever out of range — the top bucket simply absorbs the tail and the
/// quantile clamps to the observed max.
class LatencyHistogram {
 public:
  static constexpr int kBuckets = 64;

  void Record(std::uint64_t value);

  /// q in [0, 1]. Returns 0 for an empty histogram. Exact for the
  /// min/max endpoints, interpolated inside the selected bucket.
  std::uint64_t Quantile(double q) const;

  /// Pointwise sum: afterwards *this reports the union of both streams.
  /// Locks other then this sequentially (never both at once — the two
  /// mutexes share a rank), so a concurrently-recording `other` yields a
  /// consistent point-in-time copy.
  void Merge(const LatencyHistogram& other);

  std::uint64_t count() const {
    gm::MutexLock lock(&mu_);
    return count_;
  }
  std::uint64_t sum() const {
    gm::MutexLock lock(&mu_);
    return sum_;
  }
  std::uint64_t min() const {
    gm::MutexLock lock(&mu_);
    return count_ == 0 ? 0 : min_;
  }
  std::uint64_t max() const {
    gm::MutexLock lock(&mu_);
    return max_;
  }
  double mean() const {
    gm::MutexLock lock(&mu_);
    return count_ == 0 ? 0.0
                       : static_cast<double>(sum_) / static_cast<double>(count_);
  }
  std::uint64_t bucket(int i) const {
    gm::MutexLock lock(&mu_);
    return buckets_[i];
  }

 private:
  std::uint64_t QuantileLocked(double q) const GM_REQUIRES(mu_);

  mutable gm::Mutex mu_{"telemetry.histogram", gm::lockrank::kMetric};
  std::uint64_t buckets_[kBuckets] GM_GUARDED_BY(mu_) = {};
  std::uint64_t count_ GM_GUARDED_BY(mu_) = 0;
  std::uint64_t sum_ GM_GUARDED_BY(mu_) = 0;
  std::uint64_t min_ GM_GUARDED_BY(mu_) = 0;
  std::uint64_t max_ GM_GUARDED_BY(mu_) = 0;
};

/// Value-type copy of every metric at one instant; what the monitor
/// tables and the JSONL exporter render from.
struct MetricsSnapshot {
  struct HistogramView {
    std::uint64_t count = 0;
    std::uint64_t sum = 0;
    std::uint64_t min = 0;
    std::uint64_t max = 0;
    std::uint64_t p50 = 0;
    std::uint64_t p90 = 0;
    std::uint64_t p99 = 0;
  };
  struct SummaryView {
    std::uint64_t count = 0;
    double sum = 0.0;
    double min = 0.0;
    double max = 0.0;
    double mean = 0.0;
  };

  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramView> histograms;
  std::map<std::string, SummaryView> summaries;

  /// Missing-tolerant counter lookup for table renderers.
  std::uint64_t CounterOr(const std::string& name,
                          std::uint64_t fallback = 0) const {
    const auto it = counters.find(name);
    return it == counters.end() ? fallback : it->second;
  }
  bool HasCounter(const std::string& name) const {
    return counters.count(name) != 0;
  }
  double GaugeOr(const std::string& name, double fallback = 0.0) const {
    const auto it = gauges.find(name);
    return it == gauges.end() ? fallback : it->second;
  }
  /// Missing-tolerant histogram lookup (e.g. an SLO checker reading a
  /// latency histogram that has not recorded yet).
  HistogramView HistogramOr(const std::string& name) const {
    const auto it = histograms.find(name);
    return it == histograms.end() ? HistogramView{} : it->second;
  }
};

/// Named metric store. Get* creates on first use and always returns the
/// same object for a name; names are dot-delimited paths by convention
/// ("grid.agent.migrations", "store.bank.append_wall_ns"). Lookups take the
/// registry mutex; the returned pointers are safe to record through from
/// any thread without it.
class MetricsRegistry {
 public:
  Counter* GetCounter(const std::string& name) {
    gm::MutexLock lock(&mu_);
    return &counters_[name];
  }
  Gauge* GetGauge(const std::string& name) {
    gm::MutexLock lock(&mu_);
    return &gauges_[name];
  }
  Summary* GetSummary(const std::string& name) {
    gm::MutexLock lock(&mu_);
    return &summaries_[name];
  }
  LatencyHistogram* GetHistogram(const std::string& name) {
    gm::MutexLock lock(&mu_);
    return &histograms_[name];
  }

  MetricsSnapshot Snapshot() const;

 private:
  mutable gm::Mutex mu_{"telemetry.registry", gm::lockrank::kMetricsRegistry};
  // std::map is node-based: inserting never invalidates element pointers.
  std::map<std::string, Counter> counters_ GM_GUARDED_BY(mu_);
  std::map<std::string, Gauge> gauges_ GM_GUARDED_BY(mu_);
  std::map<std::string, Summary> summaries_ GM_GUARDED_BY(mu_);
  std::map<std::string, LatencyHistogram> histograms_ GM_GUARDED_BY(mu_);
};

}  // namespace gm::telemetry
