// Causal trace spans over simulated time.
//
// A TraceId is minted when a job enters the system and rides along every
// lifecycle transition the job causes: the job record carries it into the
// broker, the scheduler plugin and the host market accounts. Components
// open spans against the trace — submit, fund-verify, bid, execute,
// stage-out, refund — and mark point events (auction ticks, crashes,
// migrations) as instants. Each lifecycle phase is one span, so a trace
// never double-counts work.
//
// Events live in a bounded ring buffer keyed by sim-time: recording is
// O(1), memory is fixed, and the oldest events fall off first. Ending a
// span that has already been evicted is a silent no-op (the journal is
// diagnostic, not transactional).
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/concurrency.hpp"
#include "sim/time.hpp"

namespace gm::telemetry {

using TraceId = std::uint64_t;
using SpanId = std::uint64_t;

enum class SpanStatus : std::uint8_t { kOpen = 0, kOk = 1, kError = 2 };

const char* SpanStatusName(SpanStatus status);

struct SpanEvent {
  SpanId id = 0;
  TraceId trace = 0;
  std::string name;    // "submit", "refund", "auction-tick", ...
  std::string detail;  // free-form context ("host=h3", "job=7")
  sim::SimTime start = 0;
  sim::SimTime end = -1;  // -1 while the span is open; == start for instants
  SpanStatus status = SpanStatus::kOpen;
  bool instant = false;
  double value = 0.0;  // optional numeric payload (price, dollars, count)

  sim::SimDuration Duration() const { return end < 0 ? 0 : end - start; }
};

/// Bounded event journal plus trace/span id minting. Thread-safe: one
/// mutex (rank kTracer, above every component lock) covers the ring and
/// the id counters, so spans can be recorded from inside any critical
/// section and from any runner thread.
class Tracer {
 public:
  explicit Tracer(std::size_t capacity = 8192);

  TraceId NewTrace() {
    gm::MutexLock lock(&mu_);
    return next_trace_++;
  }

  /// Opens a span; returns its id for EndSpan. Spans against
  /// trace 0 ("no trace") are still recorded — they show up in the
  /// journal but belong to no causal chain.
  SpanId BeginSpan(TraceId trace, std::string name, std::string detail,
                   sim::SimTime now);
  void EndSpan(SpanId span, sim::SimTime now,
               SpanStatus status = SpanStatus::kOk);

  /// Point event: a span with zero duration, already closed.
  void Instant(TraceId trace, std::string name, std::string detail,
               sim::SimTime now, double value = 0.0);

  /// All still-buffered events of one trace, ordered by (start, id).
  std::vector<SpanEvent> EventsFor(TraceId trace) const;
  /// Every buffered event in ring order (oldest first).
  std::vector<SpanEvent> AllEvents() const;

  std::size_t capacity() const { return capacity_; }
  std::size_t size() const {
    gm::MutexLock lock(&mu_);
    return size_;
  }
  /// Events evicted because the ring wrapped.
  std::uint64_t dropped() const {
    gm::MutexLock lock(&mu_);
    return dropped_;
  }

 private:
  SpanEvent* Find(SpanId span) GM_REQUIRES(mu_);
  SpanEvent& Push(SpanEvent event) GM_REQUIRES(mu_);
  std::vector<SpanEvent> AllEventsLocked() const GM_REQUIRES(mu_);

  mutable gm::Mutex mu_{"telemetry.tracer", gm::lockrank::kTracer};
  const std::size_t capacity_;
  std::vector<SpanEvent> ring_ GM_GUARDED_BY(mu_);
  std::size_t head_ GM_GUARDED_BY(mu_) = 0;  // next write slot
  std::size_t size_ GM_GUARDED_BY(mu_) = 0;
  std::uint64_t dropped_ GM_GUARDED_BY(mu_) = 0;
  TraceId next_trace_ GM_GUARDED_BY(mu_) = 1;
  SpanId next_span_ GM_GUARDED_BY(mu_) = 1;
  // Open spans only: span id -> ring slot, erased on EndSpan/eviction.
  std::unordered_map<SpanId, std::size_t> open_ GM_GUARDED_BY(mu_);
};

}  // namespace gm::telemetry
