// Telemetry facade: one object bundling the metrics registry and the
// trace journal, plus the JSONL exporter.
//
// Components accept a `Telemetry*` (nullptr = disabled) and guard every
// instrumentation site with a pointer check, so a run with telemetry off
// pays a single predictable branch per site and allocates nothing.
//
// JSONL schema (one object per line, see DESIGN.md §8):
//   {"kind":"counter","name":N,"value":V}
//   {"kind":"gauge","name":N,"value":V}
//   {"kind":"summary","name":N,"count":C,"sum":S,"min":m,"max":M,"mean":A}
//   {"kind":"histogram","name":N,"count":C,"sum":S,"min":m,"max":M,
//    "p50":..,"p90":..,"p99":..}
//   {"kind":"span","trace":T,"id":I,"name":N,"detail":D,"start_us":S,
//    "end_us":E,"status":"ok|error|open","instant":B,
//    "value":V}
#pragma once

#include <string>

#include "common/status.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"

namespace gm::telemetry {

class Telemetry {
 public:
  explicit Telemetry(std::size_t trace_capacity = 8192)
      : tracer_(trace_capacity) {}

  MetricsRegistry& metrics() { return metrics_; }
  const MetricsRegistry& metrics() const { return metrics_; }
  Tracer& tracer() { return tracer_; }
  const Tracer& tracer() const { return tracer_; }

  /// Every metric then every buffered span, one JSON object per line.
  std::string ToJsonl() const;
  Status WriteJsonl(const std::string& path) const;

 private:
  MetricsRegistry metrics_;
  Tracer tracer_;
};

/// Minimal JSON string escaping (quotes, backslash, control chars).
std::string JsonEscape(const std::string& s);
std::string SpanToJson(const SpanEvent& event);

}  // namespace gm::telemetry
