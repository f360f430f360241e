#include "report.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {
namespace {

bool IsAlnum(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9');
}

// Spans whose tail latency and unexpected-failure count are reported:
// the calls a user waits on.
const std::vector<std::string>& TailSpans() {
  static const std::vector<std::string> spans = {
      "core.run",      "grid.pay",   "grid.broker_submit",
      "market.snipe",  "market.price_stats", "predict.deadline_budget",
      "bank.transfer", "host.round"};
  return spans;
}
const std::vector<std::string>& FailedSpans() {
  static const std::vector<std::string> spans = {
      "grid.pay",     "grid.broker_submit", "grid.replay",
      "market.snipe", "bank.create",        "bank.transfer"};
  return spans;
}

// Per-layer values derived outside the spans.
const std::vector<MetricSpec>& DerivedCatalog() {
  static const std::vector<MetricSpec> specs = {
      {"bank.transfer.cross_shard_share", "ratio", ""},
      {"store.wal_bytes", "B", ""},
      {"store.wal_bytes_per_op", "B/op", ""},
      {"host.ticks", "count", ""},
      {"host.fed_ops_applied", "count", ""},
      {"host.fed_ops_failed", "count", ""},
      {"host.parallel_efficiency", "ratio", ""},
      {"grid.hosts_per_job_mean", "hosts", ""},
      {"reg.market.auction.ticks", "count", ""},
      {"reg.net.rpc.calls", "count", ""},
      {"reg.net.rpc.retries", "count", ""},
      {"reg.fed.router.settlements", "count", ""},
      {"reg.fed.router.aborts", "count", ""},
      {"reg.bank.transfers", "count", ""},
      {"trace.overhead_pct", "%", ""},
  };
  return specs;
}

// Every span name the drivers open, in catalog order.
const std::vector<std::string>& SpanCatalog() {
  static const std::vector<std::string> spans = {
      "core.construct",     "core.register",     "core.run",
      "grid.pay",           "grid.broker_submit", "grid.replay",
      "market.snipe",       "market.sls_query",  "market.price_stats",
      "predict.deadline_budget", "predict.ar_fit", "predict.empirical",
      "predict.portfolio",  "bank.create",       "bank.transfer",
      "bank.ledger_hash",   "bank.conservation", "bank.reconcile",
      "host.round",         "store.replay",      "store.resume"};
  return spans;
}

bool Contains(const std::vector<std::string>& list, const std::string& s) {
  for (const std::string& item : list)
    if (item == s) return true;
  return false;
}

void AppendNumber(std::string& out, double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(value) ? value : 0.0);
  out += buf;
}

}  // namespace

bool ValidMetricName(std::string_view name) {
  if (name.empty() || name.size() > 64 || !IsAlnum(name.front()))
    return false;
  for (const char c : name)
    if (!IsAlnum(c) && c != '_' && c != '.' && c != '-') return false;
  return true;
}

bool ValidUnit(std::string_view unit) {
  if (unit.empty() || unit.size() > 16) return false;
  for (const char c : unit)
    if (!IsAlnum(c) && c != '_' && c != '/' && c != '%' && c != '.' &&
        c != '-')
      return false;
  return true;
}

const std::vector<MetricSpec>& EndToEndCatalog() {
  static const std::vector<MetricSpec> specs = {
      {"setup_s", "s", "lower"},
      {"run_s", "s", "lower"},
      {"sim_h_per_s", "sim-h/s", "higher"},
      {"ops_per_s", "1/s", "higher"},
      {"op_p50_us", "us", "lower"},
      {"op_tail_us", "us", "lower"},
      {"peak_rss_mb", "MB", "lower"},
  };
  return specs;
}

const std::vector<MetricSpec>& PerLayerCatalog() {
  static const std::vector<MetricSpec> specs = [] {
    std::vector<MetricSpec> out;
    for (const std::string& span : SpanCatalog()) {
      out.push_back({span + ".count", "count", ""});
      out.push_back({span + ".busy_ms", "ms", ""});
      out.push_back({span + ".self_ms", "ms", ""});
      out.push_back({span + ".p50_us", "us", ""});
      if (Contains(TailSpans(), span))
        out.push_back({span + ".tail_us", "us", ""});
      if (Contains(FailedSpans(), span))
        out.push_back({span + ".failed", "count", ""});
    }
    for (const MetricSpec& spec : DerivedCatalog()) out.push_back(spec);
    return out;
  }();
  return specs;
}

void RunStats::BeginIteration(int variant) {
  iterations.emplace_back().variant = variant;
  mark_ns_ = NowNs();
  timed_ = false;
}

void RunStats::EndStep(StepKind kind, double sim_hours) {
  const std::int64_t now = NowNs();
  if (!timed_ && kind != StepKind::kUntimed) kind = StepKind::kSetup;
  iterations.back().steps.push_back(
      {kind, static_cast<double>(now - mark_ns_) / 1e9,
       kind == StepKind::kSim ? sim_hours : 0.0});
  mark_ns_ = now;
}

void RunStats::BeginTimed() {
  EndStep(StepKind::kSetup);
  timed_ = true;
}

void RunStats::EndTimed() {
  EndStep(StepKind::kOther);
  timed_ = false;
}

std::vector<Typical> TypicalRepeats(RunStats& stats,
                                    RunStats::StepKind op_kind) {
  using StepKind = RunStats::StepKind;
  std::vector<std::vector<const RunStats::Iteration*>> by_variant;
  for (const RunStats::Iteration& it : stats.iterations) {
    const auto v = static_cast<std::size_t>(it.variant);
    if (by_variant.size() <= v) by_variant.resize(v + 1);
    by_variant[v].push_back(&it);
  }
  std::vector<Typical> out;
  for (std::size_t v = 0; v < by_variant.size(); ++v) {
    if (by_variant[v].empty()) continue;
    const std::vector<RunStats::Step>& first = by_variant[v].front()->steps;
    // Scaled seconds of each step position, one sample per repeat.
    std::vector<std::vector<double>> seconds(first.size());
    int repeats = 0;
    for (const RunStats::Iteration* it : by_variant[v]) {
      bool same = it->steps.size() == first.size();
      for (std::size_t i = 0; same && i < first.size(); ++i)
        same = it->steps[i].kind == first[i].kind;
      stats.Check(same, "variant " + std::to_string(v) +
                            ": steps changed between repeats");
      if (!same) continue;
      ++repeats;
      for (std::size_t i = 0; i < first.size(); ++i)
        seconds[i].push_back(it->steps[i].seconds * it->speed);
    }
    Typical& typical = out.emplace_back();
    typical.repeats = repeats;
    for (std::size_t i = 0; i < first.size(); ++i) {
      const double median = Median(seconds[i]);
      const StepKind kind = first[i].kind;
      if (kind == StepKind::kSetup) typical.setup_s += median;
      if (kind == StepKind::kSim || kind == StepKind::kOp ||
          kind == StepKind::kOther)
        typical.run_s += median;
      if (kind == StepKind::kSim) {
        typical.sim_wall_s += median;
        typical.sim_hours += first[i].sim_hours;
      }
      if (kind == op_kind) typical.op_us.push_back(median * 1e6);
    }
  }
  return out;
}

double TypicalRunSeconds(const std::vector<Typical>& typical) {
  double run_s = 0.0;
  for (const Typical& t : typical) run_s += t.run_s;
  return typical.empty() ? 0.0 : run_s / static_cast<double>(typical.size());
}

std::vector<Metric> EndToEndMetrics(const std::vector<Typical>& typical,
                                    double peak_rss_mb) {
  double setup_s = 0.0;
  double run_s = 0.0;
  double sim_hours = 0.0;
  double sim_wall_s = 0.0;
  std::vector<double> op_us;
  for (const Typical& t : typical) {
    setup_s += t.setup_s;
    run_s += t.run_s;
    sim_hours += t.sim_hours;
    sim_wall_s += t.sim_wall_s;
    op_us.insert(op_us.end(), t.op_us.begin(), t.op_us.end());
  }
  const double variants =
      std::max<double>(1.0, static_cast<double>(typical.size()));
  std::sort(op_us.begin(), op_us.end());
  std::map<std::string, double> values = {
      {"setup_s", setup_s / variants},
      {"run_s", run_s / variants},
      {"sim_h_per_s", sim_wall_s > 0 ? sim_hours / sim_wall_s : 0.0},
      {"ops_per_s",
       run_s > 0 ? static_cast<double>(op_us.size()) / run_s : 0.0},
      {"op_p50_us", Median(op_us)},
      {"op_tail_us", PercentileSorted(op_us, kOpTailPercentile)},
      {"peak_rss_mb", peak_rss_mb},
  };
  std::vector<Metric> out;
  for (const MetricSpec& spec : EndToEndCatalog())
    out.push_back({spec.name, values[spec.name], spec.unit});
  return out;
}

std::vector<Metric> PerLayerMetrics(const Tracer& tracer,
                                    const RunStats& traced,
                                    double traced_run_s,
                                    double untraced_run_s) {
  const std::map<std::string, SpanSummary> summary = tracer.Summarize();
  std::map<std::string, double> values = traced.layer;
  for (const auto& [name, span] : summary) {
    values[name + ".count"] = static_cast<double>(span.count);
    values[name + ".busy_ms"] = span.busy_ns / 1e6;
    values[name + ".self_ms"] = span.self_ns / 1e6;
    values[name + ".p50_us"] = Median(span.durations_us);
    values[name + ".tail_us"] = TailPercentile(span.durations_us).value;
    values[name + ".failed"] = static_cast<double>(span.failed);
  }
  values["trace.overhead_pct"] =
      untraced_run_s > 0 ? (traced_run_s / untraced_run_s - 1.0) * 100.0
                         : 0.0;
  std::vector<Metric> out;
  for (const MetricSpec& spec : PerLayerCatalog()) {
    const auto it = values.find(spec.name);
    out.push_back({spec.name, it == values.end() ? 0.0 : it->second,
                   spec.unit});
  }
  return out;
}

std::string ResultJson(bool correct, std::uint64_t attempted,
                       std::uint64_t failed,
                       const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": ";
    AppendNumber(out, metrics[i].value);
    out += ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  return out;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

}  // namespace perfbench
