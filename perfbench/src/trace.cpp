#include "trace.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <unordered_map>

namespace perfbench {

namespace {

// 1-based nearest rank of percentile p among n samples, in [1, n].
std::size_t NearestRank(std::size_t n, double p) {
  // p * n first keeps integer products exact (99 * 1000 = 99000).
  const double rank = std::ceil(p * static_cast<double>(n) / 100.0 - 1e-9);
  return std::clamp<std::size_t>(static_cast<std::size_t>(std::max(1.0, rank)),
                                 1, std::max<std::size_t>(n, 1));
}

}  // namespace

double ProbeSeconds() {
  static volatile std::uint64_t sink = 0;
  std::int64_t best = 0;
  for (int round = 0; round < 3; ++round) {
    const std::int64_t start = NowNs();
    std::uint64_t x = 0x9e3779b97f4a7c15ULL + sink;
    std::uint64_t acc = 0;
    // 64-bit divides, as in multi-precision arithmetic.
    for (int i = 0; i < 100'000; ++i) {
      x = x * 6364136223846793005ULL + 1442695040888963407ULL;
      acc += x / ((x >> 29) | 1);
    }
    // Hash-table updates and lookups over a table that fits in L2.
    std::unordered_map<std::uint64_t, std::uint64_t> table;
    table.reserve(8192);
    for (int i = 0; i < 60'000; ++i) {
      x = x * 6364136223846793005ULL + 1442695040888963407ULL;
      table[(x >> 40) & 8191] += x;
      acc += table.count((x >> 20) & 8191);
    }
    // A sort of doubles.
    std::vector<double> values(20'000);
    for (double& v : values) {
      x = x * 6364136223846793005ULL + 1442695040888963407ULL;
      v = static_cast<double>(x >> 11);
    }
    std::sort(values.begin(), values.end());
    acc += static_cast<std::uint64_t>(values[values.size() / 2]);
    sink = sink + acc;
    const std::int64_t elapsed = NowNs() - start;
    if (round == 0 || elapsed < best) best = elapsed;
  }
  return static_cast<double>(best) / 1e9;
}

double PercentileSorted(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  return sorted[NearestRank(sorted.size(), p) - 1];
}

std::size_t SamplesBeyond(std::size_t n, double p) {
  return n == 0 ? 0 : n - NearestRank(n, p);
}

Tail TailPercentile(std::vector<double> values, std::size_t min_beyond) {
  Tail tail;
  tail.samples = values.size();
  if (values.empty()) return tail;
  std::sort(values.begin(), values.end());
  for (const double p : kTailLadder) {
    const std::size_t beyond = SamplesBeyond(values.size(), p);
    if (beyond < min_beyond) break;
    tail.percentile = p;
    tail.value = PercentileSorted(values, p);
    tail.beyond = beyond;
    tail.ok = true;
  }
  return tail;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  if (values.size() % 2 == 1) return values[mid];
  return (values[mid - 1] + values[mid]) / 2.0;
}

int Tracer::Begin(std::string_view name, std::int64_t start_ns) {
  if (!enabled_) return -1;
  auto it = name_index_.find(name);
  if (it == name_index_.end()) {
    it = name_index_
             .emplace(std::string(name),
                      static_cast<std::uint32_t>(names_.size()))
             .first;
    names_.emplace_back(name);
  }
  SpanRecord record;
  record.name = it->second;
  record.parent = open_.empty() ? -1 : open_.back();
  record.run = run_;
  record.start_ns = start_ns;
  record.end_ns = start_ns;
  spans_.push_back(record);
  open_.push_back(static_cast<int>(spans_.size() - 1));
  return open_.back();
}

void Tracer::End(int index, std::int64_t end_ns, bool failed) {
  if (index < 0) return;
  SpanRecord& record = spans_[static_cast<std::size_t>(index)];
  record.end_ns = end_ns;
  record.failed = failed;
  // Spans close innermost first; tolerate a skipped close by unwinding.
  while (!open_.empty()) {
    const int top = open_.back();
    open_.pop_back();
    if (top == index) break;
  }
}

std::vector<double> SelfTimesNs(const std::vector<SpanRecord>& spans) {
  std::vector<std::vector<std::size_t>> children(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const int parent = spans[i].parent;
    if (parent >= 0 && static_cast<std::size_t>(parent) < spans.size())
      children[static_cast<std::size_t>(parent)].push_back(i);
  }
  std::vector<double> self(spans.size(), 0.0);
  std::vector<std::pair<std::int64_t, std::int64_t>> cover;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& span = spans[i];
    cover.clear();
    for (const std::size_t c : children[i]) {
      const std::int64_t lo = std::max(spans[c].start_ns, span.start_ns);
      const std::int64_t hi = std::min(spans[c].end_ns, span.end_ns);
      if (hi > lo) cover.emplace_back(lo, hi);
    }
    std::sort(cover.begin(), cover.end());
    std::int64_t covered = 0;
    std::int64_t run_lo = 0;
    std::int64_t run_hi = 0;
    bool open = false;
    for (const auto& [lo, hi] : cover) {
      if (open && lo <= run_hi) {
        run_hi = std::max(run_hi, hi);
        continue;
      }
      if (open) covered += run_hi - run_lo;
      run_lo = lo;
      run_hi = hi;
      open = true;
    }
    if (open) covered += run_hi - run_lo;
    self[i] = static_cast<double>(span.end_ns - span.start_ns - covered);
  }
  return self;
}

std::map<std::string, SpanSummary> Tracer::Summarize() const {
  const std::vector<double> self = SelfTimesNs(spans_);
  std::map<std::string, SpanSummary> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& span = spans_[i];
    SpanSummary& summary = out[names_[span.name]];
    const double duration = static_cast<double>(span.end_ns - span.start_ns);
    ++summary.count;
    if (span.failed) ++summary.failed;
    summary.busy_ns += duration;
    summary.self_ns += self[i];
    summary.durations_us.push_back(duration / 1e3);
  }
  return out;
}

bool Tracer::WriteJsonl(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& span = spans_[i];
    std::fprintf(f,
                 "{\"id\":%zu,\"name\":\"%s\",\"run\":%u,\"parent\":%d,"
                 "\"start_ns\":%lld,\"end_ns\":%lld,\"failed\":%s}\n",
                 i, names_[span.name].c_str(), span.run, span.parent,
                 static_cast<long long>(span.start_ns - origin),
                 static_cast<long long>(span.end_ns - origin),
                 span.failed ? "true" : "false");
  }
  return std::fclose(f) == 0;
}

double Span::Stop() {
  if (stopped_) return elapsed_us_;
  stopped_ = true;
  const std::int64_t end = NowNs();
  tracer_.End(index_, end, failed_);
  elapsed_us_ = static_cast<double>(end - start_ns_) / 1e3;
  return elapsed_us_;
}

bool CallTally::Record(bool ok, Expect expect) {
  ++attempted;
  switch (expect) {
    case Expect::kSuccess:
      if (!ok) ++failed;
      break;
    case Expect::kRefusal:
      if (ok) {
        ++accepted_refusals;
      } else {
        ++refused;
      }
      break;
    case Expect::kEither:
      if (!ok) ++refused;
      break;
  }
  return ok;
}

}  // namespace perfbench
