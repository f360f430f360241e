// perfbench: one command that runs a grid-market workload at a seed for
// a fixed wall time, checks its outputs and prints every metric.
//
//   perfbench --workload paper-testbed|open-grid|federation-scale
//             [--seed N] [--seconds S] [--trace 0|1] [--out DIR]
//   perfbench --list-metrics
//
// A run cycles through the workload's variants (inputs drawn from the
// seed) until the time is up and reports each timing as a mean over
// variants of the median over their repeats, scaled by machine speed.
// --trace 0 reports the end-to-end catalog. --trace 1 spends the first
// half of the time untraced and the second half traced, reports the
// per-layer catalog and trace.overhead_pct (traced vs untraced run_s),
// and writes the spans to DIR/trace-<workload>.jsonl. The last stdout
// line is the JSON result; the exit code is non-zero when an output check
// fails.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <thread>

#include "report.hpp"
#include "workloads.hpp"

namespace perfbench {

std::uint64_t Fnv1a(const std::string& text, std::uint64_t hash) {
  for (const unsigned char c : text) {
    hash ^= c;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

void AddRegistryCounters(const std::map<std::string, std::uint64_t>& counters,
                         RunStats& stats) {
  for (const auto& [name, value] : counters) {
    const std::string key = "reg." + name;
    for (const MetricSpec& spec : PerLayerCatalog())
      if (spec.name == key) stats.layer[key] += static_cast<double>(value);
  }
}

namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = kPaperSeed;
  double seconds = 10.0;
  bool trace = false;
  std::string out = ".";
  bool list_metrics = false;
};

bool ParseArgs(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--list-metrics") {
      args.list_metrics = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args.seconds > 0)) return false;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      args.trace = value == "1";
    } else if (flag == "--out") {
      args.out = value;
    } else {
      return false;
    }
  }
  return args.list_metrics || !args.workload.empty();
}

void PrintSpecs(const char* key, const std::vector<MetricSpec>& specs,
                bool last) {
  std::printf("  \"%s\": [\n", key);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    std::printf("    {\"name\": \"%s\", \"unit\": \"%s\"", specs[i].name.c_str(),
                specs[i].unit.c_str());
    if (!specs[i].better.empty())
      std::printf(", \"better\": \"%s\"", specs[i].better.c_str());
    std::printf("}%s\n", i + 1 < specs.size() ? "," : "");
  }
  std::printf("  ]%s\n", last ? "" : ",");
}

bool CatalogsValid() {
  for (const auto* catalog : {&EndToEndCatalog(), &PerLayerCatalog()})
    for (const MetricSpec& spec : *catalog)
      if (!ValidMetricName(spec.name) || !ValidUnit(spec.unit)) {
        std::fprintf(stderr, "invalid metric %s [%s]\n", spec.name.c_str(),
                     spec.unit.c_str());
        return false;
      }
  return true;
}

// Hard stop well inside the 180 s a run may take, whatever --seconds is.
constexpr double kMaxLoopSeconds = 120.0;
// Every variant runs at least this often, so its typical repeat is a
// median over more than one.
constexpr int kMinRepeats = 2;

// Iterate over the workload's variants in turn until `seconds` of wall
// time have passed and every variant has run kMinRepeats times.
void Loop(Workload& workload, Tracer& tracer, RunStats& stats,
          double seconds, std::uint32_t& run_id) {
  const std::int64_t start = NowNs();
  const auto elapsed = [start] {
    return static_cast<double>(NowNs() - start) / 1e9;
  };
  const int variants = workload.variants();
  const double cpu_start = ProcessCpuSeconds();
  double probe = ProbeSeconds();
  for (int i = 0; i < variants * kMinRepeats || elapsed() < seconds; ++i) {
    tracer.set_run(run_id++);
    stats.BeginIteration(i % variants);
    workload.Iteration(i % variants, tracer, stats);
    stats.EndStep(RunStats::StepKind::kUntimed);
    const double after = ProbeSeconds();
    stats.iterations.back().speed = kProbeNominalS / ((probe + after) / 2);
    probe = after;
    if (elapsed() > kMaxLoopSeconds) break;
  }
  stats.loop_wall_s = elapsed();
  stats.loop_cpu_s = ProcessCpuSeconds() - cpu_start;
}

void PrintSummary(const std::string& workload, const Args& args,
                  const RunStats& stats,
                  const std::vector<Typical>& typical, int nproc) {
  std::printf("workload %s seed %llu: %zu iterations over %zu variants, "
              "threads %d of nproc %d, %.2f s wall, %.2f s CPU\n",
              workload.c_str(), static_cast<unsigned long long>(args.seed),
              stats.iterations.size(), typical.size(), stats.threads, nproc,
              stats.loop_wall_s, stats.loop_cpu_s);
  for (std::size_t v = 0; v < typical.size(); ++v) {
    std::printf("  variant %zu, median of %d: setup_s %.6f run_s %.6f, "
                "%zu ops; raw run_s @ speed of each repeat:",
                v, typical[v].repeats, typical[v].setup_s, typical[v].run_s,
                typical[v].op_us.size());
    for (const RunStats::Iteration& it : stats.iterations) {
      if (it.variant != static_cast<int>(v)) continue;
      double run_s = 0.0;
      for (const RunStats::Step& step : it.steps)
        if (step.kind != RunStats::StepKind::kSetup &&
            step.kind != RunStats::StepKind::kUntimed)
          run_s += step.seconds;
      std::printf(" %.3f@%.2f", run_s, it.speed);
    }
    std::printf("\n");
  }
  std::size_t ops = 0;
  for (const Typical& t : typical) ops += t.op_us.size();
  std::printf("  op        %zu samples; op_tail_us = p%g with %zu "
              "beyond\n",
              ops, kOpTailPercentile, SamplesBeyond(ops, kOpTailPercentile));
  std::printf("  calls     %llu attempted, %llu failed, %llu provoked "
              "refusals, failed_ratio %.6f\n",
              static_cast<unsigned long long>(stats.tally.attempted),
              static_cast<unsigned long long>(stats.tally.failed),
              static_cast<unsigned long long>(stats.tally.refused),
              stats.tally.FailedRatio());
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME [--seed N] [--seconds S] "
                 "[--trace 0|1] [--out DIR] | --list-metrics\n");
    return 2;
  }
  if (!CatalogsValid()) return 2;
  if (args.list_metrics) {
    std::printf("{\n");
    PrintSpecs("end_to_end", EndToEndCatalog(), false);
    PrintSpecs("per_layer", PerLayerCatalog(), true);
    std::printf("}\n");
    return 0;
  }

  const int nproc =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  Options options;
  options.seed = args.seed;
  options.threads = nproc;
  options.out_dir = args.out;
  std::unique_ptr<Workload> workload;
  if (args.workload == "paper-testbed") {
    workload = MakePaperTestbed(options);
  } else if (args.workload == "open-grid") {
    workload = MakeOpenGrid(options);
  } else if (args.workload == "federation-scale") {
    workload = MakeFederationScale(options);
  } else {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }

  std::uint32_t run_id = 0;
  Tracer untraced_tracer(false);
  Tracer tracer(true);
  RunStats untraced;
  RunStats traced;
  Loop(*workload, untraced_tracer, untraced,
       args.trace ? args.seconds / 2 : args.seconds, run_id);
  if (args.trace) Loop(*workload, tracer, traced, args.seconds / 2, run_id);
  RunStats& final_stats = args.trace ? traced : untraced;
  workload->Finish(final_stats);

  const std::vector<Typical> untraced_typical =
      TypicalRepeats(untraced, workload->op_kind());
  const std::vector<Typical> traced_typical =
      TypicalRepeats(traced, workload->op_kind());
  PrintSummary(args.workload, args, untraced, untraced_typical, nproc);
  if (args.trace) {
    PrintSummary(args.workload + " (traced)", args, traced, traced_typical,
                 nproc);
    const std::string path = args.out + "/trace-" + args.workload + ".jsonl";
    if (tracer.WriteJsonl(path))
      std::printf("  spans     %zu written to %s\n", tracer.spans().size(),
                  path.c_str());
    else
      final_stats.check_failures.push_back("could not write " + path);
  }

  const std::vector<Metric> metrics =
      args.trace ? PerLayerMetrics(tracer, traced,
                                   TypicalRunSeconds(traced_typical),
                                   TypicalRunSeconds(untraced_typical))
                 : EndToEndMetrics(untraced_typical, PeakRssMb());
  for (const Metric& metric : metrics)
    std::printf("  %-40s %16.6f %s\n", metric.name.c_str(), metric.value,
                metric.unit.c_str());

  // Iterations repeat the same work, so a failing check repeats too.
  std::map<std::string, int> failures;
  for (const RunStats* stats : {&untraced, &traced})
    for (const std::string& failure : stats->check_failures) ++failures[failure];
  const std::uint64_t accepted = untraced.tally.accepted_refusals +
                                 traced.tally.accepted_refusals;
  if (accepted > 0)
    ++failures[std::to_string(accepted) + " provoked refusals were accepted"];
  for (const auto& [failure, times] : failures)
    std::printf("CHECK FAILED (%dx): %s\n", times, failure.c_str());
  const bool correct = failures.empty();
  std::printf("%s\n",
              ResultJson(correct,
                         untraced.tally.attempted + traced.tally.attempted,
                         untraced.tally.failed + traced.tally.failed, metrics)
                  .c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
