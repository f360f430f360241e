// Tests for the benchmark's own logic: the tail-percentile rule, span
// self time, the metric-name grammar, failure accounting and the
// per-variant step statistics.
#include <gtest/gtest.h>

#include <numeric>
#include <set>

#include "report.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

std::vector<double> OneTo(int n) {
  std::vector<double> values(static_cast<std::size_t>(n));
  std::iota(values.begin(), values.end(), 1.0);
  return values;
}

TEST(TailPercentile, PicksHighestRungWithTenSamplesBeyond) {
  // 1000 samples: p99 is rank 990, leaving exactly 10 beyond; p99.9
  // would leave 1.
  const Tail tail = TailPercentile(OneTo(1000));
  ASSERT_TRUE(tail.ok);
  EXPECT_DOUBLE_EQ(tail.percentile, 99.0);
  EXPECT_DOUBLE_EQ(tail.value, 990.0);
  EXPECT_EQ(tail.beyond, 10u);
  EXPECT_EQ(tail.samples, 1000u);
}

TEST(TailPercentile, FallsBackWhenSamplesAreFew) {
  // 999 samples leave only 9 beyond p99, so p90 is reported.
  const Tail p90 = TailPercentile(OneTo(999));
  EXPECT_DOUBLE_EQ(p90.percentile, 90.0);
  EXPECT_GE(p90.beyond, 10u);
  EXPECT_EQ(p90.samples, 999u);

  const Tail p50 = TailPercentile(OneTo(40));
  EXPECT_DOUBLE_EQ(p50.percentile, 50.0);
  EXPECT_DOUBLE_EQ(p50.value, 20.0);

  const Tail none = TailPercentile(OneTo(10));
  EXPECT_FALSE(none.ok);
  EXPECT_EQ(none.samples, 10u);
}

TEST(TailPercentile, TenThousandSamplesReachP999) {
  const Tail tail = TailPercentile(OneTo(10'000));
  EXPECT_DOUBLE_EQ(tail.percentile, 99.9);
  EXPECT_DOUBLE_EQ(tail.value, 9990.0);
  EXPECT_EQ(tail.beyond, 10u);
}

TEST(TailPercentile, IgnoresInputOrder) {
  std::vector<double> values = OneTo(200);
  std::reverse(values.begin(), values.end());
  EXPECT_DOUBLE_EQ(TailPercentile(values).value, 180.0);  // p90
}

TEST(SamplesBeyond, CountsSamplesAboveTheNearestRank) {
  EXPECT_EQ(SamplesBeyond(1000, 99.0), 10u);
  EXPECT_EQ(SamplesBeyond(999, 99.0), 9u);
  EXPECT_EQ(SamplesBeyond(100, 90.0), 10u);
  EXPECT_EQ(SamplesBeyond(0, 50.0), 0u);
  EXPECT_EQ(SamplesBeyond(1, 50.0), 0u);
}

TEST(Median, OddEvenAndEmpty) {
  EXPECT_DOUBLE_EQ(Median({3, 1, 2}), 2.0);
  EXPECT_DOUBLE_EQ(Median({4, 1, 3, 2}), 2.5);
  EXPECT_DOUBLE_EQ(Median({}), 0.0);
}

SpanRecord Rec(int parent, std::int64_t start, std::int64_t end) {
  SpanRecord span;
  span.parent = parent;
  span.start_ns = start;
  span.end_ns = end;
  return span;
}

TEST(SelfTime, SubtractsOnlyDirectChildren) {
  // root [0,100) > child [10,50) > grandchild [20,30); child2 [60,70).
  const std::vector<SpanRecord> spans = {Rec(-1, 0, 100), Rec(0, 10, 50),
                                         Rec(1, 20, 30), Rec(0, 60, 70)};
  const std::vector<double> self = SelfTimesNs(spans);
  EXPECT_DOUBLE_EQ(self[0], 100 - 40 - 10);
  EXPECT_DOUBLE_EQ(self[1], 40 - 10);
  EXPECT_DOUBLE_EQ(self[2], 10);
  EXPECT_DOUBLE_EQ(self[3], 10);
}

TEST(SelfTime, OverlappingChildrenCountOnceAndAreClipped) {
  // Children overlap each other and one sticks out past the parent.
  const std::vector<SpanRecord> spans = {Rec(-1, 0, 100), Rec(0, 10, 40),
                                         Rec(0, 30, 60), Rec(0, 90, 130)};
  EXPECT_DOUBLE_EQ(SelfTimesNs(spans)[0], 100 - 50 - 10);
}

TEST(Tracer, NestsSpansAndSummarizesSelfTime) {
  Tracer tracer(true);
  tracer.set_run(7);
  const int outer = tracer.Begin("outer", 0);
  const int inner = tracer.Begin("inner", 10);
  tracer.End(inner, 40, false);
  const int sibling = tracer.Begin("inner", 50);
  tracer.End(sibling, 60, true);
  tracer.End(outer, 100, false);

  ASSERT_EQ(tracer.spans().size(), 3u);
  EXPECT_EQ(tracer.spans()[1].parent, outer);
  EXPECT_EQ(tracer.spans()[2].parent, outer);
  EXPECT_EQ(tracer.spans()[0].run, 7u);
  const auto summary = tracer.Summarize();
  EXPECT_EQ(summary.at("inner").count, 2u);
  EXPECT_EQ(summary.at("inner").failed, 1u);
  EXPECT_DOUBLE_EQ(summary.at("inner").busy_ns, 40.0);
  EXPECT_DOUBLE_EQ(summary.at("outer").busy_ns, 100.0);
  EXPECT_DOUBLE_EQ(summary.at("outer").self_ns, 60.0);
}

TEST(Tracer, DisabledRecordsNothingButSpansStillTime) {
  Tracer tracer(false);
  Span span(tracer, "x");
  EXPECT_GE(span.Stop(), 0.0);
  EXPECT_TRUE(tracer.spans().empty());
}

TEST(MetricNames, Grammar) {
  EXPECT_TRUE(ValidMetricName("setup_s"));
  EXPECT_TRUE(ValidMetricName("bank.transfer.p50_us"));
  EXPECT_TRUE(ValidMetricName("9-lives"));
  EXPECT_FALSE(ValidMetricName(""));
  EXPECT_FALSE(ValidMetricName(".hidden"));
  EXPECT_FALSE(ValidMetricName("_under"));
  EXPECT_FALSE(ValidMetricName("has space"));
  EXPECT_FALSE(ValidMetricName("slash/name"));
  EXPECT_FALSE(ValidMetricName(std::string(65, 'a')));
  EXPECT_TRUE(ValidMetricName(std::string(64, 'a')));
  EXPECT_TRUE(ValidUnit("sim-h/s"));
  EXPECT_TRUE(ValidUnit("%"));
  EXPECT_FALSE(ValidUnit("micro seconds"));
}

TEST(MetricNames, CatalogsAreValidAndUnique) {
  std::set<std::string> seen;
  for (const auto* catalog : {&EndToEndCatalog(), &PerLayerCatalog()}) {
    for (const MetricSpec& spec : *catalog) {
      EXPECT_TRUE(ValidMetricName(spec.name)) << spec.name;
      EXPECT_TRUE(ValidUnit(spec.unit)) << spec.unit;
      EXPECT_TRUE(seen.insert(spec.name).second) << spec.name;
    }
  }
  EXPECT_LE(PerLayerCatalog().size(), 128u);
  EXPECT_EQ(EndToEndCatalog().front().name, "setup_s");
}

TEST(CallTally, ProvokedRefusalsAreNotFailures) {
  CallTally tally;
  tally.Record(true);                        // ok call
  tally.Record(false);                       // unprovoked error
  tally.Record(false, Expect::kRefusal);     // replay refused: as intended
  tally.Record(false, Expect::kEither);      // priced-out flood
  tally.Record(true, Expect::kEither);       // flood that got through
  EXPECT_EQ(tally.attempted, 5u);
  EXPECT_EQ(tally.failed, 1u);
  EXPECT_EQ(tally.refused, 2u);
  EXPECT_EQ(tally.accepted_refusals, 0u);
  EXPECT_DOUBLE_EQ(tally.FailedRatio(), 0.2);
}

TEST(CallTally, AcceptedReplayIsFlaggedNotCountedAsFailure) {
  CallTally tally;
  tally.Record(true, Expect::kRefusal);
  EXPECT_EQ(tally.failed, 0u);
  EXPECT_EQ(tally.accepted_refusals, 1u);
}

TEST(ResultJson, HasExactlyTheContractKeys) {
  const std::string json =
      ResultJson(true, 3, 1, {{"run_s", 0.25, "s"}, {"op_p50_us", 12.5, "us"}});
  EXPECT_EQ(json,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 1, "
            "\"metrics\": {\"run_s\": {\"value\": 0.25, \"unit\": \"s\"}, "
            "\"op_p50_us\": {\"value\": 12.5, \"unit\": \"us\"}}}");
}

using Kind = RunStats::StepKind;

// One repeat of a variant at a machine speed: set-up, one simulated
// step of an hour, the user ops, and the rest of the timed phase.
RunStats::Iteration Repeat(int variant, double speed, double setup_s,
                           double sim_s, std::vector<double> op_s,
                           double other_s) {
  RunStats::Iteration it;
  it.variant = variant;
  it.speed = speed;
  it.steps.push_back({Kind::kSetup, setup_s, 0.0});
  it.steps.push_back({Kind::kSim, sim_s, 1.0});
  for (const double s : op_s) it.steps.push_back({Kind::kOp, s, 0.0});
  it.steps.push_back({Kind::kOther, other_s, 0.0});
  it.steps.push_back({Kind::kUntimed, 100.0, 0.0});
  return it;
}

TEST(TypicalRepeats, MediansOfSpeedScaledRepeatsPerVariant) {
  // Variant 0 ran three times, once while the machine ran at half speed
  // (which scaling undoes) and once disturbed in its ops; variant 1 ran
  // once.
  RunStats stats;
  stats.iterations = {Repeat(0, 1.0, 0.2, 1.0, {100e-6, 50e-6}, 0.5),
                      Repeat(1, 1.0, 0.3, 2.0, {10e-6}, 1.0),
                      Repeat(0, 0.5, 0.4, 2.0, {160e-6, 100e-6}, 1.0),
                      Repeat(0, 1.0, 0.2, 1.0, {300e-6, 900e-6}, 0.5)};
  const std::vector<Typical> typical = TypicalRepeats(stats, Kind::kOp);
  ASSERT_EQ(typical.size(), 2u);
  EXPECT_EQ(typical[0].repeats, 3);
  EXPECT_DOUBLE_EQ(typical[0].setup_s, 0.2);
  EXPECT_DOUBLE_EQ(typical[0].sim_wall_s, 1.0);
  EXPECT_DOUBLE_EQ(typical[0].sim_hours, 1.0);
  // The sum of the steps' medians.
  EXPECT_NEAR(typical[0].run_s, 1.0 + 150e-6 + 0.5, 1e-12);
  ASSERT_EQ(typical[0].op_us.size(), 2u);
  EXPECT_NEAR(typical[0].op_us[0], 100.0, 1e-9);  // of 100, 80, 300
  EXPECT_NEAR(typical[0].op_us[1], 50.0, 1e-9);   // of 50, 50, 900
  EXPECT_EQ(typical[1].repeats, 1);
  EXPECT_TRUE(stats.check_failures.empty());

  std::map<std::string, double> values;
  for (const Metric& metric : EndToEndMetrics(typical, 1.0))
    values[metric.name] = metric.value;
  ASSERT_EQ(values.size(), EndToEndCatalog().size());
  const double run0 = typical[0].run_s;
  const double run1 = 2.0 + 10e-6 + 1.0;
  EXPECT_NEAR(values["run_s"], (run0 + run1) / 2, 1e-12);  // mean of variants
  EXPECT_DOUBLE_EQ(values["setup_s"], (0.2 + 0.3) / 2);
  EXPECT_DOUBLE_EQ(values["sim_h_per_s"], 2.0 / (1.0 + 2.0));
  EXPECT_NEAR(values["ops_per_s"], 3.0 / (run0 + run1), 1e-12);
  EXPECT_NEAR(values["op_p50_us"], 50.0, 1e-9);
  EXPECT_NEAR(values["op_tail_us"], 100.0, 1e-9);  // nearest-rank p99 of 3
  EXPECT_DOUBLE_EQ(values["peak_rss_mb"], 1.0);
  EXPECT_NEAR(TypicalRunSeconds(typical), (run0 + run1) / 2, 1e-12);
}

TEST(TypicalRepeats, TheOpKindPicksTheOpSamples) {
  RunStats stats;
  stats.iterations = {Repeat(0, 1.0, 0.1, 2.0, {1e-6, 2e-6}, 0.1)};
  const std::vector<Typical> typical = TypicalRepeats(stats, Kind::kSim);
  ASSERT_EQ(typical.size(), 1u);
  EXPECT_EQ(typical[0].op_us, (std::vector<double>{2e6}));
}

TEST(TypicalRepeats, RepeatsThatTakeDifferentStepsFailTheCheck) {
  RunStats stats;
  stats.iterations = {Repeat(0, 1.0, 0.1, 1.0, {1e-6, 2e-6}, 0.1),
                      Repeat(0, 1.0, 0.1, 1.0, {1e-6, 2e-6, 3e-6}, 0.1)};
  (void)TypicalRepeats(stats, Kind::kOp);
  EXPECT_EQ(stats.check_failures.size(), 1u);
}

TEST(StepClock, SetUpStepsAndUntimedStepsKeepTheirPhase) {
  RunStats stats;
  stats.BeginIteration(3);
  stats.EndStep(Kind::kSim, 2.0);  // simulated during set-up: set-up
  stats.BeginTimed();
  stats.EndStep(Kind::kSim, 2.0);
  stats.EndStep(Kind::kOp);
  stats.EndTimed();
  stats.EndStep(Kind::kUntimed);
  const RunStats::Iteration& it = stats.iterations.back();
  EXPECT_EQ(it.variant, 3);
  std::vector<Kind> kinds;
  for (const RunStats::Step& step : it.steps) kinds.push_back(step.kind);
  EXPECT_EQ(kinds, (std::vector<Kind>{Kind::kSetup, Kind::kSetup, Kind::kSim,
                                      Kind::kOp, Kind::kOther,
                                      Kind::kUntimed}));
  EXPECT_DOUBLE_EQ(it.steps[0].sim_hours, 0.0);
  EXPECT_DOUBLE_EQ(it.steps[2].sim_hours, 2.0);
}

TEST(PerLayerMetrics, EveryCatalogEntryIsReportedEvenWhenUnused) {
  Tracer tracer(true);
  const int span = tracer.Begin("bank.transfer", 0);
  tracer.End(span, 2000, false);
  RunStats traced;
  const std::vector<Metric> metrics = PerLayerMetrics(tracer, traced, 1.1, 1.0);
  ASSERT_EQ(metrics.size(), PerLayerCatalog().size());
  std::map<std::string, double> values;
  for (const Metric& metric : metrics) values[metric.name] = metric.value;
  EXPECT_DOUBLE_EQ(values.at("bank.transfer.count"), 1);
  EXPECT_DOUBLE_EQ(values.at("bank.transfer.p50_us"), 2.0);
  EXPECT_DOUBLE_EQ(values.at("core.run.count"), 0);
  EXPECT_NEAR(values.at("trace.overhead_pct"), 10.0, 1e-9);
}

}  // namespace
}  // namespace perfbench
