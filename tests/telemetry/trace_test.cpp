#include "telemetry/trace.hpp"

#include <gtest/gtest.h>

#include "telemetry/telemetry.hpp"

namespace gm::telemetry {
namespace {

TEST(TracerTest, SpanLifecycle) {
  Tracer tracer;
  const TraceId trace = tracer.NewTrace();
  const SpanId span = tracer.BeginSpan(trace, "submit", "user=alice", 100);
  tracer.EndSpan(span, 250, SpanStatus::kOk);

  const auto events = tracer.EventsFor(trace);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].name, "submit");
  EXPECT_EQ(events[0].detail, "user=alice");
  EXPECT_EQ(events[0].start, 100);
  EXPECT_EQ(events[0].end, 250);
  EXPECT_EQ(events[0].Duration(), 150);
  EXPECT_EQ(events[0].status, SpanStatus::kOk);
  EXPECT_FALSE(events[0].instant);
}

TEST(TracerTest, InstantIsAClosedZeroDurationSpan) {
  Tracer tracer;
  const TraceId trace = tracer.NewTrace();
  tracer.Instant(trace, "auction-tick", "host=h00", 500, 1.25);
  const auto events = tracer.EventsFor(trace);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_TRUE(events[0].instant);
  EXPECT_EQ(events[0].start, 500);
  EXPECT_EQ(events[0].end, 500);
  EXPECT_DOUBLE_EQ(events[0].value, 1.25);
  EXPECT_EQ(events[0].status, SpanStatus::kOk);
}

TEST(TracerTest, EventsForFiltersByTraceAndSortsByStart) {
  Tracer tracer;
  const TraceId a = tracer.NewTrace();
  const TraceId b = tracer.NewTrace();
  tracer.Instant(a, "late", "", 300);
  tracer.Instant(b, "other", "", 50);
  tracer.Instant(a, "early", "", 100);
  const auto events = tracer.EventsFor(a);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].name, "early");
  EXPECT_EQ(events[1].name, "late");
}

TEST(TracerTest, RingEvictsOldestFirst) {
  Tracer tracer(4);
  const TraceId trace = tracer.NewTrace();
  for (int i = 0; i < 10; ++i)
    tracer.Instant(trace, "e" + std::to_string(i), "", i);
  EXPECT_EQ(tracer.size(), 4u);
  EXPECT_EQ(tracer.dropped(), 6u);
  const auto events = tracer.AllEvents();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events.front().name, "e6");
  EXPECT_EQ(events.back().name, "e9");
}

TEST(TracerTest, EndingAnEvictedSpanIsANoOp) {
  Tracer tracer(2);
  const TraceId trace = tracer.NewTrace();
  const SpanId span = tracer.BeginSpan(trace, "doomed", "", 0);
  tracer.Instant(trace, "a", "", 1);
  tracer.Instant(trace, "b", "", 2);  // evicts "doomed"
  tracer.EndSpan(span, 3);            // must not crash or corrupt the ring
  const auto events = tracer.AllEvents();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].name, "a");
  EXPECT_EQ(events[1].name, "b");
}

TEST(TracerTest, ReusedSlotDoesNotResurrectOldSpanId) {
  Tracer tracer(1);
  const TraceId trace = tracer.NewTrace();
  const SpanId first = tracer.BeginSpan(trace, "first", "", 0);
  const SpanId second = tracer.BeginSpan(trace, "second", "", 1);  // evicts
  tracer.EndSpan(first, 5);  // stale id: no-op
  tracer.EndSpan(second, 7);
  const auto events = tracer.AllEvents();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].name, "second");
  EXPECT_EQ(events[0].end, 7);
}

TEST(TelemetryTest, JsonlHasOneObjectPerLine) {
  Telemetry telemetry;
  telemetry.metrics().GetCounter("net.bus.sent")->Inc(2);
  telemetry.metrics().GetHistogram("net.rpc.latency_us")->Record(1500);
  const TraceId trace = telemetry.tracer().NewTrace();
  const SpanId span =
      telemetry.tracer().BeginSpan(trace, "submit", "user=\"alice\"", 10);
  telemetry.tracer().EndSpan(span, 20);
  telemetry.tracer().Instant(trace, "open-span-test", "", 30);

  const std::string jsonl = telemetry.ToJsonl();
  std::size_t lines = 0;
  std::size_t start = 0;
  while (start < jsonl.size()) {
    std::size_t nl = jsonl.find('\n', start);
    ASSERT_NE(nl, std::string::npos);  // every line newline-terminated
    const std::string line = jsonl.substr(start, nl - start);
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    EXPECT_NE(line.find("\"kind\""), std::string::npos);
    ++lines;
    start = nl + 1;
  }
  EXPECT_EQ(lines, 4u);  // counter + histogram + span + instant
  // The quote inside the span detail must be escaped, not emitted raw.
  EXPECT_NE(jsonl.find("user=\\\"alice\\\""), std::string::npos);
}

}  // namespace
}  // namespace gm::telemetry
