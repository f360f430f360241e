#include "sim/kernel.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "sim/time.hpp"

namespace gm::sim {
namespace {

TEST(SimTimeTest, ConversionHelpers) {
  EXPECT_EQ(Seconds(1.5), 1'500'000);
  EXPECT_EQ(Minutes(2), 120 * kSecond);
  EXPECT_EQ(Hours(1), 3600 * kSecond);
  EXPECT_DOUBLE_EQ(ToSeconds(kMinute), 60.0);
  EXPECT_DOUBLE_EQ(ToHours(kDay), 24.0);
  EXPECT_DOUBLE_EQ(ToMinutes(Seconds(90)), 1.5);
}

TEST(SimTimeTest, FormatTime) {
  EXPECT_EQ(FormatTime(0), "00:00:00.000");
  EXPECT_EQ(FormatTime(Hours(1) + Minutes(2) + Seconds(3) + 4 * kMillisecond),
            "01:02:03.004");
  EXPECT_EQ(FormatTime(kDay + Hours(2)), "1d 02:00:00.000");
}

TEST(KernelTest, FiresInTimeOrder) {
  Kernel kernel;
  std::vector<int> order;
  kernel.ScheduleAt(30, [&] { order.push_back(3); });
  kernel.ScheduleAt(10, [&] { order.push_back(1); });
  kernel.ScheduleAt(20, [&] { order.push_back(2); });
  EXPECT_EQ(kernel.Run(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(kernel.now(), 30);
}

TEST(KernelTest, SameTimeFiresInScheduleOrder) {
  Kernel kernel;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i)
    kernel.ScheduleAt(100, [&order, i] { order.push_back(i); });
  kernel.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(KernelTest, ScheduleAfterUsesCurrentTime) {
  Kernel kernel;
  SimTime fired_at = -1;
  kernel.ScheduleAt(50, [&] {
    kernel.ScheduleAfter(25, [&] { fired_at = kernel.now(); });
  });
  kernel.Run();
  EXPECT_EQ(fired_at, 75);
}

TEST(KernelTest, RepeatingTimerFiresPeriodically) {
  Kernel kernel;
  std::vector<SimTime> times;
  EventHandle handle = kernel.ScheduleEvery(10, 10, [&] {
    times.push_back(kernel.now());
    if (times.size() == 4) kernel.Cancel(handle);
  });
  kernel.Run();
  EXPECT_EQ(times, (std::vector<SimTime>{10, 20, 30, 40}));
}

TEST(KernelTest, RepeatingTimerWithInitialDelayZero) {
  Kernel kernel;
  int count = 0;
  EventHandle handle = kernel.ScheduleEvery(0, 5, [&] { ++count; });
  kernel.RunUntil(17);
  kernel.Cancel(handle);
  // Fires at 0, 5, 10, 15.
  EXPECT_EQ(count, 4);
  EXPECT_EQ(kernel.now(), 17);
}

TEST(KernelTest, CancelPreventsFiring) {
  Kernel kernel;
  bool fired = false;
  EventHandle handle = kernel.ScheduleAt(10, [&] { fired = true; });
  EXPECT_TRUE(kernel.Cancel(handle));
  kernel.Run();
  EXPECT_FALSE(fired);
}

TEST(KernelTest, CancelReturnsFalseForStaleHandle) {
  Kernel kernel;
  EventHandle handle = kernel.ScheduleAt(10, [] {});
  kernel.Run();
  EXPECT_FALSE(kernel.Cancel(handle));
  EXPECT_FALSE(kernel.Cancel(EventHandle{}));
}

TEST(KernelTest, CancelFromInsideCallback) {
  Kernel kernel;
  bool other_fired = false;
  EventHandle other = kernel.ScheduleAt(20, [&] { other_fired = true; });
  kernel.ScheduleAt(10, [&] { kernel.Cancel(other); });
  kernel.Run();
  EXPECT_FALSE(other_fired);
}

TEST(KernelTest, RunUntilStopsAtDeadlineAndAdvancesClock) {
  Kernel kernel;
  std::vector<SimTime> times;
  kernel.ScheduleAt(10, [&] { times.push_back(10); });
  kernel.ScheduleAt(100, [&] { times.push_back(100); });
  EXPECT_EQ(kernel.RunUntil(50), 1u);
  EXPECT_EQ(kernel.now(), 50);
  EXPECT_EQ(times, (std::vector<SimTime>{10}));
  EXPECT_EQ(kernel.Run(), 1u);
  EXPECT_EQ(times, (std::vector<SimTime>{10, 100}));
}

TEST(KernelTest, EventAtDeadlineFiresInRunUntil) {
  Kernel kernel;
  bool fired = false;
  kernel.ScheduleAt(50, [&] { fired = true; });
  kernel.RunUntil(50);
  EXPECT_TRUE(fired);
}

TEST(KernelTest, StepFiresSingleEvent) {
  Kernel kernel;
  int count = 0;
  kernel.ScheduleAt(1, [&] { ++count; });
  kernel.ScheduleAt(2, [&] { ++count; });
  EXPECT_TRUE(kernel.Step());
  EXPECT_EQ(count, 1);
  EXPECT_TRUE(kernel.Step());
  EXPECT_EQ(count, 2);
  EXPECT_FALSE(kernel.Step());
}

TEST(KernelTest, CallbackSchedulingMoreEventsWorks) {
  Kernel kernel;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 100) kernel.ScheduleAfter(1, recurse);
  };
  kernel.ScheduleAt(0, recurse);
  kernel.Run();
  EXPECT_EQ(depth, 100);
  EXPECT_EQ(kernel.now(), 99);
}

TEST(KernelTest, PendingEventsCountsLiveEvents) {
  Kernel kernel;
  EXPECT_EQ(kernel.pending_events(), 0u);
  EventHandle a = kernel.ScheduleAt(10, [] {});
  kernel.ScheduleAt(20, [] {});
  EXPECT_EQ(kernel.pending_events(), 2u);
  kernel.Cancel(a);
  EXPECT_EQ(kernel.pending_events(), 1u);
  kernel.Run();
  EXPECT_EQ(kernel.pending_events(), 0u);
}

TEST(KernelTest, ManyEventsStressOrdering) {
  Kernel kernel;
  std::vector<SimTime> fired;
  // Schedule in a scrambled but deterministic order.
  for (int i = 0; i < 1000; ++i) {
    const SimTime t = (i * 7919) % 1000;
    kernel.ScheduleAt(t, [&fired, &kernel] { fired.push_back(kernel.now()); });
  }
  kernel.Run();
  ASSERT_EQ(fired.size(), 1000u);
  for (std::size_t i = 1; i < fired.size(); ++i)
    EXPECT_LE(fired[i - 1], fired[i]);
}

TEST(KernelTest, StaleHandleDoesNotCancelTheSlotsNextEvent) {
  Kernel kernel;
  const EventHandle first = kernel.ScheduleAt(10, [] {});
  kernel.Run();
  bool second_fired = false;
  kernel.ScheduleAt(20, [&] { second_fired = true; });
  EXPECT_FALSE(kernel.Cancel(first));
  EXPECT_EQ(kernel.pending_events(), 1u);
  kernel.Run();
  EXPECT_TRUE(second_fired);
}

TEST(KernelTest, TimerCancellingItselfKeepsItsCallbackUntilItReturns) {
  Kernel kernel;
  const std::string label(64, 'x');  // heap-held capture
  std::vector<std::string> seen;
  EventHandle timer;
  timer = kernel.ScheduleEvery(10, 10, [&kernel, &timer, &seen, label] {
    EXPECT_TRUE(kernel.Cancel(timer));
    // New events may not take the cancelled timer's slot while it runs.
    for (int i = 0; i < 4; ++i) kernel.ScheduleAfter(0, [] {});
    seen.push_back(label);
  });
  EXPECT_EQ(kernel.Run(), 5u);
  EXPECT_EQ(seen, (std::vector<std::string>{label}));
  EXPECT_EQ(kernel.pending_events(), 0u);
}

TEST(KernelTest, EarlierTimeSplitsOneTimeIntoTwoListsKeepingOrder) {
  Kernel kernel;
  std::string order;
  kernel.ScheduleAt(5, [&] { order += 'a'; });
  kernel.ScheduleAt(7, [&] { order += 'b'; });
  kernel.ScheduleAt(5, [&] { order += 'c'; });
  EXPECT_EQ(kernel.Run(), 3u);
  EXPECT_EQ(order, "acb");
}

TEST(KernelTest, ScheduleAtNowFromAnInstantsLastCallbackFiresNext) {
  Kernel kernel;
  std::string order;
  std::vector<SimTime> times;
  const auto record = [&](char c) {
    order += c;
    times.push_back(kernel.now());
  };
  // Two lists for time 10: [a] and, after x at 20, [b].
  kernel.ScheduleAt(10, [&] {
    record('a');
    kernel.ScheduleAt(kernel.now(), [&] { record('d'); });
  });
  kernel.ScheduleAt(20, [&] { record('x'); });
  kernel.ScheduleAt(10, [&] {
    record('b');
    kernel.ScheduleAt(kernel.now(), [&] {
      record('c');
      // From the last entry left at 10: the next instant is at 10 too.
      kernel.ScheduleAt(kernel.now(), [&] { record('e'); });
    });
  });
  EXPECT_EQ(kernel.Run(), 6u);
  // d was scheduled (by a) before c (by b), and all of them before x's
  // time.
  EXPECT_EQ(order, "abdcex");
  EXPECT_EQ(times, (std::vector<SimTime>{10, 10, 10, 10, 10, 20}));
}

TEST(KernelTest, PushAfterCancellingAnInstantsTailKeepsOrder) {
  Kernel kernel;
  std::string order;
  kernel.ScheduleAt(5, [&] { order += 'a'; });
  const EventHandle tail = kernel.ScheduleAt(5, [&] { order += 'b'; });
  EXPECT_TRUE(kernel.Cancel(tail));
  kernel.ScheduleAt(5, [&] { order += 'c'; });
  // An instant whose only entry is cancelled, then pushed to again.
  const EventHandle lone = kernel.ScheduleAt(9, [&] { order += 'x'; });
  EXPECT_TRUE(kernel.Cancel(lone));
  kernel.ScheduleAt(9, [&] { order += 'd'; });
  EXPECT_EQ(kernel.pending_events(), 3u);
  EXPECT_EQ(kernel.Run(), 3u);
  EXPECT_EQ(order, "acd");
  EXPECT_EQ(kernel.now(), 9);
}

TEST(KernelTest, RunUntilStopsExactlyAtAnInstantsTime) {
  Kernel kernel;
  std::vector<SimTime> times;
  std::vector<EventHandle> timers;
  for (int i = 0; i < 3; ++i) {
    timers.push_back(
        kernel.ScheduleEvery(10, 10, [&] { times.push_back(kernel.now()); }));
  }
  kernel.ScheduleAt(20, [&] { times.push_back(kernel.now()); });
  EXPECT_EQ(kernel.RunUntil(20), 7u);
  EXPECT_EQ(kernel.now(), 20);
  EXPECT_EQ(times, (std::vector<SimTime>{10, 10, 10, 20, 20, 20, 20}));
  EXPECT_EQ(kernel.RunUntil(29), 0u);
  EXPECT_EQ(kernel.RunUntil(30), 3u);
  EXPECT_EQ(kernel.now(), 30);
  for (const EventHandle timer : timers) EXPECT_TRUE(kernel.Cancel(timer));
  EXPECT_EQ(kernel.Run(), 0u);
}

// Reference model for the property test below: every event in one flat
// list, the next one found by a scan for the least (time, seq). Handles are
// list indices + 1 and are never reused.
class ReferenceKernel {
 public:
  using Handle = std::size_t;

  SimTime now() const { return now_; }
  Handle ScheduleAt(SimTime at, std::function<void()> callback) {
    events_.push_back({at, next_seq_++, 0, std::move(callback), true});
    return events_.size();
  }
  Handle ScheduleEvery(SimDuration initial_delay, SimDuration period,
                       std::function<void()> callback) {
    events_.push_back(
        {now_ + initial_delay, next_seq_++, period, std::move(callback), true});
    return events_.size();
  }
  bool Cancel(Handle handle) {
    if (handle == 0 || handle > events_.size() || !events_[handle - 1].pending)
      return false;
    events_[handle - 1].pending = false;
    return true;
  }
  std::size_t pending_events() const {
    std::size_t n = 0;
    for (const Event& e : events_) n += e.pending ? 1 : 0;
    return n;
  }
  std::size_t RunUntil(SimTime deadline) {
    std::size_t fired = 0;
    for (;;) {
      std::size_t next = events_.size();
      for (std::size_t i = 0; i < events_.size(); ++i) {
        const Event& e = events_[i];
        if (!e.pending) continue;
        if (next == events_.size() || e.at < events_[next].at ||
            (e.at == events_[next].at && e.seq < events_[next].seq))
          next = i;
      }
      if (next == events_.size() || events_[next].at > deadline) break;
      Event& e = events_[next];
      now_ = e.at;
      if (e.period > 0) {
        e.at = now_ + e.period;
        e.seq = next_seq_++;
      } else {
        e.pending = false;
      }
      const std::function<void()> callback = e.callback;  // events_ may grow
      callback();
      ++fired;
    }
    now_ = deadline;
    return fired;
  }

 private:
  struct Event {
    SimTime at;
    std::uint64_t seq;
    SimDuration period;
    std::function<void()> callback;
    bool pending;
  };
  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::vector<Event> events_;
};

// The shapes of the random programs. kSmall draws delays below 40, periods
// from 1 to 25 and RunUntil steps below 30, so most instants hold one or
// two entries. kAligned puts every delay and deadline on a 10-unit grid
// and gives timers a period of 10 or 60, like the market's auction ticks
// and heartbeats, and schedules more timers and cancels fewer, so
// instants hold tens of entries.
enum class Family { kSmall, kAligned };

// A seeded random program of ScheduleAt / ScheduleEvery / Cancel / RunUntil,
// run against `Q`. Callbacks draw further operations from the same stream:
// events at the current instant, cancels of other events (pending, fired or
// cancelled, so stale handles whose slot has been reused), and timers that
// cancel themselves. Returns a trace of every firing, Cancel result and
// pending_events() reading.
template <typename Q>
std::vector<std::string> RunRandomProgram(Family family, std::uint64_t seed) {
  using Handle = decltype(std::declval<Q&>().ScheduleAt(0, nullptr));
  Q q;
  Rng rng(seed);
  std::vector<Handle> handles;
  std::vector<std::string> trace;
  constexpr std::size_t kMaxEvents = 120;
  const bool aligned = family == Family::kAligned;

  std::function<void(std::size_t)> act;
  const auto schedule = [&](bool periodic) {
    if (handles.size() >= kMaxEvents) return;
    const std::size_t id = handles.size();
    handles.emplace_back();
    const SimDuration delay =
        rng.Bernoulli(0.3) ? 0
        : aligned          ? 10 * static_cast<SimDuration>(rng.NextBelow(7))
                           : static_cast<SimDuration>(rng.NextBelow(40));
    const SimDuration period =
        aligned ? (rng.Bernoulli(0.7) ? 10 : 60)
                : 1 + static_cast<SimDuration>(rng.NextBelow(25));
    const auto callback = [&, id] {
      trace.push_back("fire " + std::to_string(id) + " @" +
                      std::to_string(q.now()));
      act(id);
      // Touches the capture after act(), which may have cancelled this
      // very timer.
      trace.push_back("done " + std::to_string(id));
    };
    handles[id] = periodic ? q.ScheduleEvery(delay, period, callback)
                           : q.ScheduleAt(q.now() + delay, callback);
  };
  const auto cancel = [&](std::size_t id) {
    trace.push_back("cancel " + std::to_string(id) + " -> " +
                    (q.Cancel(handles[id]) ? "true" : "false"));
  };
  act = [&](std::size_t self) {
    const std::uint64_t ops = rng.NextBelow(3);
    for (std::uint64_t i = 0; i < ops; ++i) {
      const std::uint64_t op = rng.NextBelow(10);
      if (op < 4) {
        schedule(false);
      } else if (op < 5) {
        schedule(true);
      } else if (op < (aligned ? 9 : 8)) {
        cancel(rng.NextBelow(handles.size()));
      } else {
        cancel(self);
      }
      trace.push_back("pending " + std::to_string(q.pending_events()));
    }
  };

  for (int step = 0; step < 60; ++step) {
    const std::uint64_t op = rng.NextBelow(10);
    if (op < 3) {
      schedule(false);
    } else if (op < (aligned ? 6 : 5)) {
      schedule(true);
    } else if (op < 7 && !handles.empty()) {
      cancel(rng.NextBelow(handles.size()));
    } else {
      const SimTime until =
          q.now() + (aligned ? 10 * static_cast<SimTime>(rng.NextBelow(4))
                         : static_cast<SimTime>(rng.NextBelow(30)));
      trace.push_back("ran " + std::to_string(q.RunUntil(until)));
    }
    trace.push_back("pending " + std::to_string(q.pending_events()));
  }
  for (std::size_t id = 0; id < handles.size(); ++id) cancel(id);
  trace.push_back("pending " + std::to_string(q.pending_events()));
  return trace;
}

// The most firings at one time in a trace.
std::size_t LargestInstant(const std::vector<std::string>& trace) {
  std::size_t largest = 0;
  std::size_t run = 0;
  std::string run_time;
  for (const std::string& line : trace) {
    if (line.rfind("fire ", 0) != 0) continue;
    const std::string time = line.substr(line.find('@'));
    run = time == run_time ? run + 1 : 1;
    run_time = time;
    largest = std::max(largest, run);
  }
  return largest;
}

TEST(KernelProperty, MatchesReferenceQueueOnRandomPrograms) {
  for (const Family family : {Family::kSmall, Family::kAligned}) {
    std::size_t largest = 0;
    for (std::uint64_t seed = 1; seed <= 200; ++seed) {
      const std::vector<std::string> expected =
          RunRandomProgram<ReferenceKernel>(family, seed);
      const std::vector<std::string> actual =
          RunRandomProgram<Kernel>(family, seed);
      ASSERT_EQ(actual, expected)
          << "family " << static_cast<int>(family) << " seed " << seed;
      largest = std::max(largest, LargestInstant(expected));
    }
    if (family == Family::kAligned) {
      EXPECT_GE(largest, 20u);
    }
  }
}

}  // namespace
}  // namespace gm::sim
