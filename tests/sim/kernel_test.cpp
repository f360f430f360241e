#include "sim/kernel.hpp"

#include <gtest/gtest.h>

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

// A seeded random program of ScheduleAt / ScheduleEvery / Cancel / RunUntil,
// run against `Q`. Callbacks draw further operations from the same stream:
// events at the current instant, cancels of other events (pending, fired or
// cancelled, so stale handles whose slot has been reused), and timers that
// cancel themselves. Returns a trace of every firing, Cancel result and
// pending_events() reading.
template <typename Q>
std::vector<std::string> RunRandomProgram(std::uint64_t seed) {
  using Handle = decltype(std::declval<Q&>().ScheduleAt(0, nullptr));
  Q q;
  Rng rng(seed);
  std::vector<Handle> handles;
  std::vector<std::string> trace;
  constexpr std::size_t kMaxEvents = 120;

  std::function<void(std::size_t)> act;
  const auto schedule = [&](bool periodic) {
    if (handles.size() >= kMaxEvents) return;
    const std::size_t id = handles.size();
    handles.emplace_back();
    const SimDuration delay =
        rng.Bernoulli(0.3) ? 0 : static_cast<SimDuration>(rng.NextBelow(40));
    const auto callback = [&, id] {
      trace.push_back("fire " + std::to_string(id) + " @" +
                      std::to_string(q.now()));
      act(id);
      // Touches the capture after act(), which may have cancelled this
      // very timer.
      trace.push_back("done " + std::to_string(id));
    };
    handles[id] = periodic ? q.ScheduleEvery(
                                 delay, 1 + static_cast<SimDuration>(
                                                rng.NextBelow(25)),
                                 callback)
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
      } else if (op < 8) {
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
    } else if (op < 5) {
      schedule(true);
    } else if (op < 7 && !handles.empty()) {
      cancel(rng.NextBelow(handles.size()));
    } else {
      const SimTime until = q.now() + static_cast<SimTime>(rng.NextBelow(30));
      trace.push_back("ran " + std::to_string(q.RunUntil(until)));
    }
    trace.push_back("pending " + std::to_string(q.pending_events()));
  }
  for (std::size_t id = 0; id < handles.size(); ++id) cancel(id);
  trace.push_back("pending " + std::to_string(q.pending_events()));
  return trace;
}

TEST(KernelProperty, MatchesReferenceQueueOnRandomPrograms) {
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    const std::vector<std::string> expected =
        RunRandomProgram<ReferenceKernel>(seed);
    const std::vector<std::string> actual = RunRandomProgram<Kernel>(seed);
    ASSERT_EQ(actual, expected) << "seed " << seed;
  }
}

}  // namespace
}  // namespace gm::sim
