// Discrete-event simulation kernel.
//
// A binary-heap event queue keyed by (time, sequence number): events at the
// same instant fire in scheduling order, which makes whole experiments
// deterministic. Events are plain callbacks; repeating timers reschedule
// themselves until cancelled.
//
// Events live in a slot array. Each slot has a generation counter that is
// bumped whenever its event ends (fired one-shot or cancelled), and a handle
// encodes (slot, generation); so does every heap entry. A stale handle or a
// cancelled heap entry is therefore recognised by one array read, and
// cancellation is O(1): the heap entry is discarded lazily when it surfaces.
// A slot whose generation wraps to 0 is retired for good, so a generation
// is never handed out twice.
// Callbacks sit in a deque, whose elements never move, so a repeating
// callback is invoked in place even while it schedules new events; a timer
// that cancels itself from its own callback is released once the callback
// returns.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <queue>
#include <vector>

#include "common/status.hpp"
#include "sim/time.hpp"

namespace gm::sim {

/// Opaque handle identifying a scheduled (possibly repeating) event.
struct EventHandle {
  std::uint64_t id = 0;
  bool valid() const { return id != 0; }
};

class Kernel {
 public:
  using Callback = std::function<void()>;

  Kernel() = default;
  Kernel(const Kernel&) = delete;
  Kernel& operator=(const Kernel&) = delete;

  SimTime now() const { return now_; }

  /// Schedule a one-shot callback at absolute time `at` (>= now).
  EventHandle ScheduleAt(SimTime at, Callback callback);
  /// Schedule a one-shot callback after `delay` (>= 0).
  EventHandle ScheduleAfter(SimDuration delay, Callback callback);
  /// Schedule a repeating callback every `period` (> 0), first firing after
  /// `initial_delay`.
  EventHandle ScheduleEvery(SimDuration initial_delay, SimDuration period,
                            Callback callback);

  /// Cancel a pending event. Safe to call from inside callbacks, with stale
  /// handles, and on already-fired one-shot events (returns false).
  bool Cancel(EventHandle handle);

  /// Run until the queue is empty. Returns the number of events fired.
  std::size_t Run();
  /// Run until simulated time would exceed `deadline`; the clock is advanced
  /// to `deadline` on return. Returns the number of events fired.
  std::size_t RunUntil(SimTime deadline);
  /// Fire at most one event. Returns false if the queue was empty.
  bool Step();

  std::size_t pending_events() const { return live_events_; }

 private:
  struct Entry {
    SimTime at;
    std::uint64_t seq;
    std::uint32_t slot;
    std::uint32_t generation;
  };
  struct EntryLater {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.at != b.at) return a.at > b.at;
      return a.seq > b.seq;
    }
  };
  struct Event {
    Callback callback;
    SimDuration period = 0;  // 0 => one-shot
    bool running = false;    // inside its own callback
  };

  EventHandle Add(SimTime at, SimDuration period, Callback callback);
  void Push(SimTime at, std::uint32_t slot);
  /// Ends the slot's event: stale handles and heap entries stop matching.
  void Retire(std::uint32_t slot);
  void Release(std::uint32_t slot);
  /// Discards cancelled entries; false once the queue is empty.
  bool SkipCancelled();
  /// Fires the queue's top entry, which SkipCancelled found live.
  void FireTop();

  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::size_t live_events_ = 0;
  std::priority_queue<Entry, std::vector<Entry>, EntryLater> queue_;
  /// Current generation per slot; an entry or handle matches only while
  /// its event is pending. Starts at 1, so no handle id is 0; 0 marks a
  /// slot retired after 2^32 events.
  std::vector<std::uint32_t> generation_;
  std::deque<Event> events_;  // parallel to generation_
  std::vector<std::uint32_t> free_slots_;
};

}  // namespace gm::sim
