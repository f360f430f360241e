// Discrete-event simulation kernel.
//
// Events fire in (time, sequence number) order: events at the same
// instant fire in scheduling order, which makes whole experiments
// deterministic. Events are plain callbacks; repeating timers reschedule
// themselves until cancelled.
//
// The queue is a binary heap of *instants*, not of events. Each instant
// holds a FIFO list of entries at one time, and a push at the same time
// as the most recent push appends to that instant's list, so timers
// that share a period and a phase (every host's auction tick) pay one
// heap push and one pop per instant between them. Every push starts a
// new instant or extends the latest one, so the instants cover
// consecutive runs of sequence numbers; a time can have several
// instants, and the heap orders them by (time, first sequence number).
// List nodes come from a pool with a free list.
//
// Events live in a slot array. Each slot has a generation counter that is
// bumped whenever its event ends (fired one-shot or cancelled), and a handle
// encodes (slot, generation); so does every list node. A stale handle or a
// cancelled node is therefore recognised by one array read, and
// cancellation is O(1): the node is discarded lazily when it surfaces.
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
  static constexpr std::uint32_t kNoNode = 0xffffffff;
  /// One scheduled firing of a slot's event, in its instant's list.
  struct Node {
    std::uint32_t slot;
    std::uint32_t generation;
    std::uint32_t next;  // kNoNode at the list's tail (or the free list's)
  };
  /// The entries of one run of pushes at one time, oldest first.
  struct Instant {
    SimTime at;
    std::uint64_t first_seq;
    std::uint32_t head;
  };
  struct InstantLater {
    bool operator()(const Instant& a, const Instant& b) const {
      if (a.at != b.at) return a.at > b.at;
      return a.first_seq > b.first_seq;
    }
  };
  struct Event {
    Callback callback;
    SimDuration period = 0;  // 0 => one-shot
    bool running = false;    // inside its own callback
  };

  EventHandle Add(SimTime at, SimDuration period, Callback callback);
  void Push(SimTime at, std::uint32_t slot);
  /// Ends the slot's event: stale handles and queued nodes stop matching.
  void Retire(std::uint32_t slot);
  void Release(std::uint32_t slot);
  /// Unlinks the earliest instant's head node, popping the instant once
  /// its list is empty, and returns the node to the pool.
  Node PopHead();
  /// Discards cancelled nodes; false once the queue is empty.
  bool SkipCancelled();
  /// Fires the earliest instant's head node, which SkipCancelled found
  /// live.
  void FireTop();

  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::size_t live_events_ = 0;
  /// Min-heap (by InstantLater) of the instants that have entries.
  std::vector<Instant> instants_;
  std::vector<Node> nodes_;
  std::uint32_t free_node_ = kNoNode;
  /// Tail node of the most recently pushed-to instant while that instant
  /// is queued, else kNoNode; a push at `tail_at_` appends after it.
  std::uint32_t tail_ = kNoNode;
  SimTime tail_at_ = 0;
  /// Current generation per slot; a node or handle matches only while
  /// its event is pending. Starts at 1, so no handle id is 0; 0 marks a
  /// slot retired after 2^32 events.
  std::vector<std::uint32_t> generation_;
  std::deque<Event> events_;  // parallel to generation_
  std::vector<std::uint32_t> free_slots_;
};

}  // namespace gm::sim
