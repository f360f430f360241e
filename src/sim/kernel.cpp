#include "sim/kernel.hpp"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace gm::sim {

std::string FormatTime(SimTime t) {
  const bool negative = t < 0;
  if (negative) t = -t;
  const std::int64_t total_ms = t / kMillisecond;
  const std::int64_t ms = total_ms % 1000;
  const std::int64_t total_s = total_ms / 1000;
  const std::int64_t s = total_s % 60;
  const std::int64_t m = (total_s / 60) % 60;
  const std::int64_t h = (total_s / 3600) % 24;
  const std::int64_t d = total_s / 86400;
  char buffer[64];
  if (d > 0) {
    std::snprintf(buffer, sizeof(buffer), "%s%lldd %02lld:%02lld:%02lld.%03lld",
                  negative ? "-" : "", static_cast<long long>(d),
                  static_cast<long long>(h), static_cast<long long>(m),
                  static_cast<long long>(s), static_cast<long long>(ms));
  } else {
    std::snprintf(buffer, sizeof(buffer), "%s%02lld:%02lld:%02lld.%03lld",
                  negative ? "-" : "", static_cast<long long>(h),
                  static_cast<long long>(m), static_cast<long long>(s),
                  static_cast<long long>(ms));
  }
  return buffer;
}

EventHandle Kernel::Add(SimTime at, SimDuration period, Callback callback) {
  GM_ASSERT(callback != nullptr, "null callback");
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(generation_.size());
    generation_.push_back(1);
    events_.emplace_back();
  }
  Event& event = events_[slot];
  event.callback = std::move(callback);
  event.period = period;
  ++live_events_;
  Push(at, slot);
  return EventHandle{(std::uint64_t{generation_[slot]} << 32) | slot};
}

EventHandle Kernel::ScheduleAt(SimTime at, Callback callback) {
  GM_ASSERT(at >= now_, "ScheduleAt in the past");
  return Add(at, 0, std::move(callback));
}

EventHandle Kernel::ScheduleAfter(SimDuration delay, Callback callback) {
  GM_ASSERT(delay >= 0, "negative delay");
  return ScheduleAt(now_ + delay, std::move(callback));
}

EventHandle Kernel::ScheduleEvery(SimDuration initial_delay,
                                  SimDuration period, Callback callback) {
  GM_ASSERT(initial_delay >= 0, "negative initial delay");
  GM_ASSERT(period > 0, "non-positive period");
  return Add(now_ + initial_delay, period, std::move(callback));
}

bool Kernel::Cancel(EventHandle handle) {
  const auto slot = static_cast<std::uint32_t>(handle.id);
  const auto generation = static_cast<std::uint32_t>(handle.id >> 32);
  // Generation 0 is never handed out; it marks a slot retired for good.
  if (generation == 0 || slot >= generation_.size() ||
      generation_[slot] != generation)
    return false;
  Retire(slot);
  // A timer cancelled from inside its own callback is released by FireTop
  // once the callback returns.
  if (!events_[slot].running) Release(slot);
  return true;
}

void Kernel::Push(SimTime at, std::uint32_t slot) {
  std::uint32_t node;
  if (free_node_ != kNoNode) {
    node = free_node_;
    free_node_ = nodes_[node].next;
  } else {
    node = static_cast<std::uint32_t>(nodes_.size());
    nodes_.emplace_back();
  }
  nodes_[node] = Node{slot, generation_[slot], kNoNode};
  const std::uint64_t seq = next_seq_++;
  // Appending keeps (time, seq) order: the latest instant holds the
  // highest sequence numbers at its time.
  if (tail_ != kNoNode && at == tail_at_) {
    nodes_[tail_].next = node;
  } else {
    instants_.push_back(Instant{at, seq, node});
    std::push_heap(instants_.begin(), instants_.end(), InstantLater{});
    tail_at_ = at;
  }
  tail_ = node;
}

void Kernel::Retire(std::uint32_t slot) {
  ++generation_[slot];
  --live_events_;
}

void Kernel::Release(std::uint32_t slot) {
  events_[slot].callback = nullptr;
  // A slot whose generation wrapped to 0 is never reused, so no handle
  // or queued node ever made for it matches again.
  if (generation_[slot] != 0) free_slots_.push_back(slot);
}

Kernel::Node Kernel::PopHead() {
  Instant& top = instants_.front();
  const std::uint32_t index = top.head;
  const Node node = nodes_[index];
  if (node.next != kNoNode) {
    top.head = node.next;
  } else {
    // Once the latest instant is empty, a push at its time starts a new
    // instant.
    if (tail_ == index) tail_ = kNoNode;
    std::pop_heap(instants_.begin(), instants_.end(), InstantLater{});
    instants_.pop_back();
  }
  nodes_[index].next = free_node_;
  free_node_ = index;
  return node;
}

bool Kernel::SkipCancelled() {
  while (!instants_.empty()) {
    const Node& head = nodes_[instants_.front().head];
    if (generation_[head.slot] == head.generation) return true;
    PopHead();
  }
  return false;
}

void Kernel::FireTop() {
  const SimTime at = instants_.front().at;
  const Node node = PopHead();
  GM_ASSERT(at >= now_, "event queue time went backwards");
  now_ = at;
  Event& event = events_[node.slot];
  // A one-shot event ends before its callback runs: cancelling it from
  // inside returns false and pending_events() no longer counts it.
  if (event.period > 0) {
    Push(now_ + event.period, node.slot);
  } else {
    Retire(node.slot);
  }
  // Called in place: the deque never moves `event`, and the slot is not
  // reused until it is released below.
  event.running = true;
  event.callback();
  event.running = false;
  if (generation_[node.slot] != node.generation) Release(node.slot);
}

std::size_t Kernel::Run() {
  std::size_t fired = 0;
  while (SkipCancelled()) {
    FireTop();
    ++fired;
  }
  return fired;
}

std::size_t Kernel::RunUntil(SimTime deadline) {
  GM_ASSERT(deadline >= now_, "RunUntil in the past");
  std::size_t fired = 0;
  while (SkipCancelled() && instants_.front().at <= deadline) {
    FireTop();
    ++fired;
  }
  now_ = deadline;
  return fired;
}

bool Kernel::Step() {
  if (!SkipCancelled()) return false;
  FireTop();
  return true;
}

}  // namespace gm::sim
