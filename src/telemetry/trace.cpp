#include "telemetry/trace.hpp"

#include <algorithm>

#include "common/status.hpp"

namespace gm::telemetry {

const char* SpanStatusName(SpanStatus status) {
  switch (status) {
    case SpanStatus::kOpen: return "open";
    case SpanStatus::kOk: return "ok";
    case SpanStatus::kError: return "error";
  }
  return "?";
}

Tracer::Tracer(std::size_t capacity) : capacity_(capacity) {
  GM_ASSERT(capacity_ > 0, "tracer ring needs capacity");
  ring_.resize(capacity_);
}

SpanEvent& Tracer::Push(SpanEvent event) {
  const std::size_t slot = head_;
  if (size_ == capacity_) {
    // Evicting an open span orphans it: EndSpan must not resurrect the
    // slot after someone else's event moved in.
    open_.erase(ring_[slot].id);
    ++dropped_;
  } else {
    ++size_;
  }
  ring_[slot] = std::move(event);
  head_ = (head_ + 1) % capacity_;
  return ring_[slot];
}

SpanEvent* Tracer::Find(SpanId span) {
  const auto it = open_.find(span);
  if (it == open_.end()) return nullptr;
  return &ring_[it->second];
}

SpanId Tracer::BeginSpan(TraceId trace, std::string name, std::string detail,
                         sim::SimTime now) {
  gm::MutexLock lock(&mu_);
  SpanEvent event;
  event.id = next_span_++;
  event.trace = trace;
  event.name = std::move(name);
  event.detail = std::move(detail);
  event.start = now;
  const std::size_t slot = head_;
  Push(std::move(event));
  open_.emplace(ring_[slot].id, slot);
  return ring_[slot].id;
}

void Tracer::EndSpan(SpanId span, sim::SimTime now, SpanStatus status) {
  gm::MutexLock lock(&mu_);
  SpanEvent* event = Find(span);
  if (event == nullptr) return;  // evicted or already ended
  event->end = now;
  event->status = status;
  open_.erase(span);
}

void Tracer::Instant(TraceId trace, std::string name, std::string detail,
                     sim::SimTime now, double value) {
  gm::MutexLock lock(&mu_);
  SpanEvent event;
  event.id = next_span_++;
  event.trace = trace;
  event.name = std::move(name);
  event.detail = std::move(detail);
  event.start = now;
  event.end = now;
  event.status = SpanStatus::kOk;
  event.instant = true;
  event.value = value;
  Push(std::move(event));
}

std::vector<SpanEvent> Tracer::AllEvents() const {
  gm::MutexLock lock(&mu_);
  return AllEventsLocked();
}

std::vector<SpanEvent> Tracer::AllEventsLocked() const {
  std::vector<SpanEvent> events;
  events.reserve(size_);
  // Oldest element sits at head_ when the ring is full, else at 0.
  const std::size_t first = size_ == capacity_ ? head_ : 0;
  for (std::size_t i = 0; i < size_; ++i)
    events.push_back(ring_[(first + i) % capacity_]);
  return events;
}

std::vector<SpanEvent> Tracer::EventsFor(TraceId trace) const {
  std::vector<SpanEvent> events;
  {
    gm::MutexLock lock(&mu_);
    events = AllEventsLocked();
  }
  events.erase(std::remove_if(events.begin(), events.end(),
                              [trace](const SpanEvent& e) {
                                return e.trace != trace;
                              }),
               events.end());
  std::stable_sort(events.begin(), events.end(),
                   [](const SpanEvent& a, const SpanEvent& b) {
                     return a.start != b.start ? a.start < b.start
                                               : a.id < b.id;
                   });
  return events;
}

}  // namespace gm::telemetry
