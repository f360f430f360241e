// Simulated message bus.
//
// Stands in for the Grid's TCP/IP fabric: endpoints register by name,
// messages are serialized, delayed by a configurable latency model
// (base + uniform jitter) and optionally dropped. Delivery happens as
// simulation events, so multi-service protocols (bank transfers, bid
// placement, job submission) interleave realistically and deterministically.
//
// Fault injection (see net/fault.hpp): tests can partition individual
// links, crash and later restart endpoints, and open burst-loss windows.
// Every lost message is accounted for, so at any instant
//   sent == delivered + dropped + undeliverable + in_flight.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/concurrency.hpp"
#include "common/rng.hpp"
#include "common/status.hpp"
#include "net/fault.hpp"
#include "net/message.hpp"
#include "sim/kernel.hpp"
#include "telemetry/telemetry.hpp"

namespace gm::net {

struct LatencyModel {
  sim::SimDuration base = sim::kMillisecond;     // one-way latency floor
  sim::SimDuration jitter = 0;                   // uniform in [0, jitter]
  double drop_probability = 0.0;                 // silent loss

  static LatencyModel Lan() { return {200 * sim::kMicrosecond, 100 * sim::kMicrosecond, 0.0}; }
  static LatencyModel Lossy(double p) { return {sim::kMillisecond, sim::kMillisecond, p}; }
};

struct BusStats {
  std::uint64_t sent = 0;
  std::uint64_t delivered = 0;
  std::uint64_t dropped = 0;        // loss model, burst windows, partitions
  std::uint64_t undeliverable = 0;  // destination unknown at delivery time
  std::uint64_t in_flight = 0;      // enqueued, not yet delivered/lost
  std::uint64_t bytes_sent = 0;     // bytes that actually entered the wire
  std::uint64_t bytes_dropped = 0;  // bytes of messages lost before delivery

  /// Every message ends in exactly one bucket (or is still in flight).
  bool Reconciles() const {
    return sent == delivered + dropped + undeliverable + in_flight;
  }
};

/// Thread-safe: one mutex (rank kBus) guards the endpoint tables, the
/// fault state, the RNG and the statistics. Delivery copies the handler
/// and invokes it with the bus lock released, so handlers may re-enter
/// Send() (every RPC server does). The sim kernel itself is owned by
/// whichever phase of the runner is advancing time.
class MessageBus {
 public:
  using Handler = std::function<void(const Envelope&)>;

  MessageBus(sim::Kernel& kernel, LatencyModel latency, std::uint64_t seed);

  /// Register a named endpoint. Fails if the name is taken.
  Status RegisterEndpoint(const std::string& name, Handler handler);
  Status UnregisterEndpoint(const std::string& name);
  bool HasEndpoint(const std::string& name) const;

  /// Serialize and enqueue; the envelope is delivered (or dropped) after
  /// the modelled latency. Unknown destinations are detected at delivery
  /// time, like a real network.
  void Send(Envelope envelope);

  // -- Fault injection primitives (scripted via net/fault.hpp) --

  /// Block traffic a <-> b (both directions). Messages entering a blocked
  /// link count as dropped. Idempotent.
  void PartitionLink(const std::string& a, const std::string& b);
  void HealLink(const std::string& a, const std::string& b);
  bool LinkBlocked(const std::string& from, const std::string& to) const;

  /// Simulate an endpoint host crash: the handler is removed (messages in
  /// flight to it become undeliverable) but remembered for RestartEndpoint.
  Status CrashEndpoint(const std::string& name);
  Status RestartEndpoint(const std::string& name);
  bool EndpointCrashed(const std::string& name) const;

  /// Elevated loss inside [window.from, window.to); the effective drop
  /// probability of a send is the max over the base model and all windows
  /// active at send time.
  void AddLossWindow(const LossWindow& window);

  /// By value: the bus lock is released before the caller looks at it.
  BusStats stats() const {
    gm::MutexLock lock(&mu_);
    return stats_;
  }
  sim::Kernel& kernel() { return kernel_; }

  /// Enable live instrumentation (message-size and modelled-latency
  /// histograms, partition-drop counter). nullptr detaches; when detached
  /// the hot path pays one branch per send and nothing else.
  void AttachTelemetry(telemetry::Telemetry* telemetry);

 private:
  void Deliver(const Bytes& wire);
  bool LinkBlockedLocked(const std::string& from, const std::string& to) const
      GM_REQUIRES(mu_);
  double DropProbabilityNow() const GM_REQUIRES(mu_);

  sim::Kernel& kernel_;
  const LatencyModel latency_;
  mutable gm::Mutex mu_{"net.bus", gm::lockrank::kBus};
  Rng rng_ GM_GUARDED_BY(mu_);
  std::unordered_map<std::string, Handler> endpoints_ GM_GUARDED_BY(mu_);
  // name -> saved handler
  std::unordered_map<std::string, Handler> crashed_ GM_GUARDED_BY(mu_);
  // directed
  std::set<std::pair<std::string, std::string>> blocked_links_
      GM_GUARDED_BY(mu_);
  std::vector<LossWindow> loss_windows_ GM_GUARDED_BY(mu_);
  BusStats stats_ GM_GUARDED_BY(mu_);
  // Cached metric pointers, non-null only while telemetry is attached;
  // relaxed atomics make the attach/detach handoff race-free.
  std::atomic<telemetry::LatencyHistogram*> bytes_hist_{nullptr};
  std::atomic<telemetry::LatencyHistogram*> latency_hist_{nullptr};
  std::atomic<telemetry::Counter*> partition_drops_{nullptr};
};

}  // namespace gm::net
