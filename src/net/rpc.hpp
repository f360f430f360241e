// Request/response RPC over the message bus.
//
// The scheduler agent's failure detector pings every host through this
// layer; the market services themselves are linked in process, because
// the scheduler plugin sits next to the broker. Calls carry a correlation id
// and a per-attempt sequence number; the client matches responses,
// enforces timeouts with simulation timers, and retries with exponential
// backoff and deterministic jitter. The transport is therefore
// at-least-once: a request can execute on the server even though the
// response was lost. To make effects exactly-once, the server keeps a
// bounded per-client dedup cache keyed by (source, correlation_id) and
// replays the cached response instead of re-executing the method — so
// a non-idempotent method survives retries without double-applying.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <unordered_map>

#include "common/concurrency.hpp"
#include "net/bus.hpp"
#include "net/serialize.hpp"
#include "telemetry/telemetry.hpp"

namespace gm::net {

struct RpcServerOptions {
  /// Responses remembered per client endpoint for duplicate suppression.
  /// Retries arrive within a handful of in-flight calls of the original,
  /// so a small bound suffices; oldest entries are evicted FIFO.
  std::size_t dedup_capacity_per_client = 128;
};

/// Server side: dispatches named methods. Registering the server claims the
/// endpoint name on the bus.
///
/// Thread-safe: one mutex (rank kRpcServer, below the bus) guards the
/// method table and the dedup cache. The lock is held across method
/// dispatch — a request is an atomic server transaction. The only method
/// the grid registers, the failure detector's "ping", touches no other
/// component; a method that did would have to call only above this rank,
/// as the reply does when it re-enters the bus.
class RpcServer {
 public:
  /// A method consumes request bytes and produces response bytes or an error.
  using Method = std::function<Result<Bytes>(const Bytes& request)>;

  RpcServer(MessageBus& bus, std::string endpoint,
            RpcServerOptions options = {});
  ~RpcServer();
  RpcServer(const RpcServer&) = delete;
  RpcServer& operator=(const RpcServer&) = delete;

  void RegisterMethod(const std::string& name, Method method);
  const std::string& endpoint() const { return endpoint_; }

  /// Count executions/replays into the registry and mark dedup replays of
  /// traced requests as trace instants. nullptr detaches.
  void AttachTelemetry(telemetry::Telemetry* telemetry);

  /// Methods actually executed (cache misses).
  std::uint64_t executions() const {
    gm::MutexLock lock(&mu_);
    return executions_;
  }
  /// Duplicate requests answered from the dedup cache.
  std::uint64_t replays() const {
    gm::MutexLock lock(&mu_);
    return replays_;
  }

 private:
  struct ClientDedup {
    std::unordered_map<std::uint64_t, Bytes> responses;  // cid -> payload
    std::deque<std::uint64_t> order;                     // FIFO eviction
  };

  void HandleEnvelope(const Envelope& envelope);
  void CacheResponse(const std::string& source, std::uint64_t correlation_id,
                     const Bytes& payload) GM_REQUIRES(mu_);

  MessageBus& bus_;
  const std::string endpoint_;
  const RpcServerOptions options_;
  mutable gm::Mutex mu_{"net.rpc.server", gm::lockrank::kRpcServer};
  std::unordered_map<std::string, Method> methods_ GM_GUARDED_BY(mu_);
  std::unordered_map<std::string, ClientDedup> dedup_ GM_GUARDED_BY(mu_);
  std::uint64_t executions_ GM_GUARDED_BY(mu_) = 0;
  std::uint64_t replays_ GM_GUARDED_BY(mu_) = 0;
  // Attach-once telemetry pointers; relaxed atomics make the handoff
  // race-free without a lock.
  std::atomic<telemetry::Telemetry*> telemetry_{nullptr};
  std::atomic<telemetry::Counter*> executions_ctr_{nullptr};
  std::atomic<telemetry::Counter*> replays_ctr_{nullptr};
};

struct CallOptions {
  sim::SimDuration timeout = sim::Seconds(2);
  int max_attempts = 1;  // total attempts including the first
  /// Delay before the k-th retry: min(max_backoff,
  /// initial_backoff * multiplier^(k-1)), jittered deterministically into
  /// [delay/2, delay] so synchronized clients do not retry in lockstep.
  sim::SimDuration initial_backoff = 100 * sim::kMillisecond;
  double backoff_multiplier = 2.0;
  sim::SimDuration max_backoff = sim::Seconds(10);
  /// Causal trace this call belongs to. Carried in every attempt's
  /// envelope; the client opens ONE span for the whole logical call and
  /// bumps its attempt counter on retries, so a retried-then-deduped
  /// request never shows up as two units of work.
  telemetry::TraceId trace = 0;
};

/// Client side: owns a response endpoint and correlates in-flight calls.
/// Destroying the client cancels all pending timers; callbacks of calls
/// still in flight are dropped, never invoked on a dead object.
///
/// Thread-safe: one mutex (rank kRpcClient, the lowest networking rank)
/// guards the pending-call table. User callbacks always run with the
/// lock released — a callback is free to issue the next Call() on this
/// same client.
class RpcClient {
 public:
  using Callback = std::function<void(Result<Bytes>)>;

  RpcClient(MessageBus& bus, std::string endpoint);
  ~RpcClient();
  RpcClient(const RpcClient&) = delete;
  RpcClient& operator=(const RpcClient&) = delete;

  /// Asynchronous call; the callback fires exactly once, with the response
  /// or kDeadlineExceeded after all attempts time out.
  void Call(const std::string& server, const std::string& method,
            Bytes request, CallOptions options, Callback callback);

  const std::string& endpoint() const { return endpoint_; }

  /// Open a span per traced call and record call/retry/timeout counters
  /// plus a completion-latency histogram. nullptr detaches.
  void AttachTelemetry(telemetry::Telemetry* telemetry);

  std::uint64_t timeouts() const {
    gm::MutexLock lock(&mu_);
    return timeouts_;
  }
  std::uint64_t retries() const {
    gm::MutexLock lock(&mu_);
    return retries_;
  }
  /// Responses that arrived after their call completed (late duplicates).
  std::uint64_t stale_responses() const {
    gm::MutexLock lock(&mu_);
    return stale_responses_;
  }

 private:
  struct PendingCall {
    std::string server;
    std::string method;
    Bytes request;
    CallOptions options;
    int attempt = 1;
    Callback callback;
    /// The live timer for this call: the attempt timeout, or the backoff
    /// delay between attempts. Cancelled on completion and in ~RpcClient.
    sim::EventHandle timeout_handle;
    telemetry::SpanId span = 0;  // the one span covering every attempt
    sim::SimTime started = 0;
  };

  /// Touches only attach-once telemetry state; called on calls already
  /// removed from pending_, outside the lock.
  void FinishSpan(const PendingCall& call, bool ok);

  void SendAttempt(std::uint64_t id) GM_REQUIRES(mu_);
  void HandleEnvelope(const Envelope& envelope);
  void HandleTimeout(std::uint64_t id);
  sim::SimDuration BackoffDelay(const PendingCall& call) GM_REQUIRES(mu_);

  MessageBus& bus_;
  const std::string endpoint_;
  mutable gm::Mutex mu_{"net.rpc.client", gm::lockrank::kRpcClient};
  Rng backoff_rng_ GM_GUARDED_BY(mu_);  // backoff jitter
  std::uint64_t next_correlation_id_ GM_GUARDED_BY(mu_) = 1;
  std::uint64_t timeouts_ GM_GUARDED_BY(mu_) = 0;
  std::uint64_t retries_ GM_GUARDED_BY(mu_) = 0;
  std::uint64_t stale_responses_ GM_GUARDED_BY(mu_) = 0;
  std::unordered_map<std::uint64_t, PendingCall> pending_ GM_GUARDED_BY(mu_);
  // Attach-once telemetry pointers; relaxed atomics make the handoff
  // race-free without a lock.
  std::atomic<telemetry::Telemetry*> telemetry_{nullptr};
  std::atomic<telemetry::Counter*> calls_ctr_{nullptr};
  std::atomic<telemetry::Counter*> retries_ctr_{nullptr};
  std::atomic<telemetry::Counter*> timeouts_ctr_{nullptr};
  std::atomic<telemetry::LatencyHistogram*> latency_hist_{nullptr};
};

/// Helpers for encoding Status into RPC response payloads. A malformed
/// status on the wire decodes to an error status itself.
void WriteStatus(Writer& writer, const Status& status);
Status ReadStatus(Reader& reader);

}  // namespace gm::net
