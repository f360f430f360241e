// The per-host Auctioneer: Tycoon's continuous bid-based spot market.
//
// Each user holds a host-local account (funded from the bank by the
// scheduler agent) and a standing bid: a spend rate in micro-dollars per
// second with a deadline. Every allocation interval (10 s by default,
// paper Section 2.2) the auctioneer
//   1. collects the active bids (funded, before deadline),
//   2. lets the physical host allocate CPU proportionally to bid rates,
//   3. charges each account its rate scaled by the fraction of the granted
//      capacity actually used (Tycoon charges for use, not for bids),
//   4. records the spot price — the sum of active bid rates per unit of
//      host capacity — into the price history, the smoothed window moments
//      and the slot-table distributions that feed the prediction layer.
// Unused balances remain refundable via CloseAccount.
//
// Accounts live in a structure-of-arrays BidTable that keeps the active
// bid sum as a delta-maintained integer: SetBid / Fund / charging /
// CloseAccount adjust it in O(1) and deadline expiry drains lazily from
// a min-heap, so reading the spot price never re-sums the book. See
// bid_table.hpp for the invariant and DESIGN.md §11 for the layout.
#pragma once

#include <atomic>
#include <string>
#include <vector>

#include "common/arena.hpp"
#include "common/concurrency.hpp"
#include "common/status.hpp"
#include "common/units.hpp"
#include "host/host.hpp"
#include "market/bid_table.hpp"
#include "market/price_history.hpp"
#include "market/slot_table.hpp"
#include "market/window_stats.hpp"
#include "sim/kernel.hpp"
#include "telemetry/telemetry.hpp"

namespace gm::market {

/// The re-allocation interval: every auctioneer ticks this often
/// (paper §2.2).
constexpr sim::SimDuration kAuctionInterval = 10 * sim::kSecond;

struct AuctioneerConfig {
  /// Named statistics windows in snapshots (with the 10 s interval:
  /// hour = 360, day = 8640, week = 60480). The longest window's span is
  /// also the price-history retention horizon: it is all the prediction
  /// models can ever read, and it bounds history memory on multi-week
  /// runs.
  std::vector<std::pair<std::string, std::size_t>> stat_windows = {
      {"hour", 360}, {"day", 8640}, {"week", 60480}};
  /// Cross-check the incremental sum against a full re-sum at every
  /// spot-price read. Exact integer comparison — any divergence is a
  /// bug, and GM_ASSERT aborts. Costs O(accounts) per read, so it
  /// defaults on only in debug builds.
#ifndef NDEBUG
  bool verify_incremental = true;
#else
  bool verify_incremental = false;
#endif
};

/// Thread-safe: one mutex (rank kAuctioneer) guards the bid table, the
/// window statistics and the revenue counter, so scheduler agents on
/// other threads can manage accounts while this host's shard ticks.
/// history_ carries its own (higher-rank) lock; the physical host and
/// the sim kernel stay single-owner state of whichever thread drives
/// this auctioneer's ticks. Pointers returned by Moments()/
/// Distribution() stay valid until the next CrashStorageState()/
/// RecoverHistory() — callers must not hold them across a recovery.
class Auctioneer {
 public:
  Auctioneer(host::PhysicalHost& host, sim::Kernel& kernel,
             AuctioneerConfig config = {});
  ~Auctioneer();
  Auctioneer(const Auctioneer&) = delete;
  Auctioneer& operator=(const Auctioneer&) = delete;

  /// Begin the periodic allocation ticks.
  void Start();
  void Stop();

  // -- Account / bid management (called by the scheduler agent) --
  Status OpenAccount(const std::string& user);
  Status Fund(const std::string& user, Money amount);
  Status SetBid(const std::string& user, Rate rate_per_second,
                sim::SimTime deadline);
  /// Close the account and destroy the user's VM; returns the refund.
  Result<Money> CloseAccount(const std::string& user);
  Result<Money> Balance(const std::string& user) const;
  Result<Money> Spent(const std::string& user) const;
  bool HasAccount(const std::string& user) const;

  /// Create (or return) the user's VM on this host; one per user.
  Result<host::VirtualMachine*> AcquireVm(const std::string& user);

  // -- Market information --
  /// Sum of active bid rates right now.
  Rate SpotPriceRate() const;
  /// Spot price without `user`'s own bid — the y_j a best-response or
  /// share-holding agent must bid against. Tracks same-tick bid
  /// removals and deadline expiries exactly: removals subtract from the
  /// maintained sum immediately, and the lazy expiry heap is drained to
  /// `now` before every read.
  Rate SpotPriceRateExcluding(const std::string& user) const;
  /// Spot price per unit of capacity: $/s per cycles/s.
  double PricePerCapacity() const;
  host::PhysicalHost& physical_host() { return host_; }
  const host::PhysicalHost& physical_host() const { return host_; }

  const PriceHistory& history() const { return history_; }
  /// Smoothed moments for a named window ("hour", "day", "week").
  Result<const WindowMoments*> Moments(const std::string& window) const;
  Result<const SlotTable*> Distribution(const std::string& window) const;

  Money total_revenue() const {
    gm::MutexLock lock(&mu_);
    return revenue_;
  }

  /// One allocation round; normally driven by the internal timer.
  void Tick();

  // -- durability (price observations) --
  /// Journal every recorded spot price into `s` (non-owning).
  void AttachStore(store::DurableStore* s) { history_.AttachStore(s); }
  /// Crash simulation: the host's memory — price window and the window
  /// statistics derived from it — is lost.
  void CrashStorageState();
  /// Replay the price journal and warm-start the window statistics and
  /// slot tables from the recovered observations, so forecasters resume
  /// with a full window instead of a cold start.
  Result<store::RecoveryStats> RecoverHistory();

  // -- telemetry --
  /// Count ticks, observe per-tick prices, gauge the latest spot price,
  /// track one-step prediction-vs-realized error (persistence and
  /// hour-window-mean predictors) and emit auction-tick instants for
  /// traced accounts. nullptr detaches.
  void AttachTelemetry(telemetry::Telemetry* telemetry);
  /// Tag `user`'s account with the job trace it is working for.
  Status SetAccountTrace(const std::string& user, telemetry::TraceId trace);

 private:
  std::string VmId(const std::string& user) const;
  void ResetWindowStats() GM_REQUIRES(mu_);
  /// The maintained active-bid sum; the spot price once expiries are
  /// settled up to `now`.
  Rate SettledSpotPriceRateLocked(sim::SimTime now) const GM_REQUIRES(mu_);
  Rate SpotPriceRateLocked(sim::SimTime now) const GM_REQUIRES(mu_);
  /// `spot` per unit of host capacity: $/s per cycles/s.
  double PerCapacity(Rate spot) const;
  /// With verify_incremental: assert active_sum == full re-sum, exactly.
  void VerifyIncrementalLocked(sim::SimTime now) const GM_REQUIRES(mu_);

  host::PhysicalHost& host_;
  sim::Kernel& kernel_;
  const AuctioneerConfig config_;
  mutable gm::Mutex mu_{"market.auctioneer", gm::lockrank::kAuctioneer};
  sim::EventHandle tick_handle_ GM_GUARDED_BY(mu_);
  /// mutable: reads drain the lazy expiry heap to `now` (still under mu_).
  mutable BidTable bids_ GM_GUARDED_BY(mu_);
  /// Per-tick scratch: Reset at the top of Tick, chunks retained, so a
  /// steady market stops heap-allocating after the first round.
  Arena tick_arena_ GM_GUARDED_BY(mu_){4096};
  std::vector<host::AllocationSlice> tick_slices_ GM_GUARDED_BY(mu_);
  PriceHistory history_;  // carries its own lock (rank kPriceHistory)
  std::vector<std::pair<std::string, WindowMoments>> moments_
      GM_GUARDED_BY(mu_);
  std::vector<std::pair<std::string, SlotTable>> distributions_
      GM_GUARDED_BY(mu_);
  Money revenue_ GM_GUARDED_BY(mu_);
  // Attach-once telemetry pointers; relaxed atomics make the handoff
  // race-free without widening mu_'s critical sections.
  std::atomic<telemetry::Telemetry*> telemetry_{nullptr};
  std::atomic<telemetry::Counter*> ticks_ctr_{nullptr};
  std::atomic<telemetry::Summary*> tick_price_{nullptr};
  std::atomic<telemetry::Gauge*> price_gauge_{nullptr};
  std::atomic<telemetry::Summary*> persistence_err_{nullptr};
  std::atomic<telemetry::Summary*> window_mean_err_{nullptr};
  bool has_prev_price_ GM_GUARDED_BY(mu_) = false;
  // Previous tick's price: persistence forecast.
  double prev_price_ GM_GUARDED_BY(mu_) = 0.0;
};

}  // namespace gm::market
