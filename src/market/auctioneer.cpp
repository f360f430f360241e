#include "market/auctioneer.hpp"

#include <algorithm>
#include <cmath>

#include "common/log.hpp"

namespace gm::market {

namespace {

/// Price-distribution slot count per statistics window.
constexpr std::size_t kDistributionSlots = 20;
// Initial slot-table coverage in $/s per cycles/s. Spot prices in a
// lightly loaded market sit around 1e-16..1e-13 on 3 GHz hosts; start
// fine-grained and let the table self-expand (doubling brackets) when
// busier regimes push prices up.
constexpr double kDistributionInitialMax = 1e-15;

}  // namespace

Auctioneer::Auctioneer(host::PhysicalHost& host, sim::Kernel& kernel,
                       AuctioneerConfig config)
    : host_(host), kernel_(kernel), config_(std::move(config)) {
  // Not yet published to other threads; the lock purely satisfies the
  // static analysis on ResetWindowStats.
  gm::MutexLock lock(&mu_);
  ResetWindowStats();
  // Bound memory at the longest span the prediction layer can read.
  std::size_t longest = 0;
  for (const auto& [name, n] : config_.stat_windows)
    longest = std::max(longest, n);
  if (longest > 0)
    history_.SetRetention(static_cast<sim::SimDuration>(longest) *
                          kAuctionInterval);
}

void Auctioneer::ResetWindowStats() {
  moments_.clear();
  distributions_.clear();
  for (const auto& [name, n] : config_.stat_windows) {
    moments_.emplace_back(name, WindowMoments(n));
    distributions_.emplace_back(
        name, SlotTable(n, kDistributionSlots, kDistributionInitialMax));
  }
}

void Auctioneer::CrashStorageState() {
  gm::MutexLock lock(&mu_);
  history_.Clear();  // lock order auctioneer -> price_history
  ResetWindowStats();
}

Result<store::RecoveryStats> Auctioneer::RecoverHistory() {
  gm::MutexLock lock(&mu_);
  GM_ASSIGN_OR_RETURN(const store::RecoveryStats stats,
                      history_.RecoverFromStore());
  ResetWindowStats();
  for (std::size_t i = 0; i < history_.size(); ++i) {
    const double price = history_.at(i).price;
    for (auto& [name, moments] : moments_) moments.Add(price);
    for (auto& [name, table] : distributions_) table.Add(price);
  }
  return stats;
}

Auctioneer::~Auctioneer() { Stop(); }

void Auctioneer::Start() {
  gm::MutexLock lock(&mu_);
  GM_ASSERT(!tick_handle_.valid(), "auctioneer already started");
  tick_handle_ = kernel_.ScheduleEvery(kAuctionInterval, kAuctionInterval,
                                       [this] { Tick(); });
}

void Auctioneer::Stop() {
  gm::MutexLock lock(&mu_);
  if (tick_handle_.valid()) {
    kernel_.Cancel(tick_handle_);
    tick_handle_ = {};
  }
}

std::string Auctioneer::VmId(const std::string& user) const {
  return host_.id() + "/" + user;
}

Status Auctioneer::OpenAccount(const std::string& user) {
  if (user.empty()) return Status::InvalidArgument("empty user");
  gm::MutexLock lock(&mu_);
  if (bids_.Find(user) != BidTable::kNoSlot)
    return Status::AlreadyExists("account exists on host " + host_.id() +
                                 ": " + user);
  bids_.Add(user, VmId(user));
  return Status::Ok();
}

Status Auctioneer::Fund(const std::string& user, Money amount) {
  if (!amount.is_positive())
    return Status::InvalidArgument("funding must be > 0");
  gm::MutexLock lock(&mu_);
  const BidTable::Slot s = bids_.Find(user);
  if (s == BidTable::kNoSlot) return Status::NotFound("account: " + user);
  // May re-activate a drained account's standing bid, which pushes a
  // fresh expiry-heap entry so the deadline still fires.
  bids_.AddBalance(s, amount.micros(), kernel_.now());
  return Status::Ok();
}

Status Auctioneer::SetBid(const std::string& user, Rate rate_per_second,
                          sim::SimTime deadline) {
  if (rate_per_second < Rate::Zero())
    return Status::InvalidArgument("bid rate must be >= 0");
  gm::MutexLock lock(&mu_);
  const BidTable::Slot s = bids_.Find(user);
  if (s == BidTable::kNoSlot) return Status::NotFound("account: " + user);
  // Quantize to the ledger's micro-dollar/s grid: charging and spot-price
  // sums stay exact integers regardless of what the optimizer produced.
  // The table absorbs the rate delta into the active sum in O(1).
  bids_.SetBid(s, rate_per_second.micros_per_sec(), deadline, kernel_.now());
  return Status::Ok();
}

Result<Money> Auctioneer::CloseAccount(const std::string& user) {
  gm::MutexLock lock(&mu_);
  const BidTable::Slot s = bids_.Find(user);
  if (s == BidTable::kNoSlot) return Status::NotFound("account: " + user);
  const Money refund = bids_.balance(s);
  // Deliberate discard: the account may never have acquired a VM, so a
  // NotFound from DestroyVm is expected here.
  // The only VM bound to slot `s` is the one AcquireVm made, so it goes
  // before the slot is recycled.
  (void)host_.DestroyVm(bids_.cold(s).vm_id);
  // Remove deactivates the bid: the spot price drops this instant, not
  // at the next tick's re-sum.
  bids_.Remove(s);
  return refund;
}

Result<Money> Auctioneer::Balance(const std::string& user) const {
  gm::MutexLock lock(&mu_);
  const BidTable::Slot s = bids_.Find(user);
  if (s == BidTable::kNoSlot) return Status::NotFound("account: " + user);
  return bids_.balance(s);
}

Result<Money> Auctioneer::Spent(const std::string& user) const {
  gm::MutexLock lock(&mu_);
  const BidTable::Slot s = bids_.Find(user);
  if (s == BidTable::kNoSlot) return Status::NotFound("account: " + user);
  return bids_.cold(s).spent;
}

bool Auctioneer::HasAccount(const std::string& user) const {
  gm::MutexLock lock(&mu_);
  return bids_.Find(user) != BidTable::kNoSlot;
}

Result<host::VirtualMachine*> Auctioneer::AcquireVm(const std::string& user) {
  gm::MutexLock lock(&mu_);
  const BidTable::Slot s = bids_.Find(user);
  if (s == BidTable::kNoSlot)
    return Status::FailedPrecondition("open an account before acquiring a VM");
  const std::string& vm_id = bids_.cold(s).vm_id;
  Result<host::VirtualMachine*> existing = host_.GetVm(vm_id);
  if (existing.ok()) return existing;
  GM_ASSIGN_OR_RETURN(host::VirtualMachine* vm,
                      host_.CreateVm(vm_id, user, kernel_.now()));
  // Bound once here, so the tick reads the slot instead of hashing the
  // owner's name twice per VM.
  vm->BindMarketSlot(s);
  return vm;
}

void Auctioneer::VerifyIncrementalLocked(sim::SimTime now) const {
  if (!config_.verify_incremental) return;
  // Exact integer comparison — both sides live on the micro-dollar/s
  // grid, so any difference at all is a maintenance bug.
  GM_ASSERT(bids_.active_sum_micros() == bids_.FullResumMicros(now),
            "incremental spot price diverged from full re-sum");
}

Rate Auctioneer::SettledSpotPriceRateLocked(sim::SimTime now) const {
  VerifyIncrementalLocked(now);
  return Rate::MicrosPerSec(bids_.active_sum_micros());
}

Rate Auctioneer::SpotPriceRateLocked(sim::SimTime now) const {
  // Settle deadline expiries up to `now`, then the maintained sum IS the
  // spot price — no walk over the book.
  bids_.ExpireUntil(now);
  return SettledSpotPriceRateLocked(now);
}

Rate Auctioneer::SpotPriceRate() const {
  gm::MutexLock lock(&mu_);
  return SpotPriceRateLocked(kernel_.now());
}

Rate Auctioneer::SpotPriceRateExcluding(const std::string& user) const {
  gm::MutexLock lock(&mu_);
  const sim::SimTime now = kernel_.now();
  // Settling expiries first also fixes the exclusion itself: if `user`'s
  // own bid lapsed this tick its active flag clears here, so it is not
  // subtracted from a sum it no longer contributes to.
  bids_.ExpireUntil(now);
  VerifyIncrementalLocked(now);
  const BidTable::Slot s = bids_.Find(user);
  const Micros own = s == BidTable::kNoSlot ? 0 : bids_.active_rate_micros(s);
  return Rate::MicrosPerSec(bids_.active_sum_micros() - own);
}

double Auctioneer::PerCapacity(Rate spot) const {
  return spot.dollars_per_sec() / host_.TotalCapacity();
}

double Auctioneer::PricePerCapacity() const {
  gm::MutexLock lock(&mu_);
  return PerCapacity(SpotPriceRateLocked(kernel_.now()));
}

Result<const WindowMoments*> Auctioneer::Moments(
    const std::string& window) const {
  gm::MutexLock lock(&mu_);
  for (const auto& [name, moments] : moments_) {
    if (name == window) return &moments;
  }
  return Status::NotFound("stats window: " + window);
}

Result<const SlotTable*> Auctioneer::Distribution(
    const std::string& window) const {
  gm::MutexLock lock(&mu_);
  for (const auto& [name, table] : distributions_) {
    if (name == window) return &table;
  }
  return Status::NotFound("distribution window: " + window);
}

void Auctioneer::AttachTelemetry(telemetry::Telemetry* telemetry) {
  telemetry_.store(telemetry, std::memory_order_relaxed);
  if (telemetry == nullptr) {
    ticks_ctr_.store(nullptr, std::memory_order_relaxed);
    tick_price_.store(nullptr, std::memory_order_relaxed);
    price_gauge_.store(nullptr, std::memory_order_relaxed);
    persistence_err_.store(nullptr, std::memory_order_relaxed);
    window_mean_err_.store(nullptr, std::memory_order_relaxed);
    return;
  }
  telemetry::MetricsRegistry& metrics = telemetry->metrics();
  ticks_ctr_.store(metrics.GetCounter("market.auction.ticks"),
                   std::memory_order_relaxed);
  tick_price_.store(metrics.GetSummary("market.auction.tick_price"),
                    std::memory_order_relaxed);
  price_gauge_.store(
      metrics.GetGauge("market." + host_.id() + ".price_per_cap"),
      std::memory_order_relaxed);
  persistence_err_.store(metrics.GetSummary("predict.persistence.abs_err"),
                         std::memory_order_relaxed);
  window_mean_err_.store(metrics.GetSummary("predict.window_mean.abs_err"),
                         std::memory_order_relaxed);
}

Status Auctioneer::SetAccountTrace(const std::string& user,
                                   telemetry::TraceId trace) {
  gm::MutexLock lock(&mu_);
  const BidTable::Slot s = bids_.Find(user);
  if (s == BidTable::kNoSlot) return Status::NotFound("no account: " + user);
  bids_.cold(s).trace = trace;
  return Status::Ok();
}

// gmlint: hotpath
void Auctioneer::Tick() {
  // One lock for the whole round: an allocation tick is an atomic market
  // transaction. Inner calls ascend in rank only (history kPriceHistory,
  // metrics kMetric, tracer kTracer are all above kAuctioneer).
  gm::MutexLock lock(&mu_);
  const sim::SimTime now = kernel_.now();
  const sim::SimTime interval_start = now - kAuctionInterval;
  const double dt_seconds = sim::ToSeconds(kAuctionInterval);

  bids_.ExpireUntil(now);
  tick_arena_.Reset();

  // 1-2. Allocate and run the interval that just elapsed. A bid earns a
  // share if it was active at any point of the interval; with rate and
  // balance only changing under this lock, that is exactly
  //   rate > 0 && balance > 0 && deadline > interval_start
  // (the union of active-at-interval-start and active-now).
  host_.AdvanceInterval(
      interval_start, kAuctionInterval,
      [&](const host::VirtualMachine& vm) -> double {
        // A VM made on the host directly has no slot: no share.
        const BidTable::Slot s = vm.market_slot();
        if (s == BidTable::kNoSlot) return 0.0;
        if (bids_.rate_micros(s) <= 0 || bids_.balance_micros(s) <= 0 ||
            bids_.deadline(s) <= interval_start)
          return 0.0;
        return static_cast<double>(bids_.rate_micros(s));
      },
      tick_arena_, tick_slices_);

  // 3. Charge for actual use: rate * dt * used_fraction, capped by balance.
  // A charge that drains the balance deactivates the bid through the
  // table, keeping the maintained sum honest.
  for (const host::AllocationSlice& slice : tick_slices_) {
    const BidTable::Slot s = slice.vm->market_slot();
    if (s == BidTable::kNoSlot) continue;
    const Rate rate = Rate::MicrosPerSec(bids_.rate_micros(s));
    const Money cost =
        Min(ChargeFor(rate, dt_seconds, slice.used_fraction), bids_.balance(s));
    bids_.AddBalance(s, -cost.micros(), now);
    AccountCold& cold = bids_.cold(s);
    cold.spent += cost;
    revenue_ += cost;
    auto* telemetry = telemetry_.load(std::memory_order_relaxed);
    if (telemetry != nullptr && cold.trace != 0 && cost.is_positive()) {
      telemetry->tracer().Instant(cold.trace, "auction-tick",
                                  "host=" + host_.id() + " user=" + cold.user,
                                  now, cost.dollars());
    }
  }

  // 4. Record the spot price for the prediction layer. Expiries were
  // settled above and charging only deactivates bids, so the maintained
  // sum already is the spot price at `now`.
  const double price = PerCapacity(SettledSpotPriceRateLocked(now));
  if (telemetry_.load(std::memory_order_relaxed) != nullptr) {
    ticks_ctr_.load(std::memory_order_relaxed)->Inc();
    tick_price_.load(std::memory_order_relaxed)->Observe(price);
    price_gauge_.load(std::memory_order_relaxed)->Set(price);
    // One-step-ahead prediction error realized this tick: what the two
    // reference predictors (persistence and smoothed hour-window mean)
    // would have forecast from the history excluding this observation.
    if (has_prev_price_)
      persistence_err_.load(std::memory_order_relaxed)
          ->Observe(std::fabs(price - prev_price_));
    if (!moments_.empty() && moments_.front().second.count() > 0)
      window_mean_err_.load(std::memory_order_relaxed)
          ->Observe(std::fabs(price - moments_.front().second.mean()));
    has_prev_price_ = true;
    prev_price_ = price;
  }
  history_.Record(now, price);
  for (auto& [name, moments] : moments_) moments.Add(price);
  for (auto& [name, table] : distributions_) table.Add(price);
}

}  // namespace gm::market
