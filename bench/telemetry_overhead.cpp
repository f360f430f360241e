// Telemetry overhead harness: the same hot loops (auction ticks, WAL
// appends) timed bare, with telemetry attached, and with telemetry
// detached again. Emits BENCH_telemetry.json. The contract is that an
// attached registry costs < 5% on the market's hottest path and that the
// disabled configuration (no pointer attached — exactly what
// Config.telemetry.enabled=false produces) costs nothing at all; both
// are reported, not enforced. The three tick variants run in interleaved
// rounds of at least 200 ms each; the times are medians over the rounds
// and each overhead is the median of its per-round ratios to bare, so a
// burst of load on a shared machine moves one round rather than one
// side. Exits non-zero if the timed ticks charged nothing, since an
// overhead over empty ticks measures no market work.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "experiment_common.hpp"
#include "market/auctioneer.hpp"
#include "store/store.hpp"
#include "telemetry/telemetry.hpp"

namespace gm::bench {
namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

double ElapsedUs(Clock::time_point start) {
  return std::chrono::duration<double, std::micro>(Clock::now() - start)
      .count();
}

/// An auctioneer with `users` funded bidders, each with a runnable VM.
/// Start() begins its auction timer and warms up two intervals, so every
/// timed tick allocates slices and charges every bidder.
struct TickFixture {
  sim::Kernel kernel;
  host::PhysicalHost host;
  market::Auctioneer auctioneer;
  Money revenue_before;

  explicit TickFixture(int users)
      : host(MakeSpec(users)), auctioneer(host, kernel) {
    for (int u = 0; u < users; ++u) {
      const std::string user = "u" + std::to_string(u);
      (void)auctioneer.OpenAccount(user);
      (void)auctioneer.Fund(user, Money::Dollars(1e9));
      (void)auctioneer.SetBid(user, Rate::MicrosPerSec(1000 + u),
                            sim::Hours(1e6));
      auto vm = auctioneer.AcquireVm(user);
      if (vm.ok()) (*vm)->Enqueue({1, 1e18, nullptr});
    }
  }

  void Start() {
    auctioneer.Start();
    kernel.RunUntil(2 * market::kAuctionInterval);  // warm up allocations
    revenue_before = auctioneer.total_revenue();
  }

  /// Stops the timer; false if the timed ticks charged nothing.
  bool Stop() {
    auctioneer.Stop();
    return auctioneer.total_revenue() > revenue_before;
  }

  static host::HostSpec MakeSpec(int users) {
    host::HostSpec spec;
    spec.id = "bench";
    spec.cpus = 2;
    spec.cycles_per_cpu = GHz(3.0);
    spec.vm_boot_time = 0;
    spec.max_vms = users;
    return spec;
  }
};

/// One repeat: auction ticks in batches of `kTickBatch` until at least
/// `kRepeatUs` of wall time has passed, in ns per tick. Each tick is one
/// auction interval of kernel time.
double TimeTicks(TickFixture& fixture) {
  constexpr int kTickBatch = 1000;
  constexpr double kRepeatUs = 200e3;
  sim::Kernel& kernel = fixture.kernel;
  const auto start = Clock::now();
  std::int64_t ticks = 0;
  double us = 0.0;
  do {
    for (int i = 0; i < kTickBatch; ++i)
      kernel.RunUntil(kernel.now() + market::kAuctionInterval);
    ticks += kTickBatch;
    us = ElapsedUs(start);
  } while (us < kRepeatUs);
  return us * 1000.0 / static_cast<double>(ticks);
}

double Median(std::vector<double> values) {
  const auto mid = values.begin() + values.size() / 2;
  std::nth_element(values.begin(), mid, values.end());
  return *mid;
}

/// One round of `records` appends into a fresh store, in µs.
/// Auto-checkpointing is pushed out of reach so the loop times nothing
/// but the journaled append (DurableStore::Append is the instrumented
/// path — the histogram wraps the WAL write — so time it rather than the
/// raw WAL).
double AppendRound(const char* dir_name, telemetry::Telemetry* telemetry,
                   const Bytes& payload, int records) {
  const fs::path dir = fs::temp_directory_path() / dir_name;
  fs::remove_all(dir);
  store::StoreOptions options;
  options.snapshot_every_records = 1ULL << 40;
  auto store = store::DurableStore::Open(dir.string(), options);
  if (!store.ok()) return -1.0;
  if (telemetry != nullptr) (*store)->AttachTelemetry(telemetry, "bench");
  const auto start = Clock::now();
  for (int i = 0; i < records; ++i) {
    if (!(*store)->Append(payload).ok()) return -1.0;
  }
  const double us = ElapsedUs(start);
  store->reset();
  fs::remove_all(dir);
  return us;
}

int Run() {
  constexpr int kUsers = 15;
  BenchResultFile results("telemetry");
  telemetry::Telemetry telemetry(1 << 16);

  // -- auction tick: bare vs attached vs detached-again, interleaved --
  {
    constexpr int kRounds = 7;
    TickFixture bare(kUsers);
    TickFixture attached(kUsers);
    attached.auctioneer.AttachTelemetry(&telemetry);
    // A traced account exercises the per-account instant path too.
    const telemetry::TraceId trace = telemetry.tracer().NewTrace();
    (void)attached.auctioneer.SetAccountTrace("u0", trace);
    TickFixture detached(kUsers);
    detached.auctioneer.AttachTelemetry(&telemetry);
    detached.auctioneer.AttachTelemetry(nullptr);

    TickFixture* const fixtures[3] = {&bare, &attached, &detached};
    const char* const names[3] = {"bare", "telemetry", "detached"};
    std::vector<double> ns[3];
    for (TickFixture* fixture : fixtures) fixture->Start();
    // Each round times all three, in an order that rotates per round so
    // no variant always runs first.
    for (int round = 0; round < kRounds; ++round) {
      for (int k = 0; k < 3; ++k) {
        const int v = (k + round) % 3;
        ns[v].push_back(TimeTicks(*fixtures[v]));
      }
    }
    bool charged = true;
    for (TickFixture* fixture : fixtures) charged = fixture->Stop() && charged;
    if (!charged) {
      std::printf("FAIL: auction ticks charged nothing: no slice was "
                  "allocated\n");
      return 1;
    }
    const double bare_ns = Median(ns[0]);
    const double attached_ns = Median(ns[1]);
    const double detached_ns = Median(ns[2]);
    for (int v = 0; v < 3; ++v) {
      std::printf("auction tick %-9s ns/tick over %d rounds: median %.1f, "
                  "range %.1f-%.1f\n",
                  names[v], kRounds, Median(ns[v]),
                  *std::min_element(ns[v].begin(), ns[v].end()),
                  *std::max_element(ns[v].begin(), ns[v].end()));
    }

    // Each overhead is the median of its per-round ratios to bare: the
    // three sides of one round run within a second of each other, so a
    // slow stretch of the machine cancels out of the ratio.
    const auto overhead_pct = [&](int v) {
      std::vector<double> ratios;
      for (int round = 0; round < kRounds; ++round)
        ratios.push_back(ns[v][round] / ns[0][round]);
      return 100.0 * (Median(ratios) - 1.0);
    };
    const double enabled_pct = overhead_pct(1);
    const double disabled_pct = overhead_pct(2);
    results.Add("auction_tick_bare", bare_ns, "ns/tick");
    results.Add("auction_tick_telemetry", attached_ns, "ns/tick");
    results.Add("auction_tick_detached", detached_ns, "ns/tick");
    results.Add("auction_tick_overhead_enabled", enabled_pct, "%");
    results.Add("auction_tick_overhead_disabled", disabled_pct, "%");
    std::printf("auction tick medians: bare %.1f ns, telemetry %.1f ns "
                "(%.2f%%), detached %.1f ns (%.2f%%)\n",
                bare_ns, attached_ns, enabled_pct, detached_ns, disabled_pct);
    std::printf("%s: enabled overhead %s 5%%\n",
                enabled_pct < 5.0 ? "PASS" : "WARN",
                enabled_pct < 5.0 ? "<" : ">=");
  }

  // -- WAL append: bare vs attached wall-clock histogram --
  {
    constexpr int kRecords = 20000;
    const Bytes payload(128, 0x5A);
    // Interleave bare/telemetry rounds and keep the best of each, so
    // filesystem drift (page-cache state, background writeback) hits
    // both sides alike instead of biasing whichever ran second.
    double bare_us = 1e300;
    double telem_us = 1e300;
    for (int repeat = 0; repeat < 5; ++repeat) {
      const double bare =
          AppendRound("gm_telem_wal_bare", nullptr, payload, kRecords);
      const double telem =
          AppendRound("gm_telem_wal_on", &telemetry, payload, kRecords);
      if (bare < 0 || telem < 0) return 1;
      bare_us = std::min(bare_us, bare);
      telem_us = std::min(telem_us, telem);
    }
    const double bare_ns = bare_us * 1000.0 / kRecords;
    const double telem_ns = telem_us * 1000.0 / kRecords;

    const double pct = 100.0 * (telem_ns - bare_ns) / bare_ns;
    results.Add("wal_append_bare", bare_ns, "ns/record");
    results.Add("wal_append_telemetry", telem_ns, "ns/record");
    results.Add("wal_append_overhead_enabled", pct, "%");
    std::printf("wal append: bare %.0f ns, telemetry %.0f ns (%.2f%%)\n",
                bare_ns, telem_ns, pct);
    std::printf("%s: enabled overhead %s 5%%\n", pct < 5.0 ? "PASS" : "WARN",
                pct < 5.0 ? "<" : ">=");
  }

  // -- raw registry primitives, for scale --
  {
    constexpr int kOps = 1000000;
    telemetry::LatencyHistogram* hist =
        telemetry.metrics().GetHistogram("bench.record_cost");
    auto start = Clock::now();
    for (int i = 0; i < kOps; ++i) hist->Record(static_cast<std::uint64_t>(i));
    results.Add("histogram_record", ElapsedUs(start) * 1000.0 / kOps, "ns/op");

    telemetry::Counter* counter =
        telemetry.metrics().GetCounter("bench.inc_cost");
    start = Clock::now();
    for (int i = 0; i < kOps; ++i) counter->Inc();
    results.Add("counter_inc", ElapsedUs(start) * 1000.0 / kOps, "ns/op");
  }

  return results.Write() ? 0 : 1;
}

}  // namespace
}  // namespace gm::bench

int main() { return gm::bench::Run(); }
