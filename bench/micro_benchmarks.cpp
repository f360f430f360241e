// Microbenchmarks of the hot paths: bid optimization, auction ticks,
// crypto primitives, bank transfers and token authorization, prediction
// fits, the simulation kernel and the durable-store journal.
#include <benchmark/benchmark.h>

#include <filesystem>
#include <memory>
#include <optional>

#include "bank/bank.hpp"
#include "bestresponse/best_response.hpp"
#include "common/proc_io.hpp"
#include "common/rng.hpp"
#include "crypto/identity.hpp"
#include "crypto/schnorr.hpp"
#include "crypto/sha256.hpp"
#include "crypto/token.hpp"
#include "grid/auth.hpp"
#include "market/auctioneer.hpp"
#include "market/price_history.hpp"
#include "market/slot_table.hpp"
#include "market/window_stats.hpp"
#include "math/ar_model.hpp"
#include "math/matrix.hpp"
#include "math/spline.hpp"
#include "sim/kernel.hpp"
#include "store/store.hpp"

namespace gm {
namespace {

void BM_BestResponseSolve(benchmark::State& state) {
  const std::size_t hosts = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  std::vector<br::HostBidInput> inputs;
  for (std::size_t j = 0; j < hosts; ++j) {
    inputs.push_back({"h" + std::to_string(j), rng.Uniform(1e9, 4e9),
                      Rate::DollarsPerSec(rng.Uniform(1e-5, 1e-2))});
  }
  br::BestResponseSolver solver;
  for (auto _ : state) {
    auto result = solver.Solve(inputs, Rate::DollarsPerSec(0.01));
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations() * hosts);
}
BENCHMARK(BM_BestResponseSolve)->Arg(15)->Arg(100)->Arg(600);

// One allocation interval per iteration, driven through the kernel so
// each tick sees a fresh interval: every VM is runnable, gets a slice and
// is charged. Items are bidders, so the items/s column reads as the
// per-bidder cost of a tick.
void BM_AuctioneerTick(benchmark::State& state) {
  const int users = static_cast<int>(state.range(0));
  sim::Kernel kernel;
  host::HostSpec spec;
  spec.id = "bench";
  spec.cpus = 2;
  spec.cycles_per_cpu = GHz(3.0);
  spec.vm_boot_time = 0;
  spec.max_vms = users;
  host::PhysicalHost host(spec);
  market::Auctioneer auctioneer(host, kernel);
  for (int u = 0; u < users; ++u) {
    const std::string user = "u" + std::to_string(u);
    (void)auctioneer.OpenAccount(user);
    (void)auctioneer.Fund(user, Money::Dollars(1e9));
    (void)auctioneer.SetBid(user, Rate::MicrosPerSec(1000 + u),
                            sim::Hours(1e6));
    auto vm = auctioneer.AcquireVm(user);
    (*vm)->Enqueue({1, 1e18, nullptr});
  }
  const sim::SimDuration interval = market::kAuctionInterval;
  auctioneer.Start();
  kernel.RunUntil(2 * interval);  // warm up allocations
  const Money revenue_before = auctioneer.total_revenue();
  for (auto _ : state) {
    kernel.RunUntil(kernel.now() + interval);
    benchmark::DoNotOptimize(auctioneer.SpotPriceRate());
  }
  auctioneer.Stop();
  if (auctioneer.total_revenue() <= revenue_before) {
    state.SkipWithError("ticks charged nothing: no slice was allocated");
  }
  state.SetItemsProcessed(state.iterations() * users);
}
BENCHMARK(BM_AuctioneerTick)->Arg(2)->Arg(15)->Arg(100)->Arg(1000)->Arg(10000);

void BM_Sha256(benchmark::State& state) {
  const std::size_t size = static_cast<std::size_t>(state.range(0));
  const std::string payload(size, 'x');
  for (auto _ : state) {
    auto digest = crypto::Sha256::Hash(payload);
    benchmark::DoNotOptimize(digest);
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(size));
}
BENCHMARK(BM_Sha256)->Arg(64)->Arg(4096);

void BM_SchnorrSign(benchmark::State& state) {
  Rng rng(2);
  const auto keys = crypto::KeyPair::Generate(crypto::TestGroup(), rng);
  for (auto _ : state) {
    auto signature = keys.Sign("transfer token payload", rng);
    benchmark::DoNotOptimize(signature);
  }
}
BENCHMARK(BM_SchnorrSign);

void BM_SchnorrVerify(benchmark::State& state) {
  Rng rng(3);
  const auto keys = crypto::KeyPair::Generate(crypto::TestGroup(), rng);
  const auto signature = keys.Sign("transfer token payload", rng);
  for (auto _ : state) {
    bool ok = keys.public_key().Verify("transfer token payload", signature);
    benchmark::DoNotOptimize(ok);
  }
}
BENCHMARK(BM_SchnorrVerify);

// A bank holding the user "alice" (owner-keyed, funded) and the
// bank-managed "broker" with a sub-account "broker/job", as the grid has
// them. The group is the size GridMarket uses (96-bit p, 48-bit q).
struct BankFixture {
  Rng rng{4};
  crypto::KeyPair alice = crypto::KeyPair::Generate(crypto::TestGroup(), rng);
  std::unique_ptr<bank::Bank> bank;

  BankFixture() { Reset(); }

  // A fresh ledger, so a long run does not grow the audit journal without
  // bound.
  void Reset() {
    bank = std::make_unique<bank::Bank>(crypto::TestGroup(), 5);
    (void)bank->CreateAccount("alice", alice.public_key());
    (void)bank->CreateAccount("broker", {});
    (void)bank->CreateSubAccount("broker", "broker/job");
    (void)bank->Mint("alice", Money::Dollars(1e6), 0);
    (void)bank->Mint("broker", Money::Dollars(1e6), 0);
  }

  // The owner's authorization for alice's next transfer to the broker.
  crypto::Signature Authorize(Money amount) {
    return alice.Sign(bank::TransferAuthPayload("alice", "broker", amount,
                                                *bank->TransferNonce("alice")),
                      rng);
  }
};

constexpr int kLedgerResetEvery = 4096;

// One move between bank-managed accounts (broker -> job sub-account, the
// escrow mirrors), with no durable store attached.
void BM_BankInternalTransfer(benchmark::State& state) {
  BankFixture fixture;
  std::int64_t n = 0;
  for (auto _ : state) {
    if (++n % kLedgerResetEvery == 0) {
      state.PauseTiming();
      fixture.Reset();
      state.ResumeTiming();
    }
    if (!fixture.bank->InternalTransfer("broker", "broker/job",
                                        Money::FromMicros(1), n)
             .ok()) {
      state.SkipWithError("internal transfer failed");
      break;
    }
  }
}
BENCHMARK(BM_BankInternalTransfer)->Unit(benchmark::kMicrosecond);

// One owner-signed transfer (the user paying the broker): the bank checks
// the owner's authorization and signs the receipt. The owner's own
// signing is not timed.
void BM_BankSignedTransfer(benchmark::State& state) {
  BankFixture fixture;
  std::int64_t n = 0;
  const Money amount = Money::FromMicros(1);
  for (auto _ : state) {
    state.PauseTiming();
    if (++n % kLedgerResetEvery == 0) fixture.Reset();
    const crypto::Signature auth = fixture.Authorize(amount);
    state.ResumeTiming();
    const auto receipt =
        fixture.bank->Transfer("alice", "broker", amount, auth, n);
    if (!receipt.ok()) {
      state.SkipWithError("signed transfer failed");
      break;
    }
    benchmark::DoNotOptimize(receipt->bank_signature);
  }
}
BENCHMARK(BM_BankSignedTransfer)->Unit(benchmark::kMicrosecond);

// A fresh token through TokenAuthorizer::Authorize: the bank's and the
// owner's signatures, the ledger check, the double-spend claim, and the
// sub-account it funds. Paying the broker and minting the token are not
// timed.
void BM_TokenAuthorize(benchmark::State& state) {
  BankFixture fixture;
  const crypto::DistinguishedName dn{"SE", "KTH", "PDC", "alice"};
  crypto::CertificateAuthority ca(
      crypto::DistinguishedName{"SE", "SweGrid", "CA", "Root"},
      crypto::TestGroup(), fixture.rng);
  const crypto::Certificate certificate =
      ca.Issue(dn, fixture.alice.public_key(), 0, 1LL << 60, fixture.rng);
  std::unique_ptr<grid::TokenAuthorizer> authorizer;
  const auto reset = [&] {
    authorizer.reset();
    fixture.Reset();
    authorizer =
        std::make_unique<grid::TokenAuthorizer>(*fixture.bank, "broker");
    (void)authorizer->RegisterIdentity(certificate, ca, 0);
  };
  reset();
  std::int64_t n = 0;
  const Money amount = Money::FromMicros(1);
  for (auto _ : state) {
    state.PauseTiming();
    if (++n % kLedgerResetEvery == 0) reset();
    const auto receipt = fixture.bank->Transfer(
        "alice", "broker", amount, fixture.Authorize(amount), n);
    const crypto::TransferToken token =
        receipt.ok() ? crypto::MintToken(*receipt, dn.ToString(),
                                         fixture.alice, fixture.rng)
                     : crypto::TransferToken{};
    state.ResumeTiming();
    const auto funds = authorizer->Authorize(token, n);
    if (!funds.ok()) {
      state.SkipWithError("token authorization failed");
      break;
    }
    benchmark::DoNotOptimize(funds->sub_account);
  }
}
BENCHMARK(BM_TokenAuthorize)->Unit(benchmark::kMicrosecond);

void BM_ArFit(benchmark::State& state) {
  Rng rng(4);
  std::vector<double> series;
  double level = 1.0;
  for (int i = 0; i < 2000; ++i) {
    level = 0.9 * level + rng.Uniform(0.0, 0.2);
    series.push_back(level);
  }
  for (auto _ : state) {
    auto model = math::ArModel::Fit(series, 6);
    benchmark::DoNotOptimize(model);
  }
}
BENCHMARK(BM_ArFit);

void BM_SmoothingSplineFit(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Rng rng(5);
  std::vector<double> x(n), y(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = static_cast<double>(i);
    y[i] = rng.NextDouble();
  }
  for (auto _ : state) {
    auto fit = math::SmoothingSpline::Fit(x, y, 50.0);
    benchmark::DoNotOptimize(fit);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_SmoothingSplineFit)->Arg(500)->Arg(5000);

void BM_WindowMomentsAdd(benchmark::State& state) {
  market::WindowMoments moments(8640);
  Rng rng(6);
  for (auto _ : state) {
    moments.Add(rng.NextDouble());
    benchmark::DoNotOptimize(moments.mean());
  }
}
BENCHMARK(BM_WindowMomentsAdd);

void BM_SlotTableAdd(benchmark::State& state) {
  market::SlotTable table(8640, 20, 1.0);
  Rng rng(7);
  for (auto _ : state) {
    table.Add(rng.NextDouble());
  }
  benchmark::DoNotOptimize(table.Proportions());
}
BENCHMARK(BM_SlotTableAdd);

void BM_KernelEventThroughput(benchmark::State& state) {
  for (auto _ : state) {
    sim::Kernel kernel;
    for (int i = 0; i < 1000; ++i) {
      kernel.ScheduleAt(i, [] {});
    }
    benchmark::DoNotOptimize(kernel.Run());
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_KernelEventThroughput);

// The paper testbed's timer mix: 30 hosts' auction ticks every 10 s plus
// one 1 min timer, fired over 100 auction intervals per iteration. Timer i
// starts i * `phase` later than the first.
void RunTestbedTimers(benchmark::State& state, sim::SimDuration phase) {
  sim::Kernel kernel;
  for (int host = 0; host < 30; ++host)
    kernel.ScheduleEvery(market::kAuctionInterval + host * phase,
                         market::kAuctionInterval, [] {});
  kernel.ScheduleEvery(sim::kMinute + 30 * phase, sim::kMinute, [] {});
  std::int64_t fired = 0;
  for (auto _ : state) {
    fired += static_cast<std::int64_t>(
        kernel.RunUntil(kernel.now() + 100 * market::kAuctionInterval));
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(fired);
}

// Aligned, as in the market: the 31 timers share their instants.
void BM_KernelPeriodicTimers(benchmark::State& state) {
  RunTestbedTimers(state, 0);
}
BENCHMARK(BM_KernelPeriodicTimers);

// Each timer on its own phase, so no two share an instant.
void BM_KernelStaggeredTimers(benchmark::State& state) {
  RunTestbedTimers(state, market::kAuctionInterval / 31);
}
BENCHMARK(BM_KernelStaggeredTimers);

void BM_LuSolve(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Rng rng(8);
  math::Matrix a(n, n);
  math::Vector b(n);
  for (std::size_t r = 0; r < n; ++r) {
    b[r] = rng.Uniform(-1.0, 1.0);
    for (std::size_t c = 0; c < n; ++c) a(r, c) = rng.Uniform(-1.0, 1.0);
    a(r, r) += static_cast<double>(n);
  }
  for (auto _ : state) {
    auto x = math::SolveLinear(a, b);
    benchmark::DoNotOptimize(x);
  }
}
BENCHMARK(BM_LuSolve)->Arg(10)->Arg(50);

std::filesystem::path BenchStoreDir(const char* name) {
  const auto dir = std::filesystem::temp_directory_path() / name;
  std::filesystem::remove_all(dir);
  return dir;
}

void BM_WalAppend(benchmark::State& state) {
  const std::size_t payload_size = static_cast<std::size_t>(state.range(0));
  const auto dir = BenchStoreDir("gm_bench_wal_append");
  auto wal = store::WriteAheadLog::Open(dir.string());
  const Bytes payload(payload_size, 0xAB);
  const std::optional<std::uint64_t> syscalls_before = WriteSyscalls();
  for (auto _ : state) {
    benchmark::DoNotOptimize((*wal)->Append(payload));
  }
  const std::optional<std::uint64_t> syscalls_after = WriteSyscalls();
  if (syscalls_before && syscalls_after && state.iterations() > 0)
    state.counters["write_syscalls_per_append"] =
        static_cast<double>(*syscalls_after - *syscalls_before) /
        static_cast<double>(state.iterations());
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(payload_size));
  std::filesystem::remove_all(dir);
}
BENCHMARK(BM_WalAppend)->Arg(64)->Arg(1024);

void BM_WalReplay(benchmark::State& state) {
  const std::int64_t records = state.range(0);
  const auto dir = BenchStoreDir("gm_bench_wal_replay");
  {
    auto wal = store::WriteAheadLog::Open(dir.string());
    const Bytes payload(128, 0xCD);
    for (std::int64_t i = 0; i < records; ++i) (void)(*wal)->Append(payload);
  }
  auto wal = store::WriteAheadLog::Open(dir.string());
  for (auto _ : state) {
    auto stats = (*wal)->Replay(
        0, [](std::uint64_t, const Bytes&) { return Status::Ok(); });
    benchmark::DoNotOptimize(stats);
  }
  state.SetItemsProcessed(state.iterations() * records);
  std::filesystem::remove_all(dir);
}
BENCHMARK(BM_WalReplay)->Arg(1000)->Arg(10000);

void BM_SnapshotLoad(benchmark::State& state) {
  const std::int64_t points = state.range(0);
  const auto dir = BenchStoreDir("gm_bench_snapshot");
  auto store = store::DurableStore::Open(dir.string());
  {
    market::PriceHistory history(1 << 20);
    history.AttachStore(store->get());
    Rng rng(9);
    for (std::int64_t i = 0; i < points; ++i)
      history.Record(sim::Seconds(10 * i), rng.NextDouble());
    (void)(*store)->WriteSnapshot(history);
  }
  for (auto _ : state) {
    market::PriceHistory recovered(1 << 20);
    auto stats = (*store)->Recover(recovered);
    benchmark::DoNotOptimize(stats);
  }
  state.SetItemsProcessed(state.iterations() * points);
  std::filesystem::remove_all(dir);
}
BENCHMARK(BM_SnapshotLoad)->Arg(1000)->Arg(50000);

}  // namespace
}  // namespace gm

BENCHMARK_MAIN();
