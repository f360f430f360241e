// federation-scale: about 2k auctioneers ticked by host::ParallelRunner
// on fewer than nproc pool threads, charging a durable 8-shard bank
// federation of 10^5 funded accounts; then a burst of user -> host
// transfers, a LedgerHash + CheckConservation audit, and one shard crash
// -> WAL replay -> ResumeSettlements.
//
// Set-up is shard open, journaled account funding and grid assembly.
// Finish() builds a serial twin of each variant and requires its ledger
// hash after the same rounds to equal the threaded one.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <unistd.h>

#include "bank/federation/router.hpp"
#include "bank/federation/shard.hpp"
#include "crypto/token.hpp"
#include "host/host.hpp"
#include "host/parallel_runner.hpp"
#include "market/auctioneer.hpp"
#include "sim/kernel.hpp"
#include "store/store.hpp"
#include "telemetry/telemetry.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace gm;
namespace fs = std::filesystem;

constexpr std::size_t kAccounts = 100'000;
constexpr std::size_t kHosts = 2'000;
constexpr std::size_t kBankShards = 8;
constexpr int kRounds = 6;
constexpr int kBurst = 2'000;
constexpr sim::SimDuration kInterval = 10 * sim::kSecond;
constexpr int kVariants = 2;

// The bid streams and the burst of one variant of the seed.
std::uint64_t VariantSeed(std::uint64_t seed, int variant) {
  return seed * kVariants + static_cast<std::uint64_t>(variant);
}

std::string UserAccount(std::size_t i) { return "user:u" + std::to_string(i); }
std::string HostAccount(std::size_t i) { return "host:h" + std::to_string(i); }

// One assembled system: durable shards, router, auctioneers, runner.
struct Federation {
  Federation(const fs::path& dir, std::uint64_t seed, int threads,
             bool serial, telemetry::Telemetry* telemetry)
      : dir(dir) {
    fs::remove_all(dir);
    for (std::size_t k = 0; k < kBankShards; ++k) {
      auto store = store::DurableStore::Open(
          (dir / ("shard" + std::to_string(k))).string());
      if (!store.ok()) {
        error = "store open failed: " + store.status().message();
        return;
      }
      stores.push_back(std::move(*store));
      shards.push_back(std::make_unique<bank::federation::BankShard>(k));
      shards.back()->AttachStore(stores.back().get());
      if (telemetry != nullptr) shards.back()->AttachTelemetry(telemetry);
    }
    std::vector<bank::federation::BankShard*> ptrs;
    for (const auto& shard : shards) ptrs.push_back(shard.get());
    router =
        std::make_unique<bank::federation::FederationRouter>(ptrs, &registry);
    if (telemetry != nullptr) router->AttachTelemetry(telemetry);

    host::ParallelRunnerConfig config;
    config.threads = threads;
    config.seed = seed;
    config.interval = kInterval;
    config.bidders_per_shard = 4;
    config.serial = serial;
    runner = std::make_unique<host::ParallelRunner>(kernel, config);
    market_config.stat_windows = {{"hour", 360}};
  }
  ~Federation() {
    runner.reset();
    auctioneers.clear();
    hosts.clear();
    router.reset();
    shards.clear();
    stores.clear();
    std::error_code ignored;
    fs::remove_all(dir, ignored);
  }
  Federation(const Federation&) = delete;
  Federation& operator=(const Federation&) = delete;

  // The account population, one journaled create+fund each, then the
  // grid: every host charges the federation through the runner.
  void Populate(Tracer& tracer, RunStats& stats) {
    for (std::size_t i = 0; i < kAccounts + kHosts; ++i) {
      const bool user = i < kAccounts;
      Span span(tracer, "bank.create");
      const Status s = router->CreateAccount(
          user ? UserAccount(i) : HostAccount(i - kAccounts),
          user ? Money::Dollars(10) : Money::Zero());
      if (!stats.tally.Record(s.ok())) span.Fail();
    }
    hosts.reserve(kHosts);
    auctioneers.reserve(kHosts);
    for (std::size_t i = 0; i < kHosts; ++i) {
      host::HostSpec spec;
      spec.id = "h" + std::to_string(i);
      hosts.push_back(std::make_unique<host::PhysicalHost>(spec));
      auctioneers.push_back(std::make_unique<market::Auctioneer>(
          *hosts.back(), kernel, market_config));
      runner->AddShard(auctioneers.back().get(), UserAccount(i % kAccounts),
                       HostAccount(i));
    }
    runner->SetFederation(router.get());
  }

  void AttachTelemetry(telemetry::Telemetry* telemetry) {
    for (const auto& auctioneer : auctioneers)
      auctioneer->AttachTelemetry(telemetry);
  }

  // One allocation round per call, so each round is its own span.
  void Rounds(Tracer& tracer, RunStats& stats, std::vector<double>& round_s) {
    for (int r = 0; r < kRounds; ++r) {
      stats.EndStep(RunStats::StepKind::kOther);
      Span span(tracer, "host.round");
      const auto report = runner->Run(1);
      round_s.push_back(span.Stop() / 1e6);
      stats.EndStep(RunStats::StepKind::kSim, sim::ToHours(kInterval));
      if (!stats.tally.Record(report.ok())) {
        error = "runner failed: " + report.status().message();
        return;
      }
      ticks += report->ticks;
      fed_ops_applied += report->fed_ops_applied;
      fed_ops_failed += report->fed_ops_failed;
    }
  }

  std::uint64_t WalBytes() const {
    std::uint64_t bytes = 0;
    std::error_code ec;
    for (const auto& entry : fs::recursive_directory_iterator(dir, ec))
      if (entry.is_regular_file(ec)) bytes += entry.file_size(ec);
    return bytes;
  }

  fs::path dir;
  std::string error;
  sim::Kernel kernel;
  market::AuctioneerConfig market_config;
  std::vector<std::unique_ptr<store::DurableStore>> stores;
  std::vector<std::unique_ptr<bank::federation::BankShard>> shards;
  crypto::TokenRegistry registry;
  std::unique_ptr<bank::federation::FederationRouter> router;
  std::vector<std::unique_ptr<host::PhysicalHost>> hosts;
  std::vector<std::unique_ptr<market::Auctioneer>> auctioneers;
  std::unique_ptr<host::ParallelRunner> runner;
  std::uint64_t ticks = 0;
  std::uint64_t fed_ops_applied = 0;
  std::uint64_t fed_ops_failed = 0;
};

class FederationScale : public Workload {
 public:
  explicit FederationScale(const Options& options)
      : seed_(options.seed),
        // The main thread waits at the round barrier while the pool
        // works, so pool + main stays within nproc.
        pool_threads_(std::max(1, options.threads - 1)),
        dir_(fs::path(options.out_dir) /
             ("federation-" + std::to_string(::getpid()))) {}

  int variants() const override { return kVariants; }

  void Iteration(int variant, Tracer& tracer, RunStats& stats) override {
    const std::uint64_t seed = VariantSeed(seed_, variant);
    stats.threads = pool_threads_ + 1;
    std::unique_ptr<telemetry::Telemetry> telemetry;
    if (tracer.enabled()) telemetry = std::make_unique<telemetry::Telemetry>();

    Federation fed(dir_, seed, pool_threads_, false, telemetry.get());
    if (fed.error.empty()) fed.Populate(tracer, stats);
    if (telemetry != nullptr) fed.AttachTelemetry(telemetry.get());
    if (!fed.error.empty()) {
      stats.Check(false, fed.error);
      return;
    }

    stats.BeginTimed();
    std::vector<double> round_s;
    fed.Rounds(tracer, stats, round_s);
    const std::string rounds_hash = fed.router->LedgerHash();
    Burst(fed, seed, tracer, stats);
    Audit(fed, tracer, stats);
    CrashAndRecover(fed, seed, tracer, stats);
    stats.EndTimed();
    stats.Check(fed.error.empty(), fed.error);
    stats.Check(fed.fed_ops_failed == 0,
                "runner rejected federation charges");

    std::string& first = threaded_hash_[variant];
    if (first.empty()) first = rounds_hash;
    stats.Check(rounds_hash == first,
                "threaded ledger hash changed between repeats");
    threaded_round_s_.insert(threaded_round_s_.end(), round_s.begin(),
                             round_s.end());
    stats.layer["host.ticks"] += static_cast<double>(fed.ticks);
    stats.layer["host.fed_ops_applied"] +=
        static_cast<double>(fed.fed_ops_applied);
    stats.layer["host.fed_ops_failed"] +=
        static_cast<double>(fed.fed_ops_failed);
    // Every create, round charge and burst transfer is journaled.
    const double wal_bytes = static_cast<double>(fed.WalBytes());
    stats.layer["store.wal_bytes"] = wal_bytes;
    stats.layer["store.wal_bytes_per_op"] =
        wal_bytes / static_cast<double>(kAccounts + kHosts +
                                        fed.fed_ops_applied + kBurst);
    if (telemetry != nullptr)
      AddRegistryCounters(telemetry->metrics().Snapshot().counters, stats);
  }

  void Finish(RunStats& stats) override {
    // The serial twins: same seed, same rounds, shards run inline.
    std::vector<double> serial_round_s;
    for (int v = 0; v < kVariants; ++v) {
      if (threaded_hash_[v].empty()) continue;  // the variant never ran
      Tracer off(false);
      RunStats twin_stats;
      twin_stats.BeginIteration(v);
      Federation twin(dir_.string() + "-serial", VariantSeed(seed_, v),
                      pool_threads_, true, nullptr);
      if (twin.error.empty()) twin.Populate(off, twin_stats);
      if (twin.error.empty()) twin.Rounds(off, twin_stats, serial_round_s);
      const std::string where = "variant " + std::to_string(v) + ": ";
      stats.Check(twin.error.empty(), where + "serial twin: " + twin.error);
      stats.Check(twin.error.empty() &&
                      twin.router->LedgerHash() == threaded_hash_[v],
                  where + "serial and threaded ledger hashes differ");
      std::printf("federation-scale ledger hash after %d rounds (seed %llu, "
                  "variant %d): %s\n",
                  kRounds, static_cast<unsigned long long>(seed_), v,
                  threaded_hash_[v].c_str());
    }
    const double threaded = Median(threaded_round_s_);
    stats.layer["host.parallel_efficiency"] =
        threaded > 0 ? Median(serial_round_s) / (pool_threads_ * threaded)
                     : 0.0;
    stats.layer["bank.transfer.cross_shard_share"] =
        transfers_ == 0 ? 0.0
                        : static_cast<double>(cross_shard_) /
                              static_cast<double>(transfers_);
  }

 private:
  // User -> host payments, as a submit settles them.
  void Burst(Federation& fed, std::uint64_t seed, Tracer& tracer,
             RunStats& stats) {
    Rng rng(seed ^ 0x5e771eULL);
    for (int i = 0; i < kBurst; ++i) {
      stats.EndStep(RunStats::StepKind::kOther);
      const std::string from = UserAccount(rng.NextBelow(kAccounts));
      const std::string to = HostAccount(rng.NextBelow(kHosts));
      const Money amount = Money::FromMicros(
          1 + static_cast<Micros>(rng.NextBelow(1000)));
      ++transfers_;
      if (bank::federation::StripeFor(from, kBankShards) !=
          bank::federation::StripeFor(to, kBankShards))
        ++cross_shard_;
      Span span(tracer, "bank.transfer");
      const bool ok =
          fed.router->Transfer(from, to, amount, fed.kernel.now()).ok();
      if (!stats.tally.Record(ok)) span.Fail();
      span.Stop();
      stats.EndStep(RunStats::StepKind::kOp);
    }
  }

  void Audit(Federation& fed, Tracer& tracer, RunStats& stats) {
    {
      Span span(tracer, "bank.ledger_hash");
      stats.tally.Record(!fed.router->LedgerHash().empty());
    }
    Span span(tracer, "bank.conservation");
    const Status conserved = fed.router->CheckConservation();
    stats.tally.Record(conserved.ok());
    stats.Check(conserved.ok(), "CheckConservation: " + conserved.message());
  }

  void CrashAndRecover(Federation& fed, std::uint64_t seed, Tracer& tracer,
                       RunStats& stats) {
    const std::string before = fed.router->LedgerHash();
    bank::federation::BankShard& victim = *fed.shards[seed % kBankShards];
    victim.SimulateCrash();
    {
      Span span(tracer, "store.replay");
      if (!stats.tally.Record(victim.Restart().ok())) span.Fail();
    }
    {
      Span span(tracer, "store.resume");
      if (!stats.tally.Record(
              fed.router->ResumeSettlements(fed.kernel.now()).ok()))
        span.Fail();
    }
    stats.Check(fed.router->LedgerHash() == before,
                "ledger hash changed across crash + WAL replay");
    const Status conserved = fed.router->CheckConservation();
    stats.Check(conserved.ok(),
                "CheckConservation after recovery: " + conserved.message());
  }

  std::uint64_t seed_;
  int pool_threads_;
  fs::path dir_;
  std::string threaded_hash_[kVariants];  // first repeat's, per variant
  std::vector<double> threaded_round_s_;
  std::uint64_t transfers_ = 0;
  std::uint64_t cross_shard_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeFederationScale(const Options& options) {
  return std::make_unique<FederationScale>(options);
}

}  // namespace perfbench
