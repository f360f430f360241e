// Parallel host runtime: ticking many auctioneers from a thread pool.
//
// A multi-site grid runs one auction per host per interval; the auctions
// are independent except for the ledger they charge — a sharded bank
// federation — and telemetry. This runner shards the hosts over a thread
// pool and executes every allocation round in three phases:
//
//   1. advance  — the main thread alone advances the sim kernel to the
//                 round boundary (the clock is read-only to workers),
//   2. parallel — every shard, on a pool thread, perturbs its bids from
//                 its own deterministic RNG stream, runs its auction
//                 tick and *buffers* the federation transfers it wants,
//                 reading the ledger only through its locks,
//   3. merge    — after the pool barrier the buffered transfers are
//                 applied grouped by debtor bank shard, in fixed order.
//
// Because each shard's work depends only on shard-local state plus the
// frozen clock, and cross-shard effects are applied at the barrier in a
// fixed order, an 8-thread run produces the exact same federation ledger
// — bit-identical LedgerHash, same settlement ids — and the same
// per-shard prices as config.serial = true executing the shards one
// after another. That equivalence is the determinism contract the tier-1
// tests pin down, and it is what makes multi-threaded chaos runs
// debuggable: any divergence is a bug in a component's locking, not
// scheduling noise.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bank/federation/router.hpp"
#include "common/concurrency.hpp"
#include "common/rng.hpp"
#include "common/status.hpp"
#include "market/auctioneer.hpp"
#include "sim/kernel.hpp"

namespace gm::host {

/// A buffered cross-shard effect a load source emits during the parallel
/// phase; the runner applies it at the merge barrier in fixed order.
struct ShardOp {
  enum class Kind {
    kTransfer,  // federation transfer from -> to
    kReplay,    // present settlement_id to the double-spend registry
  };
  Kind kind = Kind::kTransfer;
  std::string from;
  std::string to;
  Money amount;
  std::string settlement_id;
};

/// Scenario hook: external load driven into each shard's auction during
/// the parallel phase (open-loop arrivals, adversaries). The determinism
/// contract extends to implementations: the hooks for shard k run on
/// whichever pool thread owns shard k that round, so they may touch only
/// state local to shard k plus the shard's own auctioneer, must derive
/// randomness purely from (seed, shard, round), and must buffer every
/// cross-shard effect into `ops` instead of performing it.
class ShardLoadSource {
 public:
  virtual ~ShardLoadSource() = default;
  /// Called before the shard's auction tick (inject arrivals and bids).
  virtual void BeforeTick(std::size_t shard_index, std::uint64_t round,
                          sim::SimTime now, market::Auctioneer& auctioneer,
                          std::vector<ShardOp>& ops) = 0;
  /// Called after the tick (observe completions, buffer refunds).
  virtual void AfterTick(std::size_t shard_index, std::uint64_t round,
                         sim::SimTime now, market::Auctioneer& auctioneer,
                         std::vector<ShardOp>& ops) = 0;
};

struct ParallelRunnerConfig {
  int threads = 8;
  /// Root seed; shard k derives its private RNG stream from it by
  /// SplitMix64 mixing, so streams are independent of thread placement.
  std::uint64_t seed = 1;
  /// Allocation interval; every round advances the clock by this much.
  sim::SimDuration interval = 10 * sim::kSecond;
  /// Synthetic bidders the runner opens per shard to keep auctions busy.
  int bidders_per_shard = 2;
  /// Funding -> host-account transfers each shard buffers per round.
  int transfers_per_shard = 4;
  /// Execute shards inline on the calling thread, in shard order, instead
  /// of on the pool. The determinism contract: identical results.
  bool serial = false;
  /// Every N rounds each shard closes its first bidder's account
  /// (reclaiming the escrowed balance) and reopens it before bidding
  /// again — account removal and re-add inside one round. 0 disables.
  /// Exercises the incremental spot-price path's remove/re-add handling
  /// under the determinism contract.
  int churn_every = 0;
};

struct ParallelRunReport {
  int rounds = 0;
  std::size_t shards = 0;
  std::uint64_t ticks = 0;
  /// Federation transfers applied/rejected at the merge barriers.
  std::uint64_t fed_ops_applied = 0;
  std::uint64_t fed_ops_failed = 0;
  /// Load-source replay ops presented to the double-spend registry at the
  /// merge barrier, and how many it refused (kAlreadyClaimed for spent
  /// ids, kNotFound for probes of never-claimed ids). Any gap between the
  /// two counters means an accepted double-spend.
  std::uint64_t replay_attempts = 0;
  std::uint64_t replays_rejected = 0;
};

class ParallelRunner {
 public:
  /// Starts the runner's worker pool (config.threads workers) unless
  /// config.serial; the pool lives as long as the runner.
  ParallelRunner(sim::Kernel& kernel, ParallelRunnerConfig config);
  /// Takes the pool back from the federation (see SetFederation), so the
  /// federation must still be alive here.
  ~ParallelRunner();
  ParallelRunner(const ParallelRunner&) = delete;
  ParallelRunner& operator=(const ParallelRunner&) = delete;

  /// Register one auction shard. `funding_account` and `host_account`
  /// must exist in the federation; buffered transfers move funding ->
  /// host, modelling users paying the host's take.
  void AddShard(market::Auctioneer* auctioneer, std::string funding_account,
                std::string host_account);

  /// The ledger every shard charges; Run fails without one. Buffered
  /// transfers are applied at the merge barrier grouped by DEBTOR bank
  /// shard: groups run concurrently on the pool (each settlement id is
  /// minted under its debtor shard's lock, in fixed group order), so the
  /// federation ledger after the merge is bit-identical to a serial
  /// run's even though auctioneer shards charge bank shards in parallel.
  /// The runner also lends its pool to the federation's audits
  /// (LedgerHash, CheckConservation) until it is destroyed or given
  /// another federation; nullptr detaches.
  void SetFederation(bank::federation::FederationRouter* federation);
  /// Attach a scenario load source (non-owning; nullptr detaches). Its
  /// transfer ops join the federation merge; replay ops are presented to
  /// the registry after the merge, in shard order.
  void SetLoadSource(ShardLoadSource* source) { load_source_ = source; }

  /// Execute `rounds` allocation rounds over all shards. Safe to call
  /// repeatedly; shard RNG streams continue where they left off. Fails
  /// with kFailedPrecondition without shards or a federation.
  Result<ParallelRunReport> Run(int rounds);

  const ParallelRunnerConfig& config() const { return config_; }

 private:
  struct PendingOp {
    std::string from;
    std::string to;
    Money amount;
  };
  struct Shard {
    market::Auctioneer* auctioneer = nullptr;
    std::size_t index = 0;
    std::string funding_account;
    std::string host_account;
    Rng rng;
    bool prepared = false;
    /// Rounds this shard has executed; drives the churn cadence. Shard
    /// state, so it is identical under serial and pooled execution.
    std::uint64_t rounds_run = 0;
    /// Written only by the worker running this shard during the parallel
    /// phase, read by the main thread after the barrier.
    std::vector<PendingOp> fed_ops;
    /// Load-source replay ops (settlement ids), same write/read contract.
    std::vector<std::string> replay_ops;
  };

  /// The per-shard round body: runs on a pool thread (or inline when
  /// serial). Touches only shard-local state and the lock-guarded ledger.
  void RunShard(Shard& shard, sim::SimTime now);
  void PrepareShard(Shard& shard);
  /// Apply every shard's buffered federation transfers, grouped by
  /// debtor bank shard; groups run on the pool unless serial.
  void MergeFederationOps(sim::SimTime now, ParallelRunReport& report);

  sim::Kernel& kernel_;
  const ParallelRunnerConfig config_;
  /// Null when serial: every phase then runs inline in shard order.
  std::unique_ptr<gm::ThreadPool> pool_;
  std::vector<Shard> shards_;
  bank::federation::FederationRouter* federation_ = nullptr;  // non-owning
  ShardLoadSource* load_source_ = nullptr;                    // non-owning
};

}  // namespace gm::host
