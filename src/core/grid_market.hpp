// GridMarket: the assembled system and primary public API.
//
// Wires together everything the paper deploys: a simulation kernel, the
// Tycoon Bank, a Grid certificate authority, the Service Location Service,
// per-host Auctioneers with SLS heartbeats, the token authorizer and the
// ARC/Tycoon scheduler plugin behind a GridBroker. The plugin sits next
// to the broker and calls the SLS, the auctioneers and the bank in
// process (paper §3.1); a host's SLS heartbeat is its only liveness
// signal. Users are registered with bank accounts and CA-issued
// certificates; job submission performs the full market flow (bank
// transfer -> transfer token -> authorization -> best-response bidding
// -> VMs -> execution -> refund).
//
// Typical use (see examples/quickstart.cpp):
//   GridMarket::Config config;
//   config.hosts = 30;
//   GridMarket grid(config);
//   grid.RegisterUser("alice");
//   auto job = grid.SubmitJob("alice", description, Money::Dollars(100));
//   grid.RunUntil(sim::Hours(10));
//   const grid::JobRecord& record = *grid.Job(*job).value();
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "bank/bank.hpp"
#include "bank/federation/reconciler.hpp"
#include "crypto/token.hpp"
#include "grid/broker.hpp"
#include "grid/monitor.hpp"
#include "market/sls.hpp"
#include "predict/normal_model.hpp"
#include "sim/kernel.hpp"
#include "store/store.hpp"
#include "telemetry/telemetry.hpp"

namespace gm {

class GridMarket {
 public:
  /// Each field has a caller outside the tests; values the market never
  /// varies (heartbeat, group size, store cadence) are constants in
  /// grid_market.cpp.
  struct Config {
    int hosts = 30;
    int cpus_per_host = 2;
    CyclesPerSecond cycles_per_cpu = GHz(3.0);
    /// Heterogeneous cluster: host i's CPU speed ramps linearly over
    /// [cycles_per_cpu*(1-h), cycles_per_cpu*(1+h)]. 0 = uniform. The
    /// paper's testbed mixes machines from four sites.
    double heterogeneity = 0.0;
    double virtualization_overhead = 0.03;
    /// Host CPU schedulers redistribute cap-freed capacity (Tycoon's
    /// work-conservation property). Disable for the ablation benchmark.
    bool work_conserving = true;
    sim::SimDuration vm_boot_time = sim::Seconds(30);
    int max_vms_per_host = 15;
    grid::PluginConfig plugin;
    /// Durable state engine (src/store). In-memory by default; in durable
    /// mode the Bank ledger, SLS registrations and per-host price
    /// histories are journaled write-ahead under `dir` and recovered on
    /// construction (warm boot) and on chaos-surface restarts. A warm
    /// boot must reuse the same `seed` so the recovered owner keys verify
    /// against the regenerated Schnorr group.
    struct StorageConfig {
      bool durable = false;
      std::string dir;  // required when durable
    };
    StorageConfig storage;
    /// Sharded bank federation (src/bank/federation). 0 disables. When
    /// set, `bank_shards` BankShard ledgers are striped over the account
    /// space: every registered user gets a mirrored federation account
    /// "user:<name>" seeded with their initial funds and every host an
    /// account "host:<id>", cross-shard transfers settle through the
    /// two-phase protocol, and a Reconciler audits global Money
    /// conservation (signed reports; see Reconcile()). With durable
    /// storage each shard journals under "<dir>/fed/shard<k>" and
    /// recovers bit-identically across CrashBankShard/RestartBankShard.
    int bank_shards = 0;
    /// Telemetry subsystem (src/telemetry). Off by default: no component
    /// carries a telemetry pointer and every instrumentation site is a
    /// single never-taken null check. When enabled, each job submission
    /// mints a causal TraceId whose spans cover the whole lifecycle
    /// (submit -> fund-verify -> bid -> auction ticks -> execute ->
    /// stage-out -> refund), and hot-path latencies/counters accumulate
    /// in the metrics registry (export with WriteTelemetryJsonl).
    struct TelemetryConfig {
      bool enabled = false;
      /// Trace journal ring capacity. Traced jobs emit one auction-tick
      /// instant per funded host per 10 s market tick, so long chaos
      /// runs should raise this well above the default.
      std::size_t trace_capacity = 8192;
    };
    TelemetryConfig telemetry;
    std::uint64_t seed = 42;
  };

  explicit GridMarket(Config config);
  ~GridMarket();
  GridMarket(const GridMarket&) = delete;
  GridMarket& operator=(const GridMarket&) = delete;

  // -- time --
  sim::Kernel& kernel() { return kernel_; }
  sim::SimTime now() const { return kernel_.now(); }
  void RunUntil(sim::SimTime deadline) { kernel_.RunUntil(deadline); }
  void RunFor(sim::SimDuration duration) {
    kernel_.RunUntil(kernel_.now() + duration);
  }

  // -- identities and money --
  /// Create a Grid user: keypair, bank account funded with
  /// `initial_funds`, CA certificate registered with the broker.
  Status RegisterUser(const std::string& name,
                      Money initial_funds = Money::Dollars(1e6));
  Result<Money> UserBankBalance(const std::string& name) const;
  /// Pay the broker and mint the transfer token (the client-side flow).
  Result<crypto::TransferToken> PayBroker(const std::string& name,
                                          Money amount);

  // -- jobs --
  /// Full submission: pay, mint token, authorize, schedule.
  Result<std::uint64_t> SubmitJob(const std::string& user,
                                  const grid::JobDescription& description,
                                  Money budget);
  /// Same, straight from XRSL text.
  Result<std::uint64_t> SubmitXrsl(const std::string& user,
                                   std::string_view xrsl, Money budget);
  /// Add funds to a running job.
  Status BoostJob(const std::string& user, std::uint64_t job_id,
                  Money amount);
  Result<const grid::JobRecord*> Job(std::uint64_t job_id) const;
  std::vector<const grid::JobRecord*> Jobs() const;

  // -- market introspection --
  std::size_t host_count() const { return auctioneers_.size(); }
  market::Auctioneer& auctioneer(std::size_t index);
  const market::Auctioneer& auctioneer(std::size_t index) const;
  market::ServiceLocationService& sls() { return *sls_; }
  bank::Bank& bank() { return *bank_; }
  grid::GridBroker& broker() { return *broker_; }

  /// Price statistics of every host for the prediction layer, from the
  /// named statistics window ("hour", "day", "week").
  Result<std::vector<predict::HostPriceStats>> HostPriceStats(
      const std::string& window) const;

  // -- fault tolerance --
  /// Crash host `index`: the market stops ticking (VMs freeze) and the
  /// host stops heartbeating. Once its SLS record expires, queries drop
  /// the host and the scheduler migrates its jobs to the survivors. In
  /// durable mode the host's in-memory price window and window statistics
  /// are lost too. FailedPrecondition when the host is already down.
  Status CrashHost(std::size_t index);
  /// Bring a crashed host back: replay its price journal (durable mode),
  /// restart its market, and heartbeat again at once, so it is healthy
  /// and schedulable immediately.
  Status RestartHost(std::size_t index);
  /// Crash the Bank process: the in-memory ledger is wiped and every
  /// bank call fails Unavailable until RestartBank() replays the WAL.
  /// Requires durable storage (an in-memory bank is unrecoverable).
  Status CrashBank();
  Status RestartBank();
  bool bank_crashed() const { return bank_->crashed(); }

  // -- bank federation --
  /// The sharded bank router, or nullptr when Config.bank_shards == 0.
  bank::federation::FederationRouter* federation() {
    return federation_.get();
  }
  const bank::federation::FederationRouter* federation() const {
    return federation_.get();
  }
  bank::federation::Reconciler* reconciler() { return reconciler_.get(); }
  std::size_t bank_shard_count() const { return bank_shards_.size(); }
  bank::federation::BankShard& bank_shard(std::size_t index);
  /// Crash bank shard `index`: its in-memory stripe of the ledger is
  /// wiped and every call against it fails Unavailable; settlements
  /// whose debtor or creditor lives there park mid-protocol. Requires
  /// durable storage.
  Status CrashBankShard(std::size_t index);
  /// Replay the shard's WAL (bit-identical ledger), then resume every
  /// parked settlement across the federation to exactly-once completion.
  Status RestartBankShard(std::size_t index);
  bool bank_shard_crashed(std::size_t index) const {
    return index < bank_shards_.size() && bank_shards_[index]->crashed();
  }
  /// Run a reconciliation sweep now; the returned report is signed by
  /// the reconciler (verify with reconciler()->VerifyReport).
  Result<bank::federation::ReconciliationReport> Reconcile();
  /// Per-shard federation table + last reconciliation status.
  std::string FederationMonitor() const;
  /// Every host's liveness, read from its SLS record's age.
  std::vector<grid::HostHealthInfo> HostHealthReport() const;
  /// The health table (companion to Monitor()).
  std::string HealthMonitor() const;
  /// Per-store durability counters (appends, snapshots, recoveries).
  std::string StorageMonitor() const;
  /// The durable stores' counters, one row per store (empty when
  /// in-memory).
  std::vector<grid::StoreRow> StoreRows() const;

  /// The live monitor rendering (paper Figure 2).
  std::string Monitor() const;

  // -- telemetry --
  /// The telemetry sink, or nullptr when Config.telemetry.enabled is
  /// false.
  telemetry::Telemetry* telemetry() { return telemetry_.get(); }
  const telemetry::Telemetry* telemetry() const { return telemetry_.get(); }
  /// Pull component-kept totals (durable stores, bank federation) into
  /// the registry and return a fresh snapshot of every metric.
  /// FailedPrecondition when telemetry is disabled.
  Result<telemetry::MetricsSnapshot> CollectMetrics();
  /// CollectMetrics + dump every metric and trace event as JSONL.
  Status WriteTelemetryJsonl(const std::string& path);
  /// The job's trace events (spans + instants) in start order. Requires
  /// telemetry and a job submitted after construction.
  Result<std::vector<telemetry::SpanEvent>> JobTrace(
      std::uint64_t job_id) const;

  /// All-balances conservation check (delegates to the bank).
  Status CheckInvariants() const { return bank_->CheckInvariants(); }

 private:
  struct User {
    crypto::KeyPair keys;
    crypto::DistinguishedName dn;
  };

  /// Host `index`'s heartbeat to the SLS (publishes once right away).
  std::unique_ptr<market::SlsPublisher> MakePublisher(std::size_t index);
  /// Emit an `name` instant on every live (non-terminal) traced job.
  void InstantOnActiveTraces(const char* name, const std::string& detail);

  Config config_;
  sim::Kernel kernel_;
  Rng rng_;
  crypto::SchnorrGroup group_;
  // Declared before every component that caches metric/tracer pointers.
  std::unique_ptr<telemetry::Telemetry> telemetry_;
  // Durable stores outlive the components journaling into them.
  std::unique_ptr<store::DurableStore> bank_store_;
  std::unique_ptr<store::DurableStore> sls_store_;
  std::vector<std::unique_ptr<store::DurableStore>> host_stores_;
  std::vector<std::unique_ptr<store::DurableStore>> fed_stores_;
  std::unique_ptr<bank::Bank> bank_;
  /// Double-spend registry for federation settlement ids (re-seeded from
  /// the shards' durable applied-sets on warm boot).
  crypto::TokenRegistry settlement_registry_;
  std::vector<std::unique_ptr<bank::federation::BankShard>> bank_shards_;
  std::unique_ptr<bank::federation::FederationRouter> federation_;
  std::unique_ptr<bank::federation::Reconciler> reconciler_;
  std::unique_ptr<crypto::CertificateAuthority> ca_;
  std::unique_ptr<market::ServiceLocationService> sls_;
  std::vector<std::unique_ptr<host::PhysicalHost>> hosts_;
  std::vector<std::unique_ptr<market::Auctioneer>> auctioneers_;
  // One per host; null while the host is crashed.
  std::vector<std::unique_ptr<market::SlsPublisher>> publishers_;
  std::unique_ptr<grid::TokenAuthorizer> authorizer_;
  std::unique_ptr<grid::TycoonSchedulerPlugin> plugin_;
  std::unique_ptr<grid::GridBroker> broker_;
  std::map<std::string, User> users_;
};

}  // namespace gm
