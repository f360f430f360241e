#include "core/grid_market.hpp"

#include <algorithm>

#include "common/strings.hpp"

namespace gm {

namespace {

store::StoreOptions MakeStoreOptions(const GridMarket::Config& config) {
  store::StoreOptions options;
  options.segment_max_bytes = config.storage.segment_max_bytes;
  options.snapshot_every_records = config.storage.snapshot_every_records;
  return options;
}

}  // namespace

GridMarket::GridMarket(Config config)
    : config_(std::move(config)), rng_(config_.seed) {
  auto group = crypto::GenerateSchnorrGroup(config_.group_p_bits,
                                            config_.group_q_bits, rng_);
  GM_ASSERT(group.ok(), "Schnorr group generation failed");
  group_ = *group;

  if (config_.telemetry.enabled) {
    telemetry_ =
        std::make_unique<telemetry::Telemetry>(config_.telemetry.trace_capacity);
  }

  bank_ = std::make_unique<bank::Bank>(group_, rng_.Next());
  ca_ = std::make_unique<crypto::CertificateAuthority>(
      crypto::DistinguishedName{"SE", "SweGrid", "CA", "SweGrid Root CA"},
      group_, rng_);
  sls_ = std::make_unique<market::ServiceLocationService>(kernel_);
  // This draw seeds nothing. It stays because every later seed and key
  // comes from rng_ in order, and the pinned scenario and benchmark
  // digests depend on that order.
  (void)rng_.Next();

  // Warm boot: recover the ledger and host directory from the journals,
  // then fast-forward the kernel past the newest recovered timestamp so
  // new events never run behind recovered state.
  sim::SimTime resume = 0;
  if (config_.storage.durable) {
    GM_ASSERT(!config_.storage.dir.empty(),
              "Config.storage.durable requires Config.storage.dir");
    auto bank_store = store::DurableStore::Open(config_.storage.dir + "/bank",
                                                MakeStoreOptions(config_));
    GM_ASSERT(bank_store.ok(), "bank store open failed");
    bank_store_ = std::move(*bank_store);
    if (telemetry_ != nullptr)
      bank_store_->AttachTelemetry(telemetry_.get(), "bank");
    bank_->AttachStore(bank_store_.get());
    GM_ASSERT(bank_->RecoverFromStore().ok(), "bank recovery failed");
    for (const bank::AuditEntry& entry : bank_->audit_log())
      resume = std::max(resume, entry.at_us);

    auto sls_store = store::DurableStore::Open(config_.storage.dir + "/sls",
                                               MakeStoreOptions(config_));
    GM_ASSERT(sls_store.ok(), "sls store open failed");
    sls_store_ = std::move(*sls_store);
    if (telemetry_ != nullptr)
      sls_store_->AttachTelemetry(telemetry_.get(), "sls");
    sls_->AttachStore(sls_store_.get());
    GM_ASSERT(sls_->RecoverFromStore().ok(), "sls recovery failed");
    for (const market::HostRecord& record : sls_->Query({}))
      resume = std::max(resume, record.updated_at);
  }

  if (config_.bank_shards > 0) {
    for (int k = 0; k < config_.bank_shards; ++k) {
      bank_shards_.push_back(std::make_unique<bank::federation::BankShard>(
          static_cast<std::size_t>(k)));
      if (telemetry_ != nullptr)
        bank_shards_.back()->AttachTelemetry(telemetry_.get());
      if (config_.storage.durable) {
        const std::string label = "fed/shard" + std::to_string(k);
        auto fed_store = store::DurableStore::Open(
            config_.storage.dir + "/" + label, MakeStoreOptions(config_));
        GM_ASSERT(fed_store.ok(), "federation shard store open failed");
        fed_stores_.push_back(std::move(*fed_store));
        if (telemetry_ != nullptr)
          fed_stores_.back()->AttachTelemetry(telemetry_.get(), label);
        bank_shards_.back()->AttachStore(fed_stores_.back().get());
        GM_ASSERT(bank_shards_.back()->RecoverFromStore().ok(),
                  "federation shard recovery failed");
      }
    }
    std::vector<bank::federation::BankShard*> shard_ptrs;
    shard_ptrs.reserve(bank_shards_.size());
    for (const auto& shard : bank_shards_) shard_ptrs.push_back(shard.get());
    federation_ = std::make_unique<bank::federation::FederationRouter>(
        std::move(shard_ptrs), &settlement_registry_);
    reconciler_ = std::make_unique<bank::federation::Reconciler>(
        federation_.get(), group_, rng_.Next());
    if (telemetry_ != nullptr) {
      federation_->AttachTelemetry(telemetry_.get());
      reconciler_->AttachTelemetry(telemetry_.get());
    }
    // Warm boot: the double-spend registry is in-memory, so re-claim
    // every durably-applied settlement id before resuming the parked
    // settlements the last process left mid-protocol.
    for (const auto& shard : bank_shards_) {
      for (const std::string& sid : shard->AppliedSettlementIds())
        // Already-claimed is the expected outcome on replay; only the
        // registration side effect matters here.
        (void)settlement_registry_.Claim(sid);
    }
    GM_ASSERT(federation_->ResumeSettlements(kernel_.now()).ok(),
              "federation settlement resume failed");
    if (config_.reconcile_every > 0) {
      kernel_.ScheduleEvery(config_.reconcile_every, config_.reconcile_every,
                            [this] { (void)reconciler_->Sweep(kernel_.now()); });
    }
  }

  if (!bank_->HasAccount("broker")) {
    GM_ASSERT(bank_->CreateAccount("broker", {}).ok(),
              "broker account creation failed");
  }
  authorizer_ = std::make_unique<grid::TokenAuthorizer>(*bank_, "broker");
  plugin_ = std::make_unique<grid::TycoonSchedulerPlugin>(
      kernel_, *sls_, *bank_, host::PackageCatalog::Default(),
      config_.plugin);
  broker_ = std::make_unique<grid::GridBroker>(kernel_, *bank_, *authorizer_,
                                               *plugin_);
  if (telemetry_ != nullptr) {
    bank_->AttachTelemetry(telemetry_.get());
    plugin_->AttachTelemetry(telemetry_.get());
    broker_->AttachTelemetry(telemetry_.get());
  }

  for (int i = 0; i < config_.hosts; ++i) {
    host::HostSpec spec;
    spec.id = StrFormat("h%02d", i);
    spec.cpus = config_.cpus_per_host;
    double speed_factor = 1.0;
    if (config_.heterogeneity > 0.0 && config_.hosts > 1) {
      const double position =
          static_cast<double>(i) / static_cast<double>(config_.hosts - 1);
      speed_factor = 1.0 + config_.heterogeneity * (2.0 * position - 1.0);
    }
    spec.cycles_per_cpu = config_.cycles_per_cpu * speed_factor;
    spec.virtualization_overhead = config_.virtualization_overhead;
    spec.work_conserving = config_.work_conserving;
    spec.vm_boot_time = config_.vm_boot_time;
    spec.max_vms = config_.max_vms_per_host;
    hosts_.push_back(std::make_unique<host::PhysicalHost>(spec));
    auctioneers_.push_back(
        std::make_unique<market::Auctioneer>(*hosts_.back(), kernel_));
    if (telemetry_ != nullptr)
      auctioneers_.back()->AttachTelemetry(telemetry_.get());
    if (config_.storage.durable) {
      auto host_store = store::DurableStore::Open(
          config_.storage.dir + "/price/" + spec.id, MakeStoreOptions(config_));
      GM_ASSERT(host_store.ok(), "host price store open failed");
      host_stores_.push_back(std::move(*host_store));
      if (telemetry_ != nullptr)
        host_stores_.back()->AttachTelemetry(telemetry_.get(),
                                             "price/" + spec.id);
      auctioneers_.back()->AttachStore(host_stores_.back().get());
      GM_ASSERT(auctioneers_.back()->RecoverHistory().ok(),
                "price history recovery failed");
      if (!auctioneers_.back()->history().empty())
        resume = std::max(resume, auctioneers_.back()->history().back().at);
    }
    if (federation_ != nullptr &&
        !federation_->HasAccount("host:" + spec.id)) {
      GM_ASSERT(federation_->CreateAccount("host:" + spec.id).ok(),
                "federation host account creation failed");
    }
    GM_ASSERT(plugin_
                  ->RegisterAuctioneer(*auctioneers_.back(),
                                       "auctioneer:" + spec.id)
                  .ok(),
              "auctioneer registration failed");
  }

  // Auctioneer ticks and SLS heartbeats start only after the clock has
  // caught up, keeping journaled timestamps monotone across restarts.
  if (resume > 0) kernel_.RunUntil(resume);
  for (std::size_t i = 0; i < auctioneers_.size(); ++i) {
    auctioneers_[i]->Start();
    publishers_.push_back(MakePublisher(i));
  }
}

std::unique_ptr<market::SlsPublisher> GridMarket::MakePublisher(
    std::size_t index) {
  return std::make_unique<market::SlsPublisher>(
      *auctioneers_[index], *sls_, config_.site, kernel_,
      config_.sls_heartbeat);
}

GridMarket::~GridMarket() = default;

Status GridMarket::RegisterUser(const std::string& name,
                                Money initial_funds) {
  if (users_.find(name) != users_.end())
    return Status::AlreadyExists("user exists: " + name);
  User user{crypto::KeyPair::Generate(group_, rng_),
            crypto::DistinguishedName{"SE", "KTH", "PDC", name}};
  GM_RETURN_IF_ERROR(bank_->CreateAccount(name, user.keys.public_key()));
  if (initial_funds.is_positive()) {
    GM_RETURN_IF_ERROR(bank_->Mint(name, initial_funds, kernel_.now()));
  }
  // Mirror the user into the bank federation: same funding, striped to
  // whichever shard owns "user:<name>". Tolerates a warm boot where the
  // shard ledger already carries the account.
  if (federation_ != nullptr && !federation_->HasAccount("user:" + name)) {
    GM_RETURN_IF_ERROR(
        federation_->CreateAccount("user:" + name, initial_funds));
  }
  const crypto::Certificate cert =
      ca_->Issue(user.dn, user.keys.public_key(), kernel_.now(),
                 kernel_.now() + 365 * sim::kDay, rng_);
  GM_RETURN_IF_ERROR(authorizer_->RegisterIdentity(cert, *ca_, kernel_.now()));
  users_.emplace(name, std::move(user));
  return Status::Ok();
}

Result<Money> GridMarket::UserBankBalance(const std::string& name) const {
  return bank_->Balance(name);
}

Result<crypto::TransferToken> GridMarket::PayBroker(const std::string& name,
                                                    Money amount) {
  const auto it = users_.find(name);
  if (it == users_.end()) return Status::NotFound("user: " + name);
  GM_ASSIGN_OR_RETURN(const std::uint64_t nonce, bank_->TransferNonce(name));
  const crypto::Signature auth = it->second.keys.Sign(
      bank::TransferAuthPayload(name, "broker", amount, nonce), rng_);
  GM_ASSIGN_OR_RETURN(
      const crypto::TransferReceipt receipt,
      bank_->Transfer(name, "broker", amount, auth, kernel_.now()));
  return crypto::MintToken(receipt, it->second.dn.ToString(),
                           it->second.keys, rng_);
}

Result<std::uint64_t> GridMarket::SubmitJob(
    const std::string& user, const grid::JobDescription& description,
    Money budget) {
  return SubmitXrsl(user, description.ToXrsl(), budget);
}

Result<std::uint64_t> GridMarket::SubmitXrsl(const std::string& user,
                                             std::string_view xrsl,
                                             Money budget) {
  // The submit span covers the whole client-side flow: pay the broker,
  // mint the transfer token, authorize and launch. Everything downstream
  // (fund-verify, bid, auction ticks, refund) joins the same trace.
  telemetry::TraceId trace = 0;
  telemetry::SpanId submit_span = 0;
  if (telemetry_ != nullptr) {
    trace = telemetry_->tracer().NewTrace();
    submit_span = telemetry_->tracer().BeginSpan(
        trace, "submit", "user=" + user, kernel_.now());
  }
  const auto finish = [&](bool ok) {
    if (submit_span != 0) {
      telemetry_->tracer().EndSpan(submit_span, kernel_.now(),
                                   ok ? telemetry::SpanStatus::kOk
                                      : telemetry::SpanStatus::kError);
    }
  };
  const auto token = PayBroker(user, budget);
  if (!token.ok()) {
    finish(false);
    return token.status();
  }
  const auto job = broker_->Submit(xrsl, *token, trace);
  finish(job.ok());
  return job;
}

Status GridMarket::BoostJob(const std::string& user, std::uint64_t job_id,
                            Money amount) {
  GM_ASSIGN_OR_RETURN(const crypto::TransferToken token,
                      PayBroker(user, amount));
  return broker_->Boost(job_id, token);
}

Result<const grid::JobRecord*> GridMarket::Job(std::uint64_t job_id) const {
  return broker_->Job(job_id);
}

std::vector<const grid::JobRecord*> GridMarket::Jobs() const {
  return broker_->Jobs();
}

market::Auctioneer& GridMarket::auctioneer(std::size_t index) {
  GM_ASSERT(index < auctioneers_.size(), "auctioneer index out of range");
  return *auctioneers_[index];
}

const market::Auctioneer& GridMarket::auctioneer(std::size_t index) const {
  GM_ASSERT(index < auctioneers_.size(), "auctioneer index out of range");
  return *auctioneers_[index];
}

void GridMarket::InstantOnActiveTraces(const char* name,
                                       const std::string& detail) {
  if (telemetry_ == nullptr) return;
  for (const grid::JobRecord* job : plugin_->jobs()) {
    if (job->trace == 0 || grid::IsTerminal(job->state)) continue;
    telemetry_->tracer().Instant(job->trace, name, detail, kernel_.now());
  }
}

Status GridMarket::CrashHost(std::size_t index) {
  if (index >= auctioneers_.size())
    return Status::InvalidArgument("host index out of range");
  if (publishers_[index] == nullptr)
    return Status::FailedPrecondition("host already crashed");
  auctioneers_[index]->Stop();
  // The host stops heartbeating: its SLS record ages out and the
  // scheduler treats it as dead from then on.
  publishers_[index].reset();
  // With a journal behind it, a crash genuinely loses the in-memory
  // price window; in-memory mode keeps it (nothing to recover from).
  if (config_.storage.durable) auctioneers_[index]->CrashStorageState();
  InstantOnActiveTraces(
      "host-crash", "host=" + auctioneers_[index]->physical_host().id());
  return Status::Ok();
}

Status GridMarket::RestartHost(std::size_t index) {
  if (index >= auctioneers_.size())
    return Status::InvalidArgument("host index out of range");
  if (publishers_[index] != nullptr)
    return Status::FailedPrecondition("host is not crashed");
  if (config_.storage.durable) {
    GM_RETURN_IF_ERROR(auctioneers_[index]->RecoverHistory().status());
  }
  auctioneers_[index]->Start();
  // The publisher heartbeats once on construction.
  publishers_[index] = MakePublisher(index);
  InstantOnActiveTraces(
      "host-restart", "host=" + auctioneers_[index]->physical_host().id());
  return Status::Ok();
}

Status GridMarket::CrashBank() {
  if (!config_.storage.durable)
    return Status::FailedPrecondition(
        "CrashBank requires durable storage (Config.storage.durable)");
  bank_->SimulateCrash();
  InstantOnActiveTraces("bank-crash", "ledger wiped");
  return Status::Ok();
}

Status GridMarket::RestartBank() {
  if (!config_.storage.durable)
    return Status::FailedPrecondition(
        "RestartBank requires durable storage (Config.storage.durable)");
  GM_RETURN_IF_ERROR(bank_->Restart());
  InstantOnActiveTraces("bank-restart", "ledger replayed from WAL");
  return Status::Ok();
}

bank::federation::BankShard& GridMarket::bank_shard(std::size_t index) {
  GM_ASSERT(index < bank_shards_.size(), "bank shard index out of range");
  return *bank_shards_[index];
}

Status GridMarket::CrashBankShard(std::size_t index) {
  if (federation_ == nullptr)
    return Status::FailedPrecondition(
        "no bank federation (Config.bank_shards == 0)");
  if (index >= bank_shards_.size())
    return Status::InvalidArgument("bank shard index out of range");
  if (!config_.storage.durable)
    return Status::FailedPrecondition(
        "CrashBankShard requires durable storage (Config.storage.durable)");
  bank_shards_[index]->SimulateCrash();
  InstantOnActiveTraces("bank-shard-crash",
                        "shard=" + std::to_string(index));
  return Status::Ok();
}

Status GridMarket::RestartBankShard(std::size_t index) {
  if (federation_ == nullptr)
    return Status::FailedPrecondition(
        "no bank federation (Config.bank_shards == 0)");
  if (index >= bank_shards_.size())
    return Status::InvalidArgument("bank shard index out of range");
  if (!config_.storage.durable)
    return Status::FailedPrecondition(
        "RestartBankShard requires durable storage (Config.storage.durable)");
  GM_RETURN_IF_ERROR(bank_shards_[index]->Restart());
  // Finish whatever the crash parked, in both directions: this shard's
  // replayed holds whose credits were never applied, and other shards'
  // holds that were waiting on this shard to come back.
  GM_RETURN_IF_ERROR(federation_->ResumeSettlements(kernel_.now()));
  InstantOnActiveTraces("bank-shard-restart",
                        "shard=" + std::to_string(index));
  return Status::Ok();
}

Result<bank::federation::ReconciliationReport> GridMarket::Reconcile() {
  if (reconciler_ == nullptr)
    return Status::FailedPrecondition(
        "no bank federation (Config.bank_shards == 0)");
  return reconciler_->Sweep(kernel_.now());
}

std::string GridMarket::FederationMonitor() const {
  if (federation_ == nullptr)
    return "federation: disabled (Config.bank_shards == 0)\n";
  std::vector<bank::federation::ShardSnapshotInfo> shards;
  shards.reserve(bank_shards_.size());
  for (const auto& shard : bank_shards_)
    shards.push_back(shard->SnapshotInfo());
  const auto last = reconciler_->LastReport();
  return grid::RenderFederationTable(shards,
                                     last.ok() ? &*last : nullptr);
}

std::vector<grid::HostHealthInfo> GridMarket::HostHealthReport() const {
  return plugin_->HostHealthReport();
}

std::string GridMarket::HealthMonitor() const {
  return grid::RenderHealthTable(plugin_->HostHealthReport());
}

std::vector<grid::StoreRow> GridMarket::StoreRows() const {
  std::vector<grid::StoreRow> rows;
  if (!config_.storage.durable) return rows;
  rows.push_back({"bank", bank_store_->stats()});
  rows.push_back({"sls", sls_store_->stats()});
  for (std::size_t i = 0; i < host_stores_.size(); ++i) {
    rows.push_back({"price/" + auctioneers_[i]->physical_host().id(),
                    host_stores_[i]->stats()});
  }
  for (std::size_t k = 0; k < fed_stores_.size(); ++k) {
    rows.push_back(
        {"fed/shard" + std::to_string(k), fed_stores_[k]->stats()});
  }
  return rows;
}

std::string GridMarket::StorageMonitor() const {
  if (!config_.storage.durable) return "storage: in-memory (no journals)\n";
  return grid::RenderStoreTable(StoreRows());
}

Result<std::vector<predict::HostPriceStats>> GridMarket::HostPriceStats(
    const std::string& window) const {
  std::vector<predict::HostPriceStats> stats;
  stats.reserve(auctioneers_.size());
  for (const auto& auctioneer : auctioneers_) {
    GM_ASSIGN_OR_RETURN(const market::WindowMoments* moments,
                        auctioneer->Moments(window));
    predict::HostPriceStats host;
    host.host_id = auctioneer->physical_host().id();
    host.capacity = auctioneer->physical_host().PerCpuCapacity();
    // Window moments track $/s per cycles/s; Eq. 6 wants whole-host $/s.
    const double to_host_price = auctioneer->physical_host().TotalCapacity();
    host.mean_price = moments->mean() * to_host_price;
    host.stddev_price = moments->stddev() * to_host_price;
    stats.push_back(std::move(host));
  }
  return stats;
}

Result<telemetry::MetricsSnapshot> GridMarket::CollectMetrics() {
  if (telemetry_ == nullptr)
    return Status::FailedPrecondition(
        "telemetry disabled (Config.telemetry.enabled)");
  // Pull-based collection: mirror the totals that components keep in
  // their own structs (the structs the monitor tables render) into the
  // registry.
  for (const grid::StoreRow& row : StoreRows())
    grid::MirrorStoreStats(row, telemetry_->metrics());
  if (federation_ != nullptr) {
    for (const auto& shard : bank_shards_)
      grid::MirrorFederationStats(shard->SnapshotInfo(),
                                  telemetry_->metrics());
    const auto last = reconciler_->LastReport();
    if (last.ok())
      grid::MirrorReconciliationStatus(*last, telemetry_->metrics());
  }
  return telemetry_->metrics().Snapshot();
}

Status GridMarket::WriteTelemetryJsonl(const std::string& path) {
  GM_RETURN_IF_ERROR(CollectMetrics().status());
  return telemetry_->WriteJsonl(path);
}

Result<std::vector<telemetry::SpanEvent>> GridMarket::JobTrace(
    std::uint64_t job_id) const {
  if (telemetry_ == nullptr)
    return Status::FailedPrecondition(
        "telemetry disabled (Config.telemetry.enabled)");
  GM_ASSIGN_OR_RETURN(const grid::JobRecord* job, broker_->Job(job_id));
  if (job->trace == 0)
    return Status::NotFound("job has no trace (submitted before telemetry?)");
  return telemetry_->tracer().EventsFor(job->trace);
}

std::string GridMarket::Monitor() const {
  std::vector<const market::Auctioneer*> views;
  views.reserve(auctioneers_.size());
  for (const auto& auctioneer : auctioneers_) views.push_back(auctioneer.get());
  return grid::RenderMonitor(views, broker_->Jobs(), kernel_.now());
}

}  // namespace gm
