#include "grid/plugin.hpp"

#include <algorithm>
#include <cmath>

#include "common/log.hpp"
#include "common/strings.hpp"

namespace gm::grid {

const char* HostHealthStateName(HostHealthState state) {
  switch (state) {
    case HostHealthState::kHealthy: return "HEALTHY";
    case HostHealthState::kSuspect: return "SUSPECT";
    case HostHealthState::kDead: return "DEAD";
  }
  return "?";
}

TycoonSchedulerPlugin::TycoonSchedulerPlugin(
    sim::Kernel& kernel, market::ServiceLocationService& sls,
    bank::Bank& bank, host::PackageCatalog catalog, PluginConfig config)
    : kernel_(kernel), sls_(sls), bank_(bank), catalog_(std::move(catalog)),
      config_(config) {}

TycoonSchedulerPlugin::~TycoonSchedulerPlugin() {
  if (liveness_timer_.valid()) kernel_.Cancel(liveness_timer_);
}

void TycoonSchedulerPlugin::AttachTelemetry(telemetry::Telemetry* telemetry) {
  telemetry_ = telemetry;
  migrations_counter_ =
      telemetry != nullptr
          ? telemetry->metrics().GetCounter("grid.agent.migrations")
          : nullptr;
}

void TycoonSchedulerPlugin::EndOpenJobSpans(ActiveJob& job,
                                            telemetry::SpanStatus status) {
  if (telemetry_ == nullptr) return;
  const sim::SimTime now = kernel_.now();
  for (telemetry::SpanId* span :
       {&job.bid_span, &job.stage_in_span, &job.execute_span,
        &job.stage_out_span}) {
    if (*span != 0) {
      telemetry_->tracer().EndSpan(*span, now, status);
      *span = 0;
    }
  }
}

Status TycoonSchedulerPlugin::RegisterAuctioneer(
    market::Auctioneer& auctioneer, const std::string& bank_account) {
  const std::string host_id = auctioneer.physical_host().id();
  if (auctioneers_.find(host_id) != auctioneers_.end())
    return Status::AlreadyExists("auctioneer registered: " + host_id);
  if (!bank_.HasAccount(bank_account)) {
    GM_RETURN_IF_ERROR(bank_.CreateAccount(bank_account, {}));
  }
  AuctioneerEntry entry;
  entry.auctioneer = &auctioneer;
  entry.bank_account = bank_account;
  auctioneers_.emplace(host_id, std::move(entry));
  return Status::Ok();
}

HostHealthInfo TycoonSchedulerPlugin::HealthOf(
    const std::string& host_id) const {
  HostHealthInfo info;
  info.host_id = host_id;
  // Lookup fails once the record expired or was removed.
  const auto record = sls_.Lookup(host_id);
  if (!record.ok()) {
    info.state = HostHealthState::kDead;
    return info;
  }
  info.last_heartbeat = record->updated_at;
  if (kernel_.now() - record->updated_at > sls_.ttl() / 2)
    info.state = HostHealthState::kSuspect;
  return info;
}

void TycoonSchedulerPlugin::CheckLiveness() {
  // Look up each host bound to a live job once, however many jobs it
  // serves; the common case finds no dead host and returns.
  std::vector<const market::Auctioneer*> bound;
  for (const auto& [job_id, job] : jobs_) {
    (void)job_id;
    if (IsTerminal(job.record.state)) continue;
    for (const HostBinding& binding : job.hosts)
      if (!binding.dead) bound.push_back(binding.auctioneer);
  }
  std::sort(bound.begin(), bound.end());
  bound.erase(std::unique(bound.begin(), bound.end()), bound.end());
  std::vector<const market::Auctioneer*> dead;
  for (const market::Auctioneer* auctioneer : bound) {
    if (HostHealth(auctioneer->physical_host().id()) == HostHealthState::kDead)
      dead.push_back(auctioneer);
  }
  if (dead.empty()) return;
  // Migrate in job and binding order, so runs stay deterministic.
  for (auto& [job_id, job] : jobs_) {
    (void)job_id;
    if (IsTerminal(job.record.state)) continue;
    for (const HostBinding& binding : job.hosts) {
      if (!binding.dead &&
          std::binary_search(dead.begin(), dead.end(), binding.auctioneer))
        MigrateJobOffHost(job, binding.auctioneer->physical_host().id());
    }
  }
}

void TycoonSchedulerPlugin::MigrateJobOffHost(ActiveJob& job,
                                              const std::string& host_id) {
  JobRecord& record = job.record;
  bool touched = false;
  Money reclaimed;
  for (HostBinding& binding : job.hosts) {
    if (binding.dead ||
        binding.auctioneer->physical_host().id() != host_id)
      continue;
    binding.dead = true;
    touched = true;
    ++migrations_;
    if (migrations_counter_ != nullptr) migrations_counter_->Inc();
    // Reclaim the host account through the bank escrow mirror. The
    // auctioneer's books are co-located bookkeeping for the deposit held in
    // `bank_account`, so the broker can recover unspent funds even though
    // the host itself no longer answers.
    if (binding.auctioneer->HasAccount(record.account)) {
      record.spent +=
          binding.auctioneer->Spent(record.account).value_or(Money::Zero());
      const auto refund = binding.auctioneer->CloseAccount(record.account);
      if (refund.ok() && refund->is_positive()) {
        const auto mirrored = bank_.InternalTransfer(
            binding.bank_account, record.account, *refund, kernel_.now());
        GM_ASSERT(mirrored.ok(), "migration reclaim transfer failed");
        reclaimed += *refund;
      }
    }
  }
  if (!touched) return;
  GM_LOG_INFO << "job " << record.id << ": migrating off dead host "
              << host_id;
  if (telemetry_ != nullptr && record.trace != 0) {
    telemetry_->tracer().Instant(
        record.trace, "migrate",
        StrFormat("job=%llu host=%s", static_cast<unsigned long long>(record.id),
                  host_id.c_str()),
        kernel_.now(), reclaimed.dollars());
  }

  // Requeue incomplete chunks that were bound to the dead host (their VM
  // died with the account). Duplicates from speculation are harmless: the
  // first completion wins.
  for (SubJobRecord& subjob : record.subjobs) {
    if (subjob.completed || subjob.host_id != host_id) continue;
    subjob.host_id.clear();
    subjob.vm_id.clear();
    subjob.enqueued_at = -1;
    job.speculated.erase(subjob.ordinal);
    job.unassigned.push_front(subjob.ordinal);
  }

  // Survivors: bindings still alive for this job.
  std::vector<std::size_t> survivors;
  for (std::size_t h = 0; h < job.hosts.size(); ++h) {
    if (!job.hosts[h].dead &&
        job.hosts[h].auctioneer->HasAccount(record.account))
      survivors.push_back(h);
  }
  if (survivors.empty()) {
    // Nothing left to run on; the expiry watchdog finalizes the job and
    // the reclaimed funds stay refundable in the sub-account.
    GM_LOG_WARN << "job " << record.id << ": no surviving hosts";
    return;
  }

  // Re-run Best Response over the surviving hosts and push the reclaimed
  // funds (whatever sits in the sub-account) to them.
  const Money pool = bank_.Balance(record.account).value_or(Money::Zero());
  Money live_balance;
  std::vector<br::HostBidInput> inputs;
  inputs.reserve(survivors.size());
  for (const std::size_t h : survivors) {
    market::Auctioneer& auctioneer = *job.hosts[h].auctioneer;
    live_balance +=
        auctioneer.Balance(record.account).value_or(Money::Zero());
    inputs.push_back({auctioneer.physical_host().id(),
                      auctioneer.physical_host().PerCpuCapacity(),
                      auctioneer.SpotPriceRateExcluding(record.account)});
  }
  const double horizon_seconds = std::max(
      60.0, sim::ToSeconds(std::max(job.spend_target, kernel_.now() +
                                                          sim::Minutes(1)) -
                           kernel_.now()));
  const Rate budget_rate = Spread(pool + live_balance, horizon_seconds);
  const auto solution = solver_.Solve(inputs, budget_rate);

  Money distributed;
  double bid_total = 0.0;
  if (solution.ok())
    for (const auto& allocation : solution->bids)
      bid_total += allocation.bid.dollars_per_sec();
  for (std::size_t k = 0; k < survivors.size(); ++k) {
    HostBinding& binding = job.hosts[survivors[k]];
    // Proportional to the re-solved bids; uniform when the solver degenerates.
    Money share;
    if (k + 1 == survivors.size()) {
      share = pool - distributed;
    } else if (solution.ok() && bid_total > 0.0) {
      share = Money::FromMicros(static_cast<Micros>(
          std::llround(static_cast<double>(pool.micros()) *
                       solution->bids[k].bid.dollars_per_sec() / bid_total)));
    } else {
      share = Money::FromMicros(pool.micros() /
                                static_cast<Micros>(survivors.size()));
    }
    share = Min(share, pool - distributed);
    if (share.is_positive()) {
      const Status funded = FundHost(job, binding, share);
      GM_ASSERT(funded.ok(), "migration refund redistribution failed");
      distributed += share;
    }
    if (solution.ok() && solution->bids[k].bid.is_positive()) {
      const Status rebid = binding.auctioneer->SetBid(
          record.account, solution->bids[k].bid, record.deadline);
      if (!rebid.ok()) {
        GM_LOG_WARN << "job " << record.id << ": re-bid after migration on "
                    << binding.auctioneer->physical_host().id()
                    << " failed: " << rebid.ToString();
      }
    }
  }
  // Put the requeued chunks back to work on idle surviving VMs.
  if (record.state == JobState::kRunning) {
    for (const std::size_t h : survivors) DispatchChunk(job, h);
  }
}

Cycles TycoonSchedulerPlugin::ChunkCycles(
    const JobDescription& description) const {
  return description.cpu_time_minutes * 60.0 * config_.reference_capacity;
}

sim::SimDuration TycoonSchedulerPlugin::StageDuration(
    const std::vector<StagedFile>& files) const {
  double total_mb = 0.0;
  for (const StagedFile& file : files) total_mb += file.size_mb;
  return sim::Seconds(total_mb / config_.stage_bandwidth_mb_per_s);
}

Result<std::uint64_t> TycoonSchedulerPlugin::Launch(JobRecord job) {
  if (job.state != JobState::kAuthorized)
    return Status::FailedPrecondition("job must be authorized to launch");
  if (!job.budget.is_positive())
    return Status::InvalidArgument("job has no budget");
  if (!bank_.HasAccount(job.account))
    return Status::NotFound("job sub-account missing: " + job.account);

  const std::uint64_t id = next_job_id_++;
  job.id = id;
  if (job.submitted_at < 0) job.submitted_at = kernel_.now();
  job.deadline = kernel_.now() +
                 sim::Minutes(job.description.wall_time_minutes *
                              config_.expiry_factor);
  ActiveJob& active = jobs_[id];
  active.record = std::move(job);
  active.spend_target =
      kernel_.now() +
      sim::Minutes(active.record.description.wall_time_minutes);

  const Status scheduled = Schedule(active);
  if (!scheduled.ok()) {
    active.record.failure = scheduled.ToString();
    Finalize(active, JobState::kFailed);
    return id;  // the job exists, in FAILED state, funds refunded
  }
  // Liveness checks start with the first scheduled job and run once per
  // SLS TTL, so a crashed host's jobs move off it within two TTLs of its
  // last heartbeat.
  if (!liveness_timer_.valid()) {
    liveness_timer_ = kernel_.ScheduleEvery(sls_.ttl(), sls_.ttl(),
                                            [this] { CheckLiveness(); });
  }
  // Deadline watchdog.
  active.expiry = kernel_.ScheduleAt(active.record.deadline, [this, id] {
    const auto it = jobs_.find(id);
    if (it == jobs_.end() || IsTerminal(it->second.record.state)) return;
    GM_LOG_INFO << "job " << id << " expired at deadline";
    Finalize(it->second, JobState::kExpired);
  });
  return id;
}

Status TycoonSchedulerPlugin::Schedule(ActiveJob& job) {
  JobRecord& record = job.record;
  GM_RETURN_IF_ERROR(AdvanceState(record, JobState::kScheduling,
                                  kernel_.now()));
  if (telemetry_ != nullptr && record.trace != 0 && job.bid_span == 0) {
    job.bid_span = telemetry_->tracer().BeginSpan(
        record.trace, "bid",
        StrFormat("job=%llu", static_cast<unsigned long long>(record.id)),
        kernel_.now());
  }

  // 0. Fail fast on unsatisfiable runtime environments, before any money
  // moves (a mid-loop failure would otherwise strand funded host accounts).
  for (const std::string& env : record.description.runtime_environments) {
    if (!catalog_.Has(env)) {
      return Status::NotFound("runtime environment not in catalog: " + env);
    }
  }

  // 1. Candidate hosts from the SLS.
  market::HostQuery query;
  query.require_vm_slot = true;
  query.limit = static_cast<std::size_t>(record.description.count) *
                config_.candidate_multiplier;
  // Query already drops hosts whose records expired (dead hosts); keep
  // only those whose auctioneer we can reach.
  std::vector<market::HostRecord> candidates = sls_.Query(query);
  candidates.erase(
      std::remove_if(candidates.begin(), candidates.end(),
                     [this](const market::HostRecord& record) {
                       return auctioneers_.find(record.host_id) ==
                              auctioneers_.end();
                     }),
      candidates.end());
  if (candidates.empty())
    return Status::Unavailable("no market hosts available");

  // 2. Best Response over the candidates. The budget becomes a spend rate
  // over the wall-time deadline; prices are the hosts' current total bid
  // rates in $/s.
  const double deadline_seconds =
      record.description.wall_time_minutes * 60.0;
  const Rate budget_rate = Spread(record.budget, deadline_seconds);
  auto solve_over = [&](const std::vector<market::HostRecord>& hosts)
      -> Result<br::BestResponseResult> {
    std::vector<br::HostBidInput> inputs;
    inputs.reserve(hosts.size());
    for (const market::HostRecord& host : hosts) {
      const double host_price =
          host.price_per_capacity * host.cycles_per_cpu * host.cpus;
      inputs.push_back(
          {host.host_id, host.cycles_per_cpu, Rate::DollarsPerSec(host_price)});
    }
    return solver_.Solve(inputs, budget_rate);
  };
  GM_ASSIGN_OR_RETURN(br::BestResponseResult solution,
                      solve_over(candidates));

  // 3. Keep at most `count` hosts, ranked by the utility each contributes
  // (w_j * expected share). Ranking by bid size would be wrong: Best
  // Response bids almost nothing on idle hosts precisely because their
  // capacity is nearly free, yet those are the most valuable picks.
  std::vector<std::size_t> order(candidates.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  const auto contribution = [&](std::size_t i) {
    if (config_.host_selection == PluginConfig::HostSelection::kBidSize)
      return solution.bids[i].bid.dollars_per_sec();
    return candidates[i].cycles_per_cpu * solution.bids[i].expected_share;
  };
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return contribution(a) > contribution(b);
  });
  std::vector<market::HostRecord> selected;
  for (const std::size_t i : order) {
    if (selected.size() >=
        static_cast<std::size_t>(record.description.count))
      break;
    // Outside the active set: Best Response found this host not worth
    // bidding on at this budget.
    if (!solution.bids[i].bid.is_positive()) continue;
    selected.push_back(candidates[i]);
  }
  if (selected.empty())
    return Status::Unavailable("best response placed no bids");
  // Re-solve over the final host set so bids align with `selected` and the
  // whole budget lands on hosts the job actually uses.
  GM_ASSIGN_OR_RETURN(solution, solve_over(selected));

  // 4. Fund accounts, create VMs, provision runtime environments.
  Money distributed;
  double bid_total = 0.0;
  for (const auto& allocation : solution.bids)
    bid_total += allocation.bid.dollars_per_sec();
  for (std::size_t i = 0; i < selected.size(); ++i) {
    const market::HostRecord& host = selected[i];
    const Rate bid = solution.bids[i].bid;
    AuctioneerEntry& entry = auctioneers_.at(host.host_id);
    market::Auctioneer* auctioneer = entry.auctioneer;

    // The SLS record can be a heartbeat old: a host that has since
    // reached its VM limit cannot take this job, so skip it before any
    // money moves.
    host::PhysicalHost& physical = auctioneer->physical_host();
    if (physical.vm_count() >=
            static_cast<std::size_t>(physical.spec().max_vms) &&
        physical.FindVmByOwner(record.account) == nullptr)
      continue;

    HostBinding binding;
    binding.auctioneer = auctioneer;
    binding.bank_account = entry.bank_account;

    if (!auctioneer->HasAccount(record.account)) {
      GM_RETURN_IF_ERROR(auctioneer->OpenAccount(record.account));
    }
    // Budget share proportional to the bid; the last host gets the
    // remainder so micro-dollars add up exactly.
    Money share =
        i + 1 == selected.size()
            ? record.budget - distributed
            : Money::FromMicros(static_cast<Micros>(std::llround(
                  static_cast<double>(record.budget.micros()) *
                  bid.dollars_per_sec() / bid_total)));
    share = Min(share, record.budget - distributed);
    if (!share.is_positive()) continue;
    GM_RETURN_IF_ERROR(FundHost(job, binding, share));
    distributed += share;

    const auto vm = auctioneer->AcquireVm(record.account);
    if (!vm.ok()) {
      GM_LOG_WARN << "job " << record.id << ": VM on " << host.host_id
                  << " failed: " << vm.status().ToString();
      // Undo the funding so no money is stranded on a host we cannot use.
      GM_RETURN_IF_ERROR(ReclaimHost(record, binding, distributed));
      continue;
    }
    binding.vm_id = (*vm)->id();
    // Provision runtime environments inside the VM (yum model).
    std::map<std::string, bool> installed;
    for (const std::string& env : record.description.runtime_environments) {
      if ((*vm)->HasRuntime(env)) {
        installed[env] = true;
        continue;
      }
      const Result<sim::SimDuration> install_time =
          catalog_.InstallTime(env, installed);
      if (!install_time.ok()) {
        // The binding is not in job.hosts yet, so teardown would never
        // settle its escrow — reclaim before surfacing the failure.
        GM_RETURN_IF_ERROR(ReclaimHost(record, binding, distributed));
        return install_time.status();
      }
      (*vm)->ExtendProvisioning(*install_time);
      (*vm)->MarkRuntimeInstalled(env);
    }
    // Bid: a spend rate held until the deadline (the auctioneer quantizes
    // it to whole micro-dollars per second, its ledger grid).
    const Status bid_set =
        auctioneer->SetBid(record.account, bid, record.deadline);
    if (!bid_set.ok()) {
      // Same stranding hazard as a failed install: nothing references
      // this funded account yet.
      GM_RETURN_IF_ERROR(ReclaimHost(record, binding, distributed));
      return bid_set;
    }
    record.hosts_used.push_back(host.host_id);
    job.hosts.push_back(std::move(binding));
  }
  if (job.hosts.empty())
    return Status::Unavailable("no host could run a VM for the job");

  if (job.bid_span != 0) {
    telemetry_->tracer().EndSpan(job.bid_span, kernel_.now(),
                                 telemetry::SpanStatus::kOk);
    job.bid_span = 0;
  }
  BeginStaging(job);
  return Status::Ok();
}

// Escrow moves into the host's market account; it is settled by
// CloseAccount at job completion or reclaimed on caller failure paths.
// gmlint: money-sink(hold outlives the call; settled at job teardown)
Status TycoonSchedulerPlugin::FundHost(ActiveJob& job, HostBinding& binding,
                                       Money amount) {
  JobRecord& record = job.record;
  // Mirror the deposit in the bank (conservation), then credit the
  // host-local market account.
  GM_RETURN_IF_ERROR(bank_.InternalTransfer(record.account,
                                            binding.bank_account, amount,
                                            kernel_.now())
                         .status());
  GM_RETURN_IF_ERROR(binding.auctioneer->Fund(record.account, amount));
  // Tag the market account so the auctioneer's charged ticks land in the
  // job's trace. Deliberate discard: tracing is advisory and must never
  // fail a funding path.
  if (telemetry_ != nullptr && record.trace != 0)
    (void)binding.auctioneer->SetAccountTrace(record.account, record.trace);
  return Status::Ok();
}

Status TycoonSchedulerPlugin::ReclaimHost(JobRecord& record,
                                          HostBinding& binding,
                                          Money& distributed) {
  // The account may already be gone (host died between funding and the
  // failure); a failed close means there is nothing left to reclaim.
  const auto refund = binding.auctioneer->CloseAccount(record.account);
  if (refund.ok() && refund->is_positive()) {
    GM_RETURN_IF_ERROR(bank_.InternalTransfer(binding.bank_account,
                                              record.account, *refund,
                                              kernel_.now())
                           .status());
    distributed -= *refund;
  }
  return Status::Ok();
}

void TycoonSchedulerPlugin::BeginStaging(ActiveJob& job) {
  JobRecord& record = job.record;
  GM_ASSERT(AdvanceState(record, JobState::kStagingIn, kernel_.now()).ok(),
            "staging transition");
  if (telemetry_ != nullptr && record.trace != 0) {
    job.stage_in_span = telemetry_->tracer().BeginSpan(
        record.trace, "stage-in",
        StrFormat("job=%llu", static_cast<unsigned long long>(record.id)),
        kernel_.now());
  }
  const sim::SimDuration stage_in =
      StageDuration(record.description.input_files);
  const std::uint64_t id = record.id;
  kernel_.ScheduleAfter(stage_in, [this, id] {
    const auto it = jobs_.find(id);
    if (it == jobs_.end() || IsTerminal(it->second.record.state)) return;
    StartDispatch(it->second);
  });
}

void TycoonSchedulerPlugin::StartDispatch(ActiveJob& job) {
  JobRecord& record = job.record;
  GM_ASSERT(AdvanceState(record, JobState::kRunning, kernel_.now()).ok(),
            "running transition");
  if (job.stage_in_span != 0) {
    telemetry_->tracer().EndSpan(job.stage_in_span, kernel_.now(),
                                 telemetry::SpanStatus::kOk);
    job.stage_in_span = 0;
  }
  if (telemetry_ != nullptr && record.trace != 0) {
    job.execute_span = telemetry_->tracer().BeginSpan(
        record.trace, "execute",
        StrFormat("job=%llu chunks=%d",
                  static_cast<unsigned long long>(record.id),
                  record.description.TotalChunks()),
        kernel_.now());
  }
  const int total = record.description.TotalChunks();
  record.subjobs.resize(static_cast<std::size_t>(total));
  job.pending_chunks = total;
  for (int ordinal = 0; ordinal < total; ++ordinal) {
    record.subjobs[static_cast<std::size_t>(ordinal)].ordinal = ordinal;
    job.unassigned.push_back(ordinal);
  }
  // Each VM pulls its first chunk; the rest are dispatched as VMs free up
  // (bag-of-tasks master). Slow, contested hosts therefore end up running
  // few or no chunks — the effect behind the paper's "Nodes" column.
  for (std::size_t h = 0; h < job.hosts.size(); ++h) DispatchChunk(job, h);

  if (config_.rebid_period > 0) {
    const std::uint64_t id = record.id;
    job.rebid = kernel_.ScheduleEvery(
        config_.rebid_period, config_.rebid_period, [this, id] {
          const auto it = jobs_.find(id);
          if (it == jobs_.end() || IsTerminal(it->second.record.state))
            return;
          Rebid(it->second);
        });
    Rebid(job);
  }
}

void TycoonSchedulerPlugin::Rebid(ActiveJob& job) {
  JobRecord& record = job.record;
  // Work still owed, assuming incomplete chunks need their full cycles
  // (a slight overestimate that buys deadline safety).
  int incomplete = 0;
  for (const SubJobRecord& subjob : record.subjobs)
    if (!subjob.completed) ++incomplete;
  if (incomplete == 0) return;
  const Cycles remaining_cycles = incomplete * ChunkCycles(record.description);

  // Time left to the spend target; once past it, keep pushing with a
  // rolling quarter-wallTime window (the job is late, not abandoned).
  const sim::SimDuration window = std::max<sim::SimDuration>(
      job.spend_target - kernel_.now(),
      sim::Minutes(record.description.wall_time_minutes / 4.0));
  const double seconds = sim::ToSeconds(window);
  const CyclesPerSecond required = remaining_cycles / seconds;

  // Live hosts and their capacities.
  std::vector<std::size_t> live;
  double live_capacity = 0.0;
  for (std::size_t h = 0; h < job.hosts.size(); ++h) {
    if (job.hosts[h].auctioneer->HasAccount(record.account)) {
      live.push_back(h);
      live_capacity +=
          job.hosts[h].auctioneer->physical_host().PerCpuCapacity();
    }
  }
  if (live.empty() || live_capacity <= 0.0) return;
  // Needed fraction of the fleet, spread uniformly over the live hosts.
  const double fleet_share =
      std::min(config_.max_target_share, required / live_capacity);

  for (const std::size_t h : live) {
    HostBinding& binding = job.hosts[h];
    market::Auctioneer& auctioneer = *binding.auctioneer;
    const double share = fleet_share;
    const Rate others = auctioneer.SpotPriceRateExcluding(record.account);
    // Hold share s against price y: x = y s / (1 - s); floor of 1 u$/s
    // keeps an idle host claimed.
    const double rate_raw =
        static_cast<double>(others.micros_per_sec()) * share / (1.0 - share);
    Micros rate_micros = std::max<Micros>(
        1, static_cast<Micros>(std::llround(rate_raw)));
    // Affordability: never bid faster than the host account can sustain
    // until the reap deadline — a starved job that conserves its funds can
    // still finish cheaply once richer competitors leave the market.
    const double seconds_to_reap =
        std::max(60.0, sim::ToSeconds(record.deadline - kernel_.now()));
    const Money balance =
        auctioneer.Balance(record.account).value_or(Money::Zero());
    const Micros affordable = static_cast<Micros>(
        static_cast<double>(balance.micros()) / seconds_to_reap);
    rate_micros = std::min(rate_micros, std::max<Micros>(1, affordable));
    const Status rebid = auctioneer.SetBid(
        record.account, Rate::MicrosPerSec(rate_micros), record.deadline);
    if (!rebid.ok()) {
      GM_LOG_WARN << "job " << record.id << ": adaptive re-bid on "
                  << auctioneer.physical_host().id()
                  << " failed: " << rebid.ToString();
    }
  }
}

bool TycoonSchedulerPlugin::DispatchChunk(ActiveJob& job,
                                          std::size_t host_index) {
  JobRecord& record = job.record;
  HostBinding& binding = job.hosts[host_index];
  if (binding.busy || binding.dead) return false;
  int ordinal = -1;
  if (!job.unassigned.empty()) {
    ordinal = job.unassigned.front();
    job.unassigned.pop_front();
  } else if (config_.speculative_execution) {
    // No fresh work: speculatively re-execute the oldest straggler
    // (classic backup-task mitigation; the first completion wins and the
    // duplicate's cycles are simply paid for). At most one duplicate per
    // chunk, never on the VM already running it.
    sim::SimTime oldest = kernel_.now();
    for (const SubJobRecord& subjob : record.subjobs) {
      if (!subjob.completed && subjob.enqueued_at >= 0 &&
          subjob.enqueued_at < oldest && subjob.vm_id != binding.vm_id &&
          job.speculated.find(subjob.ordinal) == job.speculated.end()) {
        oldest = subjob.enqueued_at;
        ordinal = subjob.ordinal;
      }
    }
    if (ordinal < 0) return false;
    job.speculated.insert(ordinal);
  } else {
    return false;
  }
  const auto vm = binding.auctioneer->physical_host().GetVm(binding.vm_id);
  if (!vm.ok()) {
    // The VM is gone (host account closed): put fresh work back so another
    // host can pick it up; a failed speculative copy is simply dropped.
    if (job.speculated.find(ordinal) == job.speculated.end()) {
      job.unassigned.push_front(ordinal);
    } else {
      job.speculated.erase(ordinal);
    }
    return false;
  }

  SubJobRecord& subjob = record.subjobs[static_cast<std::size_t>(ordinal)];
  if (subjob.enqueued_at < 0) subjob.enqueued_at = kernel_.now();
  if (subjob.vm_id.empty()) {
    // First attempt: remember where it runs (for straggler detection).
    subjob.vm_id = binding.vm_id;
    subjob.host_id = binding.auctioneer->physical_host().id();
  }
  binding.busy = true;
  const std::uint64_t id = record.id;
  const sim::SimTime started =
      std::max(kernel_.now(), (*vm)->ready_at());
  (*vm)->Enqueue({static_cast<std::uint64_t>(ordinal) + 1,
                  ChunkCycles(record.description),
                  [this, id, ordinal, host_index,
                   started](sim::SimTime completed_at) {
                    const auto it = jobs_.find(id);
                    if (it == jobs_.end()) return;
                    ActiveJob& active = it->second;
                    if (IsTerminal(active.record.state)) return;
                    SubJobRecord& done = active.record.subjobs
                        [static_cast<std::size_t>(ordinal)];
                    if (!done.completed) {
                      done.completed = true;
                      done.started_at = started;
                      done.completed_at = completed_at;
                      done.host_id = active.hosts[host_index]
                                         .auctioneer->physical_host().id();
                      done.vm_id = active.hosts[host_index].vm_id;
                    }
                    OnChunkComplete(id, ordinal, host_index, completed_at);
                  }});
  return true;
}

void TycoonSchedulerPlugin::OnChunkComplete(std::uint64_t job_id, int ordinal,
                                            std::size_t host_index,
                                            sim::SimTime completed_at) {
  (void)completed_at;
  const auto it = jobs_.find(job_id);
  if (it == jobs_.end()) return;
  ActiveJob& job = it->second;
  // A speculative duplicate may complete after its primary already pushed
  // the job into STAGING_OUT (or a terminal state): nothing left to do.
  if (job.record.state != JobState::kRunning) return;
  job.hosts[host_index].busy = false;
  if (telemetry_ != nullptr && job.record.trace != 0) {
    telemetry_->tracer().Instant(
        job.record.trace, "chunk-complete",
        StrFormat("job=%llu chunk=%d host=%s",
                  static_cast<unsigned long long>(job_id), ordinal,
                  job.hosts[host_index]
                      .auctioneer->physical_host().id().c_str()),
        kernel_.now());
  }

  job.pending_chunks = 0;
  for (const SubJobRecord& subjob : job.record.subjobs) {
    if (!subjob.completed) ++job.pending_chunks;
  }
  if (job.pending_chunks > 0) {
    DispatchChunk(job, host_index);
    return;
  }

  // All chunks done: stage out, then finish and refund.
  GM_ASSERT(AdvanceState(job.record, JobState::kStagingOut,
                         kernel_.now()).ok(),
            "staging-out transition");
  if (job.execute_span != 0) {
    telemetry_->tracer().EndSpan(job.execute_span, kernel_.now(),
                                 telemetry::SpanStatus::kOk);
    job.execute_span = 0;
  }
  if (telemetry_ != nullptr && job.record.trace != 0) {
    job.stage_out_span = telemetry_->tracer().BeginSpan(
        job.record.trace, "stage-out",
        StrFormat("job=%llu", static_cast<unsigned long long>(job_id)),
        kernel_.now());
  }
  const sim::SimDuration stage_out =
      StageDuration(job.record.description.output_files);
  kernel_.ScheduleAfter(stage_out, [this, job_id] {
    const auto jt = jobs_.find(job_id);
    if (jt == jobs_.end() || IsTerminal(jt->second.record.state)) return;
    Finalize(jt->second, JobState::kFinished);
  });
}

void TycoonSchedulerPlugin::Finalize(ActiveJob& job,
                                     JobState terminal_state) {
  JobRecord& record = job.record;
  if (job.expiry.valid()) {
    kernel_.Cancel(job.expiry);
    job.expiry = {};
  }
  if (job.rebid.valid()) {
    kernel_.Cancel(job.rebid);
    job.rebid = {};
  }
  // Close whatever lifecycle phase was in flight: kOk on a clean finish,
  // kError when the job is being reaped (expired/failed/cancelled).
  EndOpenJobSpans(job, terminal_state == JobState::kFinished
                           ? telemetry::SpanStatus::kOk
                           : telemetry::SpanStatus::kError);
  telemetry::SpanId refund_span = 0;
  if (telemetry_ != nullptr && record.trace != 0) {
    refund_span = telemetry_->tracer().BeginSpan(
        record.trace, "refund",
        StrFormat("job=%llu", static_cast<unsigned long long>(record.id)),
        kernel_.now());
  }
  // Settle every host account: collect spend, refund the rest.
  for (HostBinding& binding : job.hosts) {
    market::Auctioneer& auctioneer = *binding.auctioneer;
    if (!auctioneer.HasAccount(record.account)) continue;
    record.spent += auctioneer.Spent(record.account).value_or(Money::Zero());
    const auto refund = auctioneer.CloseAccount(record.account);
    if (refund.ok() && refund->is_positive()) {
      const auto mirrored = bank_.InternalTransfer(
          binding.bank_account, record.account, *refund, kernel_.now());
      GM_ASSERT(mirrored.ok(), "refund mirror transfer failed");
      record.refunded += *refund;
    }
  }
  if (refund_span != 0)
    telemetry_->tracer().EndSpan(refund_span, kernel_.now(),
                                 telemetry::SpanStatus::kOk);
  const Status advanced = AdvanceState(record, terminal_state, kernel_.now());
  GM_ASSERT(advanced.ok(), "terminal transition failed");
  if (telemetry_ != nullptr && record.trace != 0) {
    telemetry_->tracer().Instant(record.trace, "finalize",
                                 StrFormat("job=%llu state=%s",
                                           static_cast<unsigned long long>(record.id),
                                           JobStateName(record.state)),
                                 kernel_.now(),
                                 record.refunded.dollars());
  }
  if (on_finished_) on_finished_(record);
}

// Boost shares land in accounts already listed in job.hosts, so job
// teardown settles them even when a re-bid fails mid-loop.
// gmlint: money-sink(shares tracked in job.hosts; teardown settles them)
Status TycoonSchedulerPlugin::Boost(std::uint64_t job_id, Money amount) {
  const auto it = jobs_.find(job_id);
  if (it == jobs_.end()) return Status::NotFound("job not found");
  ActiveJob& job = it->second;
  JobRecord& record = job.record;
  if (IsTerminal(record.state))
    return Status::FailedPrecondition("job already terminal");
  if (!amount.is_positive())
    return Status::InvalidArgument("boost must be positive");
  GM_ASSIGN_OR_RETURN(const Money available, bank_.Balance(record.account));
  if (available < amount)
    return Status::FailedPrecondition("sub-account lacks boost funds");

  const double remaining_seconds =
      std::max(1.0, sim::ToSeconds(record.deadline - kernel_.now()));
  // Spread proportionally to current balances; raise rates accordingly.
  Money distributed;
  std::vector<std::size_t> funded;
  for (std::size_t i = 0; i < job.hosts.size(); ++i) {
    if (job.hosts[i].auctioneer->HasAccount(record.account))
      funded.push_back(i);
  }
  if (funded.empty())
    return Status::FailedPrecondition("no live host accounts to boost");
  for (std::size_t k = 0; k < funded.size(); ++k) {
    HostBinding& binding = job.hosts[funded[k]];
    const Money share =
        k + 1 == funded.size()
            ? amount - distributed
            : Money::FromMicros(amount.micros() /
                                static_cast<Micros>(funded.size()));
    if (!share.is_positive()) continue;
    GM_RETURN_IF_ERROR(FundHost(job, binding, share));
    distributed += share;
    market::Auctioneer& auctioneer = *binding.auctioneer;
    const Money balance =
        auctioneer.Balance(record.account).value_or(Money::Zero());
    // New rate: spend the whole remaining balance by the deadline.
    const Micros rate_micros = std::max<Micros>(
        1, static_cast<Micros>(std::llround(
               static_cast<double>(balance.micros()) / remaining_seconds)));
    GM_RETURN_IF_ERROR(auctioneer.SetBid(
        record.account, Rate::MicrosPerSec(rate_micros), record.deadline));
  }
  record.budget += amount;
  if (telemetry_ != nullptr && record.trace != 0) {
    telemetry_->tracer().Instant(record.trace, "boost",
                                 StrFormat("job=%llu",
                                           static_cast<unsigned long long>(job_id)),
                                 kernel_.now(),
                                 amount.dollars());
  }
  return Status::Ok();
}

Result<const JobRecord*> TycoonSchedulerPlugin::Get(
    std::uint64_t job_id) const {
  const auto it = jobs_.find(job_id);
  if (it == jobs_.end()) return Status::NotFound("job not found");
  return &it->second.record;
}

std::vector<HostHealthInfo> TycoonSchedulerPlugin::HostHealthReport() const {
  std::vector<HostHealthInfo> out;
  out.reserve(auctioneers_.size());
  for (const auto& [host_id, entry] : auctioneers_) {
    (void)entry;
    out.push_back(HealthOf(host_id));
  }
  return out;
}

HostHealthState TycoonSchedulerPlugin::HostHealth(
    const std::string& host_id) const {
  return HealthOf(host_id).state;
}

std::vector<const JobRecord*> TycoonSchedulerPlugin::jobs() const {
  std::vector<const JobRecord*> out;
  out.reserve(jobs_.size());
  for (const auto& [id, job] : jobs_) out.push_back(&job.record);
  return out;
}

}  // namespace gm::grid
