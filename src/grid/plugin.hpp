// The Tycoon scheduler plugin for the ARC-style Grid manager
// (paper Section 3).
//
// Given an authorized job (budget in a broker sub-account), the plugin:
//   1. queries the Service Location Service for candidate hosts,
//   2. runs Best Response to split the spend rate budget/deadline across
//      hosts (preference = deliverable vCPU capacity, price = the host's
//      current total bid rate), keeping at most `count` hosts,
//   3. funds a host-local market account on each chosen host (mirrored as
//      a bank transfer sub-account -> auctioneer account), creates one VM
//      per host, provisions runtime environments with the yum model,
//   4. stages input in, enqueues the bag-of-task chunks round-robin over
//      the VMs with their XRSL ordinal, places the standing bids, and
//   5. monitors completions; when all chunks finish it stages output out,
//      closes host accounts, and refunds unused funds to the sub-account
//      (Tycoon charges for use, not for bids). Jobs that miss their
//      deadline are expired and likewise refunded.
// Boost() adds funds mid-flight to speed a job up (paper: "performance
// boosting by adding funds").
#pragma once

#include <deque>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "bank/bank.hpp"
#include "bestresponse/best_response.hpp"
#include "grid/job.hpp"
#include "host/provision.hpp"
#include "market/sls.hpp"
#include "sim/kernel.hpp"
#include "telemetry/telemetry.hpp"

namespace gm::grid {

/// Liveness verdict for a registered auctioneer, read from the age of its
/// SLS record (market/sls.hpp) when asked: the directory's heartbeat soft
/// state is the only failure detector.
enum class HostHealthState : std::uint8_t { kHealthy, kSuspect, kDead };

const char* HostHealthStateName(HostHealthState state);

struct HostHealthInfo {
  std::string host_id;
  HostHealthState state = HostHealthState::kHealthy;
  /// The live record's last heartbeat; -1 once it expired or was removed.
  sim::SimTime last_heartbeat = -1;
};

/// The wallTime deadline shapes the spend rate (budget / wallTime), but
/// — as in the paper, whose $100 jobs ran 7.07 h against a 5.5 h
/// deadline — it does not kill the job. Jobs are reaped as EXPIRED only
/// after wallTime * kExpiryFactor.
constexpr double kExpiryFactor = 4.0;

struct PluginConfig {
  /// cpuTime is defined against this reference CPU (cycles/s).
  CyclesPerSecond reference_capacity = GHz(3.0);
  /// Adaptive re-bidding period. The agent periodically recomputes, per
  /// host, the CPU share still needed to meet the wallTime target and
  /// bids just enough against the current price to hold it (capped by the
  /// host account's remaining funds). 0 disables adaptation, leaving the
  /// initial best-response bids standing.
  sim::SimDuration rebid_period = sim::Minutes(5);
  /// Duplicate the oldest outstanding chunk onto an idle VM when no fresh
  /// work remains (backup-task straggler mitigation).
  bool speculative_execution = true;
  /// How the plugin picks which `count` hosts get VMs after the Best
  /// Response solve. kUtilityContribution (default) ranks by
  /// w_j * expected_share_j; kBidSize ranks by the bid itself — the
  /// intuitive but wrong policy, kept for the ablation benchmark.
  enum class HostSelection { kUtilityContribution, kBidSize };
  HostSelection host_selection = HostSelection::kUtilityContribution;
};

class TycoonSchedulerPlugin {
 public:
  TycoonSchedulerPlugin(sim::Kernel& kernel,
                        market::ServiceLocationService& sls,
                        bank::Bank& bank, host::PackageCatalog catalog,
                        PluginConfig config = {});
  ~TycoonSchedulerPlugin();
  TycoonSchedulerPlugin(const TycoonSchedulerPlugin&) = delete;
  TycoonSchedulerPlugin& operator=(const TycoonSchedulerPlugin&) = delete;

  /// Make a host's market reachable. `bank_account` is the bank-managed
  /// account mirroring funds deposited with this auctioneer (created on
  /// the fly when missing).
  Status RegisterAuctioneer(market::Auctioneer& auctioneer,
                            const std::string& bank_account);

  /// Liveness of every registered auctioneer, from its SLS record's age:
  /// suspect once the record is half a TTL old (missed heartbeats), dead
  /// once it expired or is gone. A dead host is out of new scheduling
  /// already, since SLS queries drop expired records. While a job runs,
  /// a liveness check every TTL migrates it off each dead host it is
  /// bound to: the host account is reclaimed through the bank escrow
  /// mirror, incomplete chunks requeue, and Best Response re-runs over
  /// the surviving hosts.
  std::vector<HostHealthInfo> HostHealthReport() const;
  HostHealthState HostHealth(const std::string& host_id) const;

  /// Job-host bindings migrated off dead hosts.
  std::uint64_t migrations() const { return migrations_; }

  /// Launch an authorized job (state kAuthorized, budget in
  /// job.account). Returns the job id. Scheduling begins immediately.
  Result<std::uint64_t> Launch(JobRecord job);

  /// Add funds from the job's sub-account to its host bids.
  Status Boost(std::uint64_t job_id, Money amount);

  Result<const JobRecord*> Get(std::uint64_t job_id) const;
  std::vector<const JobRecord*> jobs() const;

  using FinishedCallback = std::function<void(const JobRecord&)>;
  void set_on_finished(FinishedCallback callback) {
    on_finished_ = std::move(callback);
  }

  /// Emit lifecycle spans (bid, stage-in, execute, stage-out, refund) and
  /// instants (boost, migrate, chunk-complete) for traced jobs, tag host
  /// market accounts with the job trace, and count migrations into
  /// "grid.agent.migrations". nullptr detaches.
  void AttachTelemetry(telemetry::Telemetry* telemetry);

 private:
  struct HostBinding {
    market::Auctioneer* auctioneer = nullptr;
    std::string bank_account;
    std::string vm_id;
    bool busy = false;  // has an outstanding chunk
    bool dead = false;  // migrated off after the host was declared dead
  };
  struct AuctioneerEntry {
    market::Auctioneer* auctioneer = nullptr;
    std::string bank_account;
  };
  struct ActiveJob {
    JobRecord record;
    std::vector<HostBinding> hosts;
    std::deque<int> unassigned;  // ordinals waiting for a free VM
    std::set<int> speculated;    // stragglers already duplicated once
    int pending_chunks = 0;
    sim::SimTime spend_target = 0;  // submitted + wallTime
    sim::EventHandle expiry;
    sim::EventHandle rebid;
    // Open lifecycle spans of the traced job (0 = not open).
    telemetry::SpanId bid_span = 0;
    telemetry::SpanId stage_in_span = 0;
    telemetry::SpanId execute_span = 0;
    telemetry::SpanId stage_out_span = 0;
  };

  HostHealthInfo HealthOf(const std::string& host_id) const;
  /// Periodic liveness step: migrate every live job off each dead host it
  /// is bound to.
  void CheckLiveness();
  /// Detach the job from a dead host: reclaim the host account through the
  /// bank mirror, requeue its incomplete chunks, then re-run Best Response
  /// over the surviving hosts and redistribute the reclaimed funds.
  void MigrateJobOffHost(ActiveJob& job, const std::string& host_id);
  Status Schedule(ActiveJob& job);
  void BeginStaging(ActiveJob& job);
  void StartDispatch(ActiveJob& job);
  /// Hand the next chunk (or a speculative copy of a straggler) to the
  /// idle VM on `host_index`. Returns false if there was nothing to run.
  bool DispatchChunk(ActiveJob& job, std::size_t host_index);
  void OnChunkComplete(std::uint64_t job_id, int ordinal,
                       std::size_t host_index);
  /// Periodic agent step: re-bid each host to hold the share that keeps
  /// the job on track for its wallTime target.
  void Rebid(ActiveJob& job);
  void Finalize(ActiveJob& job, JobState terminal_state);
  Status FundHost(ActiveJob& job, HostBinding& binding, Money amount);
  /// Failure-path undo of FundHost: close the host-local market account
  /// and mirror any refund back into the job's bank account.
  Status ReclaimHost(JobRecord& record, HostBinding& binding,
                     Money& distributed);
  /// Close every still-open lifecycle span of the job (no-op untraced).
  void EndOpenJobSpans(ActiveJob& job, telemetry::SpanStatus status);
  Cycles ChunkCycles(const JobDescription& description) const;
  sim::SimDuration StageDuration(const std::vector<StagedFile>& files) const;

  sim::Kernel& kernel_;
  market::ServiceLocationService& sls_;
  bank::Bank& bank_;
  host::PackageCatalog catalog_;
  PluginConfig config_;
  br::BestResponseSolver solver_;
  std::map<std::string, AuctioneerEntry> auctioneers_;  // by host_id
  std::map<std::uint64_t, ActiveJob> jobs_;
  std::uint64_t next_job_id_ = 1;
  FinishedCallback on_finished_;

  // Started by the first Launch, so it never runs before a job exists.
  sim::EventHandle liveness_timer_;
  std::uint64_t migrations_ = 0;
  telemetry::Telemetry* telemetry_ = nullptr;
  telemetry::Counter* migrations_counter_ = nullptr;
};

}  // namespace gm::grid
