// Grid job records and the job lifecycle state machine.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "common/units.hpp"
#include "grid/xrsl.hpp"
#include "sim/time.hpp"
#include "telemetry/trace.hpp"

namespace gm::grid {

enum class JobState : std::uint8_t {
  kSubmitted = 0,   // received by the broker
  kAuthorized,      // transfer token verified, sub-account funded
  kScheduling,      // best-response host selection and funding
  kStagingIn,       // input transfer + VM provisioning
  kRunning,         // sub-jobs executing
  kStagingOut,      // output transfer
  kFinished,        // all sub-jobs done, outputs staged, refund issued
  kExpired,         // deadline passed with work outstanding
  kFailed,          // authorization or scheduling error
  kCancelled,
};

const char* JobStateName(JobState state);
/// Whether a state is terminal (no further transitions allowed).
bool IsTerminal(JobState state);
/// Validate a transition; kFailedPrecondition on illegal moves.
Status CheckTransition(JobState from, JobState to);

struct SubJobRecord {
  int ordinal = 0;
  std::string host_id;
  std::string vm_id;
  sim::SimTime enqueued_at = -1;
  sim::SimTime started_at = -1;    // began executing on the vCPU
  sim::SimTime completed_at = -1;
  bool completed = false;
};

struct JobRecord {
  std::uint64_t id = 0;
  std::string user_dn;         // Grid identity the token mapped to
  std::string account;         // broker sub-account holding the funds
  JobDescription description;
  JobState state = JobState::kSubmitted;
  std::string failure;         // set when state is kFailed

  Money budget;                // authorized funds
  Money spent;                 // charged by auctioneers
  Money refunded;              // returned to the sub-account

  sim::SimTime submitted_at = -1;
  sim::SimTime running_at = -1;   // first sub-job able to execute
  sim::SimTime finished_at = -1;  // terminal timestamp
  sim::SimTime deadline = -1;

  std::vector<SubJobRecord> subjobs;
  std::vector<std::string> hosts_used;

  /// Causal trace id (telemetry); 0 when telemetry is off. Minted at
  /// submission and carried through every lifecycle transition.
  telemetry::TraceId trace = 0;

  /// Completed sub-jobs so far.
  int CompletedChunks() const;
  bool AllChunksDone() const;
  /// Turnaround in hours (finished - submitted); < 0 while running.
  double TurnaroundHours() const;
  /// Mean execution latency (started -> completed) of completed sub-jobs,
  /// in minutes.
  double MeanChunkLatencyMinutes() const;
  /// Cost rate in $/hour of turnaround.
  double CostPerHour() const;
};

/// Guarded state mutation: validates the transition and stamps terminal
/// times.
Status AdvanceState(JobRecord& job, JobState to, sim::SimTime now);

}  // namespace gm::grid
