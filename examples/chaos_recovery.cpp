// Chaos recovery: crash a host AND the bank mid-run, watch the scheduler
// migrate the work off the dead host, and watch the bank replay its
// write-ahead log back to the exact ledger.
//
//   $ ./chaos_recovery
//
// Demonstrates the fault-tolerance surface: a crashed host stops
// heartbeating to the Service Location Service, its record ages past the
// TTL, and the scheduler declares it dead and migrates the job with the
// host's escrow refunded to it; durable storage: the bank process is
// killed mid-experiment and restarted from its journal with a
// hash-identical ledger. Telemetry rides along: the
// job's TraceId links every lifecycle span (submit -> fund-verify -> bid
// -> stage-in -> execute -> stage-out -> refund) across both crashes,
// the timeline is printed at the end, and the full registry + trace ring
// is dumped to telemetry.jsonl. Exits 0 only if the job finishes, the
// dead host is reported DEAD, the recovered ledger matches, every
// micro-dollar is accounted for, and the trace chain is complete.
//
// Honors GM_LOG_LEVEL (try GM_LOG_LEVEL=info); log lines carry simulated
// timestamps via the logger prefix hook.
#include <cstdio>
#include <filesystem>
#include <string>

#include "common/log.hpp"
#include "core/grid_market.hpp"

int main() {
  using namespace gm;

  // 6 dual-CPU hosts heartbeating to the SLS once a minute. Durable
  // storage journals the ledger, host directory and price histories.
  const std::string storage_dir =
      (std::filesystem::temp_directory_path() / "gm_chaos_recovery").string();
  std::filesystem::remove_all(storage_dir);
  GridMarket::Config config;
  config.hosts = 6;
  config.storage.durable = true;
  config.storage.dir = storage_dir;
  config.telemetry.enabled = true;
  config.telemetry.trace_capacity = 1 << 16;  // hold a full 24 h of instants
  GridMarket grid(config);

  // GM_LOG_LEVEL=info shows migrations and recovery as they happen, each
  // line stamped with the simulated clock.
  Logger::Instance().ApplyEnvLevel();
  Logger::Instance().set_prefix_hook(
      [&grid] { return "[t=" + sim::FormatTime(grid.now()) + "] "; });

  if (!grid.RegisterUser("alice", Money::Dollars(1000)).ok()) return 1;

  grid::JobDescription job;
  job.executable = "/usr/bin/blast-scan";
  job.job_name = "chaos-scan";
  job.count = 2;
  job.chunks = 8;
  job.cpu_time_minutes = 30.0;
  job.wall_time_minutes = 12.0 * 60.0;
  job.input_files = {{"sequences.fasta", 40.0}};

  const auto job_id = grid.SubmitJob("alice", job, Money::Dollars(25));
  if (!job_id.ok()) {
    std::fprintf(stderr, "submit failed: %s\n",
                 job_id.status().ToString().c_str());
    return 1;
  }

  // Let the first chunks start, then kill one of the hosts the job is
  // actually running on: its VMs freeze and it stops heartbeating.
  grid.RunFor(sim::Minutes(10));
  const grid::JobRecord* record = *grid.Job(*job_id);
  if (record->hosts_used.empty()) {
    std::fprintf(stderr, "job never started\n");
    return 1;
  }
  const std::string victim = record->hosts_used.front();
  std::size_t victim_index = grid.host_count();
  for (std::size_t i = 0; i < grid.host_count(); ++i) {
    if (grid.auctioneer(i).physical_host().id() == victim) victim_index = i;
  }
  if (!grid.CrashHost(victim_index).ok()) return 1;
  std::printf("t=%s  crashed %s (running %d/%d chunks done)\n",
              sim::FormatTime(grid.now()).c_str(), victim.c_str(),
              record->CompletedChunks(), job.TotalChunks());

  // The host's SLS record expires one TTL after its last heartbeat; the
  // scheduler's next liveness check then declares it dead and re-bids
  // the job on the survivors, re-running the lost chunks. The migration
  // refunds the dead host's escrow through the bank, so it must land
  // before the bank goes down.
  const grid::TycoonSchedulerPlugin& plugin = grid.broker().plugin();
  while (plugin.HostHealth(victim) != grid::HostHealthState::kDead ||
         plugin.migrations() == 0) {
    if (grid.now() > sim::Hours(1)) {
      std::fprintf(stderr, "%s was never declared dead\n", victim.c_str());
      return 1;
    }
    grid.RunFor(sim::Minutes(1));
  }
  std::printf("t=%s  %s declared dead (SLS record expired), job migrated\n",
              sim::FormatTime(grid.now()).c_str(), victim.c_str());

  // While the host is down, the bank crashes too: its in-memory ledger
  // is wiped and every transfer fails Unavailable until it restarts.
  const std::string ledger_before = grid.bank().LedgerHash();
  if (!grid.CrashBank().ok()) return 1;
  std::printf("t=%s  crashed the bank (ledger %.12s...)\n",
              sim::FormatTime(grid.now()).c_str(), ledger_before.c_str());
  if (grid.PayBroker("alice", Money::Dollars(1)).ok()) return 1;  // bank is down

  grid.RunFor(sim::Minutes(5));
  if (!grid.RestartBank().ok()) return 1;
  const bool ledger_recovered = grid.bank().LedgerHash() == ledger_before;
  std::printf("t=%s  restarted the bank: ledger %s\n",
              sim::FormatTime(grid.now()).c_str(),
              ledger_recovered ? "recovered bit-identical" : "MISMATCH");

  grid.RunUntil(sim::Hours(24));

  record = *grid.Job(*job_id);
  std::printf("job state:  %s, %d/%d chunks, %.2f h turnaround\n",
              grid::JobStateName(record->state), record->CompletedChunks(),
              job.TotalChunks(), record->TurnaroundHours());
  std::printf("spent:      %s of %s (rest refunded)\n\n",
              FormatMoney(record->spent).c_str(),
              FormatMoney(record->budget).c_str());
  std::printf("%s\n", grid.HealthMonitor().c_str());
  std::printf("%s", grid.StorageMonitor().c_str());

  // One-job causal timeline: every buffered event carrying this job's
  // TraceId, in start order. Auction-tick instants are folded into a
  // count; everything else (lifecycle spans, crashes, the migration) is
  // printed with its simulated timestamp.
  const auto events = grid.JobTrace(*job_id);
  if (!events.ok()) {
    std::fprintf(stderr, "trace lookup failed: %s\n",
                 events.status().ToString().c_str());
    return 1;
  }
  std::printf("\ntrace %016llx timeline (job %llu):\n",
              static_cast<unsigned long long>(record->trace),
              static_cast<unsigned long long>(*job_id));
  int ticks = 0;
  for (const auto& event : *events) {
    if (event.name == "auction-tick") {
      ++ticks;
      continue;
    }
    if (event.instant) {
      std::printf("  %10s  *  %-11s %s\n",
                  sim::FormatTime(event.start).c_str(), event.name.c_str(),
                  event.detail.c_str());
    } else {
      std::printf("  %10s  |  %-11s %s  (%s after %s)\n",
                  sim::FormatTime(event.start).c_str(), event.name.c_str(),
                  event.detail.c_str(),
                  telemetry::SpanStatusName(event.status),
                  sim::FormatTime(event.Duration()).c_str());
    }
  }
  std::printf("  (+ %d auction-tick instants while the job was live)\n",
              ticks);

  // The chain must be complete and clean: each lifecycle phase exactly
  // one span, closed ok, with both crashes and the migration on record.
  bool trace_complete = true;
  for (const char* name : {"submit", "fund-verify", "bid", "stage-in",
                           "execute", "stage-out", "refund"}) {
    int spans = 0;
    bool closed_ok = false;
    for (const auto& event : *events) {
      if (event.instant || event.name != name) continue;
      ++spans;
      closed_ok = event.status == telemetry::SpanStatus::kOk;
    }
    if (spans != 1 || !closed_ok) {
      std::fprintf(stderr, "trace chain broken at '%s': %d span(s)\n", name,
                   spans);
      trace_complete = false;
    }
  }
  for (const char* name :
       {"host-crash", "bank-crash", "bank-restart", "migrate"}) {
    bool seen = false;
    for (const auto& event : *events) seen |= event.instant && event.name == name;
    if (!seen) {
      std::fprintf(stderr, "trace chain missing instant '%s'\n", name);
      trace_complete = false;
    }
  }

  // Full registry snapshot + trace ring, one JSON object per line, for
  // offline tooling (scripts/ci.sh parses this).
  const Status exported = grid.WriteTelemetryJsonl("telemetry.jsonl");
  if (!exported.ok()) {
    std::fprintf(stderr, "telemetry export failed: %s\n",
                 exported.ToString().c_str());
    return 1;
  }
  std::printf("telemetry.jsonl written\n");

  // Verdict: job done, dead host detected, money conserved. Unused
  // funds (including the crashed host's reclaimed deposit) sit in the
  // job's broker sub-account: its balance must be budget - spent.
  bool victim_dead = false;
  for (const auto& host : grid.HostHealthReport())
    victim_dead |= host.host_id == victim &&
                   host.state == grid::HostHealthState::kDead;
  const Money escrow = *grid.bank().Balance(record->account);
  std::printf("\njob escrow: %s (expected budget - spent = %s)\n",
              FormatMoney(escrow).c_str(),
              FormatMoney(record->budget - record->spent).c_str());
  const bool ok = record->state == grid::JobState::kFinished && victim_dead &&
                  ledger_recovered &&
                  escrow == record->budget - record->spent &&
                  grid.CheckInvariants().ok() && trace_complete;
  std::printf("%s\n", ok ? "RECOVERED: ledger replayed, money conserved, "
                           "job complete, trace chain intact"
                         : "FAILED");
  return ok ? 0 : 2;
}
