#include "grid/monitor.hpp"

#include <algorithm>

#include "common/strings.hpp"

namespace gm::grid {

std::string RenderClusterTable(
    const std::vector<const market::Auctioneer*>& auctioneers,
    sim::SimTime now) {
  std::string out = StrFormat("%-10s %4s %4s %12s %12s %10s\n", "HOST",
                              "CPUS", "VMS", "PRICE($/h)", "REVENUE($)",
                              "UTIL(%)");
  for (const market::Auctioneer* auctioneer : auctioneers) {
    const host::PhysicalHost& host = auctioneer->physical_host();
    const double price_per_hour =
        auctioneer->SpotPriceRate().dollars_per_sec() * 3600.0;
    const double utilization =
        now > 0 ? host.Utilization(now) * 100.0 : 0.0;
    out += StrFormat("%-10s %4d %4zu %12.4f %12.2f %10.1f\n",
                     host.id().c_str(), host.spec().cpus, host.vm_count(),
                     price_per_hour,
                     auctioneer->total_revenue().dollars(),
                     utilization);
  }
  return out;
}

std::string RenderJobTable(const std::vector<const JobRecord*>& jobs,
                           sim::SimTime now) {
  std::string out =
      StrFormat("%-5s %-18s %-30s %-11s %9s %12s %12s %10s\n", "ID", "NAME",
                "USER", "STATE", "CHUNKS", "SPENT($)", "BUDGET($)", "TIME");
  for (const JobRecord* job : jobs) {
    const sim::SimTime end =
        job->finished_at >= 0 ? job->finished_at : now;
    const std::string elapsed =
        job->submitted_at >= 0 ? sim::FormatTime(end - job->submitted_at)
                               : "-";
    out += StrFormat(
        "%-5llu %-18s %-30s %-11s %5d/%-3d %12.2f %12.2f %10s\n",
        static_cast<unsigned long long>(job->id),
        job->description.job_name.substr(0, 18).c_str(),
        job->user_dn.substr(0, 30).c_str(), JobStateName(job->state),
        job->CompletedChunks(), job->description.TotalChunks(),
        job->spent.dollars(), job->budget.dollars(),
        elapsed.c_str());
  }
  return out;
}

std::string RenderHealthTable(const std::vector<HostHealthInfo>& health) {
  std::string out =
      StrFormat("%-10s %-8s %14s\n", "HOST", "HEALTH", "LAST-HEARTBEAT");
  for (const HostHealthInfo& info : health) {
    out += StrFormat("%-10s %-8s %14s\n", info.host_id.c_str(),
                     HostHealthStateName(info.state),
                     info.last_heartbeat >= 0
                         ? sim::FormatTime(info.last_heartbeat).c_str()
                         : "-");
  }
  return out;
}

void MirrorStoreStats(const StoreRow& row,
                      telemetry::MetricsRegistry& registry) {
  const std::string prefix = "store." + row.component + ".";
  const store::StoreStats& s = row.stats;
  registry.GetCounter(prefix + "appended_records")->Set(s.appended_records);
  registry.GetCounter(prefix + "appended_bytes")->Set(s.appended_bytes);
  registry.GetCounter(prefix + "snapshots_written")->Set(s.snapshots_written);
  registry.GetCounter(prefix + "recoveries")->Set(s.recoveries);
  registry.GetCounter(prefix + "replayed_records")->Set(s.replayed_records);
  registry.GetCounter(prefix + "skipped_duplicates")
      ->Set(s.skipped_duplicates);
  registry.GetCounter(prefix + "truncated_bytes")->Set(s.truncated_bytes);
}

std::string RenderStoreTable(std::vector<StoreRow> rows) {
  std::string out = StrFormat("%-12s %9s %10s %6s %5s %9s %7s %8s\n",
                              "store", "records", "bytes", "snaps", "recov",
                              "replayed", "dups", "tornB");
  std::sort(rows.begin(), rows.end(),
            [](const StoreRow& a, const StoreRow& b) {
              return a.component < b.component;
            });
  for (const StoreRow& row : rows) {
    const store::StoreStats& s = row.stats;
    out += StrFormat("%-12s %9llu %10llu %6llu %5llu %9llu %7llu %8llu\n",
                     row.component.c_str(),
                     static_cast<unsigned long long>(s.appended_records),
                     static_cast<unsigned long long>(s.appended_bytes),
                     static_cast<unsigned long long>(s.snapshots_written),
                     static_cast<unsigned long long>(s.recoveries),
                     static_cast<unsigned long long>(s.replayed_records),
                     static_cast<unsigned long long>(s.skipped_duplicates),
                     static_cast<unsigned long long>(s.truncated_bytes));
  }
  return out;
}

void MirrorFederationStats(const bank::federation::ShardSnapshotInfo& info,
                           telemetry::MetricsRegistry& registry) {
  const std::string prefix =
      "fed.shard" + std::to_string(info.index) + ".";
  registry.GetCounter(prefix + "accounts")->Set(info.accounts);
  registry.GetCounter(prefix + "open_holds")->Set(info.open_holds);
  registry.GetCounter(prefix + "applied")->Set(info.applied_settlements);
  registry.GetGauge(prefix + "balance_dollars")
      ->Set(info.balance_total.dollars());
  registry.GetGauge(prefix + "held_dollars")->Set(info.hold_total.dollars());
  registry.GetCounter(prefix + "crashed")->Set(info.crashed ? 1 : 0);
}

std::string RenderFederationTable(
    const std::vector<bank::federation::ShardSnapshotInfo>& shards,
    const bank::federation::ReconciliationReport* last_report) {
  std::string out =
      StrFormat("%-8s %9s %13s %8s %8s %6s\n", "shard", "accounts",
                "balance($)", "pending", "applied", "state");
  for (const bank::federation::ShardSnapshotInfo& info : shards) {
    out += StrFormat("%-8s %9llu %13.2f %8llu %8llu %6s\n",
                     ("shard" + std::to_string(info.index)).c_str(),
                     static_cast<unsigned long long>(info.accounts),
                     info.balance_total.dollars(),
                     static_cast<unsigned long long>(info.open_holds),
                     static_cast<unsigned long long>(info.applied_settlements),
                     info.crashed ? "down" : "up");
  }
  if (last_report != nullptr) {
    out += StrFormat("reconcile: sweeps=%llu conserved=%s\n",
                     static_cast<unsigned long long>(last_report->sweep_seq),
                     last_report->conserved ? "yes" : "NO");
  } else {
    out += "reconcile: (no sweep yet)\n";
  }
  return out;
}

std::string RenderMonitor(
    const std::vector<const market::Auctioneer*>& auctioneers,
    const std::vector<const JobRecord*>& jobs, sim::SimTime now) {
  std::string out =
      "=== Tycoon Grid Monitor @ " + sim::FormatTime(now) + " ===\n";
  out += RenderClusterTable(auctioneers, now);
  out += "\n";
  out += RenderJobTable(jobs, now);
  return out;
}

}  // namespace gm::grid
