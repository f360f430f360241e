// Grid monitor: text rendering of cluster and job state, in the spirit of
// the ARC Grid Monitor screenshot in the paper (Figure 2).
#pragma once

#include <string>
#include <vector>

#include "bank/federation/reconciler.hpp"
#include "bank/federation/shard.hpp"
#include "grid/job.hpp"
#include "grid/plugin.hpp"
#include "market/auctioneer.hpp"
#include "sim/kernel.hpp"
#include "store/store.hpp"
#include "telemetry/metrics.hpp"

namespace gm::grid {

/// "host  cpus  vms  price($/h)  revenue" table over the market hosts.
std::string RenderClusterTable(
    const std::vector<const market::Auctioneer*>& auctioneers,
    sim::SimTime now);

/// "id  name  user  state  chunks  spent/budget  time" table.
std::string RenderJobTable(const std::vector<const JobRecord*>& jobs,
                           sim::SimTime now);

/// Liveness verdicts: "host  health  last-heartbeat" table.
std::string RenderHealthTable(const std::vector<HostHealthInfo>& health);

// Each table renders from the structs its component keeps. The Mirror*
// functions copy the same structs into a metrics registry under stable
// names; GridMarket::CollectMetrics pulls through them.

/// One durable store's counters, labeled with the component it backs.
struct StoreRow {
  std::string component;  // "bank", "sls", "price/h00", ...
  store::StoreStats stats;
};

/// Durability counters, one row per store in alphabetical order of
/// component.
std::string RenderStoreTable(std::vector<StoreRow> rows);

/// Mirror one store's counters into `registry` under
/// "store.<component>.*".
void MirrorStoreStats(const StoreRow& row,
                      telemetry::MetricsRegistry& registry);

/// Per-shard federation table ("shard  accounts  balance($)  pending
/// applied  state"), one row per entry of `shards` in the order given,
/// plus a reconciliation footer. `last_report` may be nullptr (no sweep
/// yet).
std::string RenderFederationTable(
    const std::vector<bank::federation::ShardSnapshotInfo>& shards,
    const bank::federation::ReconciliationReport* last_report);

/// Mirror one bank shard's federation totals into `registry` under
/// "fed.shard<index>.*".
void MirrorFederationStats(const bank::federation::ShardSnapshotInfo& info,
                           telemetry::MetricsRegistry& registry);

/// Both tables with a timestamp header.
std::string RenderMonitor(
    const std::vector<const market::Auctioneer*>& auctioneers,
    const std::vector<const JobRecord*>& jobs, sim::SimTime now);

}  // namespace gm::grid
