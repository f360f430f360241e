#include "bank/federation/reconciler.hpp"

#include "common/strings.hpp"

namespace gm::bank::federation {

std::string ReconciliationReport::SigningPayload() const {
  return StrFormat(
      "reconcile|seq=%llu|at=%lld|shards=%llu/%llu|accounts=%llu|"
      "holds=%llu|applied=%llu|balances=%lld|held=%lld|inflight=%lld|"
      "minted=%lld|conserved=%d|detail=%s|hash=%s",
      static_cast<unsigned long long>(sweep_seq),
      static_cast<long long>(at_us),
      static_cast<unsigned long long>(shards_live),
      static_cast<unsigned long long>(shards_total),
      static_cast<unsigned long long>(accounts),
      static_cast<unsigned long long>(open_holds),
      static_cast<unsigned long long>(applied_settlements),
      static_cast<long long>(total_balances.micros()),
      static_cast<long long>(total_holds.micros()),
      static_cast<long long>(in_flight.micros()),
      static_cast<long long>(total_minted.micros()),
      conserved ? 1 : 0, detail.c_str(), federation_hash.c_str());
}

Reconciler::Reconciler(const FederationRouter* router,
                       const crypto::SchnorrGroup& group, std::uint64_t seed)
    : router_(router), rng_(seed),
      keys_(crypto::KeyPair::Generate(group, rng_)) {}

void Reconciler::AttachTelemetry(telemetry::Telemetry* telemetry) {
  telemetry_.store(telemetry, std::memory_order_relaxed);
  if (telemetry == nullptr) {
    sweeps_ctr_.store(nullptr, std::memory_order_relaxed);
    conserved_gauge_.store(nullptr, std::memory_order_relaxed);
    return;
  }
  sweeps_ctr_.store(telemetry->metrics().GetCounter("fed.reconcile.sweeps"),
                    std::memory_order_relaxed);
  conserved_gauge_.store(
      telemetry->metrics().GetGauge("fed.reconcile.conserved"),
      std::memory_order_relaxed);
}

ReconciliationReport Reconciler::Sweep(std::int64_t now_us) {
  gm::MutexLock lock(&mu_);
  ReconciliationReport report;
  report.sweep_seq = next_sweep_seq_++;
  report.at_us = now_us;
  report.shards_total = router_->num_shards();
  report.conserved = true;

  const auto flag = [&report](const std::string& fault) {
    report.conserved = false;
    if (!report.detail.empty()) report.detail += "; ";
    report.detail += fault;
  };
  const FederationAudit audit = router_->Audit();
  for (const ShardSnapshotInfo& info : audit.shards) {
    if (info.crashed) {
      flag(StrFormat("shard %zu down", info.index));
      continue;
    }
    ++report.shards_live;
    report.accounts += info.accounts;
    report.open_holds += info.open_holds;
    report.applied_settlements += info.applied_settlements;
    report.total_balances += info.balance_total;
    report.total_holds += info.hold_total;
    report.total_minted += info.minted;
    for (const std::string& sid :
         router_->shard(info.index)->AppliedSettlementIds()) {
      if (!router_->IsSettlementSpent(sid)) {
        flag(StrFormat(
            "settlement %s applied on shard %zu but never claimed in the "
            "double-spend registry",
            sid.c_str(), info.index));
      }
    }
  }
  // With every shard live the audit's verdict covers the conservation
  // identity; a down shard makes it unverifiable and is already named.
  if (report.shards_live == report.shards_total) {
    report.in_flight = audit.in_flight;
    if (!audit.verdict.ok()) flag(audit.verdict.message());
  }

  report.federation_hash = router_->LedgerHash();
  report.signature = keys_.Sign(report.SigningPayload(), rng_);
  has_report_ = true;
  last_report_ = report;

  if (auto* ctr = sweeps_ctr_.load(std::memory_order_relaxed)) ctr->Inc();
  if (auto* gauge = conserved_gauge_.load(std::memory_order_relaxed))
    gauge->Set(report.conserved ? 1.0 : 0.0);
  if (auto* telemetry = telemetry_.load(std::memory_order_relaxed))
    telemetry->tracer().Instant(
        0, "reconcile",
        StrFormat("sweep=%llu conserved=%d live=%llu/%llu",
                  static_cast<unsigned long long>(report.sweep_seq),
                  report.conserved ? 1 : 0,
                  static_cast<unsigned long long>(report.shards_live),
                  static_cast<unsigned long long>(report.shards_total)),
        now_us, report.total_minted.dollars());
  return report;
}

Result<ReconciliationReport> Reconciler::LastReport() const {
  gm::MutexLock lock(&mu_);
  if (!has_report_) return Status::NotFound("no reconciliation sweep yet");
  return last_report_;
}

Status Reconciler::VerifyReport(const ReconciliationReport& report) const {
  if (!keys_.public_key().Verify(report.SigningPayload(), report.signature))
    return Status::Unauthenticated("reconciliation report signature invalid");
  return Status::Ok();
}

}  // namespace gm::bank::federation
