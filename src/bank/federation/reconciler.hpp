// Reconciler: the federation's auditor.
//
// Sweep() runs the router's federation audit (FederationRouter::Audit:
// one walk per shard, checking each shard's local invariant and the
// global conservation identity
//
//   sum(balances) + sum(open holds) - in_flight == sum(minted)
//
// where in_flight = open holds whose settlement id the creditor shard
// has already applied — the credited-but-unreleased window of the
// two-phase protocol), cross-checks every applied settlement id against
// the double-spend registry, and emits a ReconciliationReport carrying
// the federation ledger hash, signed with the reconciler's Schnorr key.
// Anyone holding the reconciler's public key can later verify that a
// report is authentic and untampered (VerifyReport) — the signed report
// is the federation's proof-of-solvency artifact.
//
// Sweeps read shards one at a time without a global freeze, so they must
// run from a quiescent point (the simulator's serial phase, a parallel
// round's merge barrier, or a test). A sweep that races live settlement
// traffic can report a spurious violation; it cannot miss a real one at
// a quiescent point.
//
// Lock rank: kBankReconciler, below router and shard, so the sweep may
// hold its own mutex while reading both.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>

#include "bank/federation/router.hpp"
#include "common/concurrency.hpp"
#include "common/rng.hpp"
#include "common/status.hpp"
#include "common/units.hpp"
#include "crypto/schnorr.hpp"
#include "telemetry/telemetry.hpp"

namespace gm::bank::federation {

struct ReconciliationReport {
  std::uint64_t sweep_seq = 0;
  std::int64_t at_us = 0;
  std::uint64_t shards_total = 0;
  std::uint64_t shards_live = 0;
  std::uint64_t accounts = 0;
  std::uint64_t open_holds = 0;
  std::uint64_t applied_settlements = 0;
  Money total_balances;
  Money total_holds;
  Money in_flight;
  Money total_minted;
  bool conserved = false;
  std::string detail;  // violation text, or "" when conserved
  std::string federation_hash;  // FederationRouter::LedgerHash at sweep
  crypto::Signature signature;  // over SigningPayload()

  /// Canonical byte string the signature covers: every field above.
  std::string SigningPayload() const;
};

class Reconciler {
 public:
  /// `router` is non-owning and must outlive the reconciler. The key is
  /// generated from `seed`, so a fixed seed gives a reproducible
  /// reconciler identity.
  Reconciler(const FederationRouter* router,
             const crypto::SchnorrGroup& group, std::uint64_t seed);

  /// Audit the federation now and return the signed report. Reports with
  /// conserved == false carry the violation in `detail`; a sweep finding
  /// a crashed shard reports conserved == false with the shard named
  /// (totals are unverifiable while part of the ledger is down).
  ReconciliationReport Sweep(std::int64_t now_us);

  /// The most recent report, or NotFound before the first sweep.
  Result<ReconciliationReport> LastReport() const;

  /// Signature check against this reconciler's public key; any mutated
  /// field invalidates the report.
  Status VerifyReport(const ReconciliationReport& report) const;

  const crypto::PublicKey& public_key() const {
    return keys_.public_key();
  }

  /// Counter "fed.reconcile.sweeps", gauge "fed.reconcile.conserved"
  /// (1/0), and a "reconcile" instant per sweep. nullptr detaches.
  void AttachTelemetry(telemetry::Telemetry* telemetry);

 private:
  const FederationRouter* const router_;
  mutable gm::Mutex mu_{"bank.federation.reconciler",
                        gm::lockrank::kBankReconciler};
  Rng rng_ GM_GUARDED_BY(mu_);
  const crypto::KeyPair keys_;
  std::uint64_t next_sweep_seq_ GM_GUARDED_BY(mu_) = 1;
  bool has_report_ GM_GUARDED_BY(mu_) = false;
  ReconciliationReport last_report_ GM_GUARDED_BY(mu_);
  // Attach-once telemetry pointers; relaxed atomics make the handoff
  // race-free without taking mu_ on the sweep path.
  std::atomic<telemetry::Telemetry*> telemetry_{nullptr};
  std::atomic<telemetry::Counter*> sweeps_ctr_{nullptr};
  std::atomic<telemetry::Gauge*> conserved_gauge_{nullptr};
};

}  // namespace gm::bank::federation
