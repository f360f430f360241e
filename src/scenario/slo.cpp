#include "scenario/slo.hpp"

#include <utility>

namespace gm::scenario {

SloChecker::SloChecker(SloConfig config) : config_(config) {}

void SloChecker::Violate(const EpochTelemetry& epoch, std::string invariant,
                         std::string detail) {
  report_.passed = false;
  report_.violations.push_back(
      {epoch.epoch, std::move(invariant), std::move(detail)});
}

void SloChecker::Check(const EpochTelemetry& epoch) {
  ++report_.epochs_checked;

  if (epoch.max_queue_depth > config_.max_queue_depth) {
    Violate(epoch, "bounded-queue",
            "queue depth " + std::to_string(epoch.max_queue_depth) +
                " exceeds bound " + std::to_string(config_.max_queue_depth));
  }

  if (epoch.worst_wait_ratio > kStarvationMultiple) {
    Violate(epoch, "starvation",
            "honest job waited " + std::to_string(epoch.worst_wait_ratio) +
                "x its deadline (limit " +
                std::to_string(kStarvationMultiple) + "x)");
  }

  // Conservation is exact by construction of the integer ledger; any
  // drift at all is a violation, hostile load or not.
  if (epoch.total_balance != epoch.expected_total) {
    Violate(epoch, "conservation",
            "total balance " + FormatMoney(epoch.total_balance) +
                " != minted " + FormatMoney(epoch.expected_total));
  }
  if (!epoch.reconciler_clean) {
    Violate(epoch, "conservation",
            "federation reconciler reported drift or was not run");
  }

  // A replay that the registry ACCEPTED is a double-spend: every attempt
  // must come back rejected.
  if (epoch.replay_attempts != epoch.replays_rejected) {
    Violate(epoch, "replay-rejection",
            std::to_string(epoch.replay_attempts - epoch.replays_rejected) +
                " of " + std::to_string(epoch.replay_attempts) +
                " replay attempts were not rejected");
  }
}

std::string SloReport::Summary() const {
  std::string out = passed ? "PASS" : "FAIL";
  out += " (" + std::to_string(epochs_checked) + " epochs, " +
         std::to_string(violations.size()) + " violations)";
  for (const SloViolation& v : violations) {
    out += "\n  epoch " + std::to_string(v.epoch) + " [" + v.invariant +
           "]: " + v.detail;
  }
  return out;
}

}  // namespace gm::scenario
