// Timed GridMarket calls shared by the paper-testbed and open-grid
// drivers.
#pragma once

#include <string>

#include "core/grid_market.hpp"
#include "report.hpp"
#include "trace.hpp"

namespace perfbench {

/// GridMarket::RunFor as a "core.run" span and a kSim step; its wall
/// time and simulated time feed sim_h_per_s.
inline void TimedRunFor(gm::GridMarket& grid, gm::sim::SimDuration duration,
                        Tracer& tracer, RunStats& stats) {
  stats.EndStep(RunStats::StepKind::kOther);
  {
    Span span(tracer, "core.run");
    grid.RunFor(duration);
  }
  stats.EndStep(RunStats::StepKind::kSim, gm::sim::ToHours(duration));
}

/// GridMarket::SubmitJob, timed as the workload's user operation (a kOp
/// step). The
/// traced run makes the same two calls SubmitJob makes — PayBroker, then
/// GridBroker::Submit — so each half gets its own span.
inline gm::Result<std::uint64_t> TimedSubmit(
    gm::GridMarket& grid, const std::string& user,
    const gm::grid::JobDescription& job, gm::Money budget, Expect expect,
    Tracer& tracer, RunStats& stats) {
  stats.EndStep(RunStats::StepKind::kOther);
  gm::Result<std::uint64_t> id = gm::Status::Internal("unset");
  if (!tracer.enabled()) {
    id = grid.SubmitJob(user, job, budget);
  } else {
    gm::Result<gm::crypto::TransferToken> token =
        gm::Status::Internal("unset");
    {
      Span span(tracer, "grid.pay");
      token = grid.PayBroker(user, budget);
      if (!token.ok() && expect == Expect::kSuccess) span.Fail();
    }
    if (!token.ok()) {
      id = token.status();
    } else {
      Span span(tracer, "grid.broker_submit");
      id = grid.broker().Submit(job.ToXrsl(), *token);
      if (!id.ok() && expect == Expect::kSuccess) span.Fail();
    }
  }
  stats.EndStep(RunStats::StepKind::kOp);
  stats.tally.Record(id.ok(), expect);
  return id;
}

}  // namespace perfbench
