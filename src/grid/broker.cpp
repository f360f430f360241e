#include "grid/broker.hpp"

namespace gm::grid {

GridBroker::GridBroker(sim::Kernel& kernel, bank::Bank& bank,
                       TokenAuthorizer& authorizer,
                       TycoonSchedulerPlugin& plugin)
    : kernel_(kernel), bank_(bank), authorizer_(authorizer),
      plugin_(plugin) {}

Result<std::uint64_t> GridBroker::Submit(std::string_view xrsl,
                                         const crypto::TransferToken& token,
                                         telemetry::TraceId trace) {
  GM_ASSIGN_OR_RETURN(JobDescription description,
                      JobDescription::FromXrsl(xrsl));
  // Token verification (bank signature, ledger, DN mapping, double-spend
  // registry) is the paper's fund-verify step: span it.
  telemetry::SpanId verify_span = 0;
  if (telemetry_ != nullptr && trace != 0) {
    verify_span = telemetry_->tracer().BeginSpan(
        trace, "fund-verify", "job=" + description.job_name, kernel_.now());
  }
  const auto authorized = authorizer_.Authorize(token, kernel_.now());
  if (verify_span != 0) {
    telemetry_->tracer().EndSpan(verify_span, kernel_.now(),
                                 authorized.ok()
                                     ? telemetry::SpanStatus::kOk
                                     : telemetry::SpanStatus::kError);
  }
  GM_RETURN_IF_ERROR(authorized.status());
  const AuthorizedFunds& funds = *authorized;
  JobRecord job;
  job.user_dn = funds.grid_dn;
  job.account = funds.sub_account;
  job.description = std::move(description);
  job.budget = funds.amount;
  job.submitted_at = kernel_.now();
  job.trace = trace;
  GM_RETURN_IF_ERROR(AdvanceState(job, JobState::kAuthorized, kernel_.now()));
  return plugin_.Launch(std::move(job));
}

Status GridBroker::Boost(std::uint64_t job_id,
                         const crypto::TransferToken& token) {
  GM_ASSIGN_OR_RETURN(const JobRecord* job, plugin_.Get(job_id));
  if (IsTerminal(job->state))
    return Status::FailedPrecondition("cannot boost a terminal job");
  GM_ASSIGN_OR_RETURN(const AuthorizedFunds funds,
                      authorizer_.Authorize(token, kernel_.now()));
  if (funds.grid_dn != job->user_dn)
    return Status::PermissionDenied(
        "boost token maps to a different Grid identity than the job");
  // Merge the freshly authorized funds into the job's sub-account.
  GM_RETURN_IF_ERROR(bank_.InternalTransfer(funds.sub_account, job->account,
                                            funds.amount, kernel_.now()));
  return plugin_.Boost(job_id, funds.amount);
}

Result<const JobRecord*> GridBroker::Job(std::uint64_t job_id) const {
  return plugin_.Get(job_id);
}

std::vector<const JobRecord*> GridBroker::Jobs() const {
  return plugin_.jobs();
}

std::size_t GridBroker::QueueDepth() const {
  std::size_t depth = 0;
  for (const JobRecord* job : plugin_.jobs())
    if (!IsTerminal(job->state)) ++depth;
  return depth;
}

}  // namespace gm::grid
