#include "eval/experiment.h"

#include <utility>

#include "common/string_util.h"
#include "service/fusion_service.h"

namespace crowdfusion::eval {

using common::Status;

namespace {

/// Translates ExperimentOptions into the one typed request the service
/// facade consumes — the experiment harness is a thin client now.
service::FusionRequest BuildRequest(const ExperimentOptions& options) {
  service::FusionRequest request;
  request.mode = service::RunMode::kEngine;
  service::DatasetSpec dataset;
  dataset.generate = options.dataset;
  dataset.correlation = options.correlation;
  dataset.fuser = options.fuser;
  dataset.max_facts_per_book = options.max_facts_per_book;
  request.dataset = std::move(dataset);
  request.selector = options.selector;
  request.provider.kind = "simulated_crowd";
  request.provider.accuracy = options.true_accuracy;
  request.provider.biased = options.biased_crowd;
  request.provider.seed = options.crowd_seed;
  request.assumed_pc = options.assumed_pc;
  request.budget.budget_per_instance = options.budget_per_book;
  request.budget.tasks_per_step = options.tasks_per_round;
  return request;
}

common::Status ValidateOptions(const ExperimentOptions& options) {
  if (options.budget_per_book < 0) {
    return Status::InvalidArgument("budget must be non-negative");
  }
  if (options.tasks_per_round <= 0) {
    return Status::InvalidArgument("tasks_per_round must be positive");
  }
  return Status::Ok();
}

/// Scores the session's current joints against its gold labels — one
/// quality-vs-cost curve point (the Figures 2-4 series).
CurvePoint ScoreSession(const service::Session& session, int total_cost) {
  CurvePoint point;
  point.cost = total_cost;
  ConfusionCounts counts;
  double utility = 0.0;
  for (int i = 0; i < session.num_instances(); ++i) {
    counts += CountConfusion(session.joint(i).Marginals(), session.truths(i));
    utility += -session.joint(i).EntropyBits();
  }
  const PrecisionRecallF1 prf = ComputeF1(counts);
  point.f1 = prf.f1;
  point.precision = prf.precision;
  point.recall = prf.recall;
  point.utility_bits = utility;
  return point;
}

void FillWorkloadStats(const service::Session& session,
                       ExperimentResult& result) {
  result.books_evaluated = session.num_instances();
  for (int i = 0; i < session.num_instances(); ++i) {
    result.total_facts += session.num_facts(i);
  }
  const auto [served, correct] = session.answers_served_correct();
  result.crowd_empirical_accuracy =
      served > 0 ? static_cast<double>(correct) / static_cast<double>(served)
                 : 0.0;
}

}  // namespace

common::Result<ExperimentResult> RunExperiment(
    const ExperimentOptions& options) {
  CF_RETURN_IF_ERROR(ValidateOptions(options));
  service::FusionService service;
  CF_ASSIGN_OR_RETURN(const std::unique_ptr<service::Session> session,
                      service.CreateSession(BuildRequest(options)));

  ExperimentResult result;
  result.label = common::StrFormat(
      "%s k=%d Pc=%.2f", session->selector_name().c_str(),
      options.tasks_per_round, options.assumed_pc);

  const CurvePoint initial = ScoreSession(*session, 0);
  result.curve.push_back(initial);
  result.initial_quality = {initial.precision, initial.recall, initial.f1};
  result.initial_utility_bits = initial.utility_bits;

  // Each Step is one global round: every live book advances one engine
  // round, so curve costs are the paper's global task counts.
  while (!session->done()) {
    CF_ASSIGN_OR_RETURN(const std::vector<service::StepOutcome> outcomes,
                        session->Step());
    if (outcomes.empty()) break;
    result.curve.push_back(
        ScoreSession(*session, session->total_cost_spent()));
  }

  const CurvePoint& final_point = result.curve.back();
  result.final_quality = {final_point.precision, final_point.recall,
                          final_point.f1};
  result.final_utility_bits = final_point.utility_bits;
  result.selection_seconds = session->selection_seconds();
  FillWorkloadStats(*session, result);
  return result;
}

}  // namespace crowdfusion::eval
