#include "eval/scenario.h"

#include <cmath>
#include <cstdint>
#include <memory>
#include <utility>

#include "core/spec_json.h"
#include "eval/metrics.h"
#include "service/fusion_service.h"

namespace crowdfusion::eval {

using common::JsonValue;
using common::Status;

namespace {

/// The 7 machine-only fusers, in golden order.
constexpr const char* kFusers[] = {
    "crh",  "majority_vote", "truthfinder", "accu",
    "sums", "averagelog",    "investment",
};

/// Rounds for golden emission: 6 decimals is far beyond the metric's
/// resolution (count ratios over tens of facts) and keeps the JSON
/// byte-stable and readable.
double RoundMetric(double value) { return std::round(value * 1e6) / 1e6; }

/// Metric doubles travel in the golden JSON as fixed 6-decimal strings
/// ("0.821429"), not raw doubles: the repo's JSON dumper emits 17
/// significant digits for losslessness, which would make the goldens
/// unreadable (0.82142899999999996) for no extra information.
JsonValue MetricJson(double value) {
  return common::StrFormat("%.6f", RoundMetric(value));
}

struct ScenarioConfig {
  std::string description;
  core::AdversarySpec adversary;
  /// "streaming" only: instances held back for mid-run arrival.
  int arrivals = 0;
};

/// Scenario registry. Every run shares one workload (6 seeded books, 8
/// facts each) and one budget (10 tasks per book) so the reports differ
/// only in the crowd's hostility.
common::Result<ScenarioConfig> MakeScenarioConfig(const std::string& name) {
  ScenarioConfig config;
  core::AdversarySpec& adversary = config.adversary;
  if (name == "baseline") {
    config.description =
        "honest crowd, adversary disabled: the control regime";
    return config;
  }
  if (name == "collusion") {
    config.description =
        "half the pool colludes on the wrong answer for an agreed half "
        "of the facts, answering honestly elsewhere as cover";
    adversary.enabled = true;
    adversary.colluder_fraction = 0.5;
    adversary.collusion_target_fraction = 0.5;
    adversary.seed = 21;
    return config;
  }
  if (name == "sybil") {
    config.description =
        "3/4 of the pool are sybil clones replaying one master answer "
        "stream, so a single master error is hammered in three times "
        "over";
    adversary.enabled = true;
    adversary.sybil_fraction = 0.75;
    adversary.seed = 22;
    return config;
  }
  if (name == "spam") {
    config.description =
        "3/10 of the pool answer a fair coin and 1/5 parrot the running "
        "majority, amplifying early mistakes";
    adversary.enabled = true;
    adversary.spammer_fraction = 0.3;
    adversary.parrot_fraction = 0.2;
    adversary.seed = 23;
    return config;
  }
  if (name == "drift") {
    config.description =
        "a two-worker pool fatigues fast: accuracy decays 12 points per "
        "answer down to a 0.15 floor, so late answers are poison";
    adversary.enabled = true;
    adversary.num_workers = 2;
    adversary.drift_per_answer = -0.12;
    adversary.drift_floor = 0.15;
    adversary.seed = 24;
    return config;
  }
  if (name == "streaming") {
    config.description =
        "half the books arrive mid-run under a light colluding clique; "
        "the session re-plans selection over the grown universe";
    adversary.enabled = true;
    adversary.colluder_fraction = 0.25;
    adversary.collusion_target_fraction = 0.5;
    adversary.seed = 25;
    config.arrivals = 3;
    return config;
  }
  std::string known;
  for (const std::string& scenario : ScenarioNames()) {
    if (!known.empty()) known += ", ";
    known += scenario;
  }
  return Status::InvalidArgument("unknown scenario \"" + name +
                                 "\" (known: " + known + ")");
}

/// The shared request template: engine mode (deterministic, zero
/// latency, no threads), seeded 6-book dataset, 10 tasks per book.
service::FusionRequest BaseRequest(const std::string& name,
                                   const ScenarioConfig& config,
                                   const char* fuser) {
  service::FusionRequest request;
  request.mode = service::RunMode::kEngine;
  request.label = "scenario-" + name + "-" + fuser;
  service::DatasetSpec dataset;
  dataset.generate.num_books = 6;
  dataset.generate.num_sources = 12;
  dataset.generate.seed = 901;
  dataset.fuser.kind = fuser;
  dataset.max_facts_per_book = 8;
  request.dataset = std::move(dataset);
  request.assumed_pc = 0.8;
  request.provider.kind = "simulated_crowd";
  request.provider.accuracy = 0.85;
  request.provider.seed = 4321;
  request.provider.adversary = config.adversary;
  request.budget.budget_per_instance = 10;
  request.budget.tasks_per_step = 1;
  return request;
}

ScenarioCurvePoint ScoreSession(const service::Session& session) {
  ConfusionCounts counts;
  for (int i = 0; i < session.num_instances(); ++i) {
    counts += CountConfusion(session.joint(i).Marginals(), session.truths(i));
  }
  ScenarioCurvePoint point;
  point.cost = session.total_cost_spent();
  point.accuracy = RoundMetric(ComputeAccuracy(counts));
  point.precision = RoundMetric(ComputeF1(counts).precision);
  return point;
}

/// Steps the session dry, appending one curve sample per global pass.
common::Status DrainSession(service::Session& session,
                            std::vector<ScenarioCurvePoint>& curve) {
  while (!session.done()) {
    CF_ASSIGN_OR_RETURN(const std::vector<service::StepOutcome> outcomes,
                        session.Step());
    if (outcomes.empty()) break;
    curve.push_back(ScoreSession(session));
  }
  return Status::Ok();
}

common::Result<ScenarioFuserReport> RunFuser(
    const service::FusionService& fusion, const std::string& name,
    const ScenarioConfig& config, const char* fuser,
    ScenarioReport& report) {
  ScenarioFuserReport result;
  result.fuser = fuser;
  service::FusionRequest request = BaseRequest(name, config, fuser);

  std::vector<service::InstanceSpec> held_back;
  if (config.arrivals > 0) {
    // Streaming: materialize the whole workload, hold back the tail, and
    // feed it to the live session once the head is drained.
    CF_ASSIGN_OR_RETURN(std::vector<service::InstanceSpec> workload,
                        fusion.MaterializeWorkload(request));
    if (config.arrivals >= static_cast<int>(workload.size())) {
      return Status::InvalidArgument(
          "scenario holds back the entire workload");
    }
    const auto split = workload.end() - config.arrivals;
    held_back.assign(std::move_iterator(split),
                     std::move_iterator(workload.end()));
    workload.erase(split, workload.end());
    request.dataset.reset();
    request.instances = std::move(workload);
  }

  CF_ASSIGN_OR_RETURN(const std::unique_ptr<service::Session> session,
                      fusion.CreateSession(std::move(request)));

  const ScenarioCurvePoint initial = ScoreSession(*session);
  result.curve.push_back(initial);
  result.initial_accuracy = initial.accuracy;
  result.initial_precision = initial.precision;

  CF_RETURN_IF_ERROR(DrainSession(*session, result.curve));
  if (!held_back.empty()) {
    // Mid-run arrivals: engine mode grants each new instance the
    // request's budget_per_instance, and the drained session revives.
    CF_RETURN_IF_ERROR(
        session->AddInstances(std::move(held_back)).status());
    result.curve.push_back(ScoreSession(*session));
    CF_RETURN_IF_ERROR(DrainSession(*session, result.curve));
  }

  const ScenarioCurvePoint& final_point = result.curve.back();
  result.final_accuracy = final_point.accuracy;
  result.final_precision = final_point.precision;
  result.cost_spent = session->total_cost_spent();
  const auto [served, correct] = session->answers_served_correct();
  result.answers_served = served;
  result.answers_correct = correct;
  result.crowd_empirical_accuracy = RoundMetric(
      served > 0 ? static_cast<double>(correct) / static_cast<double>(served)
                 : 0.0);

  report.num_instances = session->num_instances();
  report.total_facts = 0;
  for (int i = 0; i < session->num_instances(); ++i) {
    report.total_facts += session->num_facts(i);
  }
  return result;
}

}  // namespace

std::vector<std::string> ScenarioNames() {
  return {"baseline", "collusion", "sybil", "spam", "drift", "streaming"};
}

common::Result<ScenarioReport> RunScenario(const std::string& name) {
  CF_ASSIGN_OR_RETURN(const ScenarioConfig config, MakeScenarioConfig(name));
  ScenarioReport report;
  report.name = name;
  report.description = config.description;
  report.adversary = config.adversary;
  report.arrivals = config.arrivals;

  // One service for the whole scenario: sessions borrow its registries.
  service::FusionService fusion;
  for (const char* fuser : kFusers) {
    CF_ASSIGN_OR_RETURN(ScenarioFuserReport result,
                        RunFuser(fusion, name, config, fuser, report));
    report.fusers.push_back(std::move(result));
  }
  return report;
}

JsonValue ScenarioReportToJson(const ScenarioReport& report) {
  JsonValue json = JsonValue::MakeObject();
  json.Set("schema", "crowdfusion-scenario-v1");
  json.Set("name", report.name);
  json.Set("description", report.description);
  json.Set("adversary", core::AdversarySpecToJson(report.adversary));
  json.Set("num_instances", report.num_instances);
  json.Set("total_facts", report.total_facts);
  json.Set("arrivals", report.arrivals);
  JsonValue fusers = JsonValue::MakeArray();
  for (const ScenarioFuserReport& fuser : report.fusers) {
    JsonValue entry = JsonValue::MakeObject();
    entry.Set("fuser", fuser.fuser);
    entry.Set("initial_accuracy", MetricJson(fuser.initial_accuracy));
    entry.Set("initial_precision", MetricJson(fuser.initial_precision));
    entry.Set("final_accuracy", MetricJson(fuser.final_accuracy));
    entry.Set("final_precision", MetricJson(fuser.final_precision));
    entry.Set("cost_spent", fuser.cost_spent);
    entry.Set("answers_served", fuser.answers_served);
    entry.Set("answers_correct", fuser.answers_correct);
    entry.Set("crowd_empirical_accuracy",
              MetricJson(fuser.crowd_empirical_accuracy));
    // Curve rows are [cost, accuracy, precision] triples: compact enough
    // to keep the goldens reviewable.
    JsonValue curve = JsonValue::MakeArray();
    for (const ScenarioCurvePoint& point : fuser.curve) {
      JsonValue row = JsonValue::MakeArray();
      row.Append(point.cost);
      row.Append(MetricJson(point.accuracy));
      row.Append(MetricJson(point.precision));
      curve.Append(std::move(row));
    }
    entry.Set("curve", std::move(curve));
    fusers.Append(std::move(entry));
  }
  json.Set("fusers", std::move(fusers));
  return json;
}

std::string SerializeScenarioReport(const ScenarioReport& report) {
  return ScenarioReportToJson(report).Dump(2) + "\n";
}

}  // namespace crowdfusion::eval
