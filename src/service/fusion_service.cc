#include "service/fusion_service.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "common/math_util.h"
#include "common/string_util.h"
#include "crowd/provider_registry.h"
#include "data/statement.h"
#include "fusion/fusion_result.h"
#include "net/http_answer_provider.h"
#include "net/provider_pool.h"

namespace crowdfusion::service {

using common::Status;

namespace {

/// Rejects an inline instance the schedulers would refuse, naming it.
Status ValidateInstance(const InstanceSpec& instance) {
  if (instance.joint.num_facts() == 0) {
    return Status::InvalidArgument("instance \"" + instance.name +
                                   "\" has no facts");
  }
  if (!instance.truths.empty() &&
      static_cast<int>(instance.truths.size()) != instance.joint.num_facts()) {
    return Status::InvalidArgument("instance \"" + instance.name +
                                   "\" truths do not match its fact count");
  }
  if (!instance.joint.IsNormalized(1e-6)) {
    return Status::InvalidArgument("instance \"" + instance.name +
                                   "\" joint is not normalized");
  }
  return Status::Ok();
}

}  // namespace

const char* RunModeName(RunMode mode) {
  switch (mode) {
    case RunMode::kEngine:
      return "engine";
    case RunMode::kBlocking:
      return "blocking";
    case RunMode::kPipelined:
      return "pipelined";
  }
  return "unknown";
}

common::Result<RunMode> ParseRunMode(const std::string& name) {
  if (name == "engine") return RunMode::kEngine;
  if (name == "blocking") return RunMode::kBlocking;
  if (name == "pipelined") return RunMode::kPipelined;
  return Status::InvalidArgument(
      "unknown run mode \"" + name +
      "\"; expected \"engine\", \"blocking\", or \"pipelined\"");
}

// ---------------------------------------------------------------------------
// Session
// ---------------------------------------------------------------------------

std::pair<const core::BudgetScheduler*, int> Session::Locate(
    int instance) const {
  CF_CHECK(instance >= 0 && instance < num_instances());
  if (mode_ == RunMode::kEngine) {
    return {&schedulers_[static_cast<size_t>(instance)], 0};
  }
  return {&schedulers_.front(), instance};
}

const std::string& Session::instance_name(int instance) const {
  CF_CHECK(instance >= 0 && instance < num_instances());
  return instances_[static_cast<size_t>(instance)].name;
}

const core::JointDistribution& Session::joint(int instance) const {
  const auto [scheduler, index] = Locate(instance);
  return scheduler->joint(index);
}

const std::vector<bool>& Session::truths(int instance) const {
  CF_CHECK(instance >= 0 && instance < num_instances());
  return instances_[static_cast<size_t>(instance)].truths;
}

int Session::num_facts(int instance) const {
  CF_CHECK(instance >= 0 && instance < num_instances());
  return instances_[static_cast<size_t>(instance)].num_facts;
}

int Session::cost_spent(int instance) const {
  const auto [scheduler, index] = Locate(instance);
  return scheduler->cost_spent(index);
}

int Session::total_cost_spent() const {
  int total = 0;
  for (const core::BudgetScheduler& scheduler : schedulers_) {
    total += scheduler.total_cost_spent();
  }
  return total;
}

double Session::total_utility_bits() const {
  double total = 0.0;
  for (const core::BudgetScheduler& scheduler : schedulers_) {
    total += scheduler.TotalUtilityBits();
  }
  return total;
}

int Session::dead_instances() const {
  int dead = 0;
  for (const core::BudgetScheduler& scheduler : schedulers_) {
    dead += scheduler.dead_instances();
  }
  return dead;
}

std::pair<int64_t, int64_t> Session::answers_served_correct() const {
  int64_t served = 0;
  int64_t correct = 0;
  for (const Instance& instance : instances_) {
    if (instance.provider.served_correct == nullptr) continue;
    const auto [s, c] = instance.provider.served_correct();
    served += s;
    correct += c;
  }
  return {served, correct};
}

int64_t Session::tickets_resubmitted() const {
  int64_t total = 0;
  for (const Instance& instance : instances_) {
    if (instance.provider.tickets_resubmitted == nullptr) continue;
    total += instance.provider.tickets_resubmitted();
  }
  return total;
}

double Session::selection_seconds() const {
  double total = 0.0;
  for (double s : selection_compute_samples()) total += s;
  return total;
}

std::vector<double> Session::selection_compute_samples() const {
  std::vector<double> samples;
  for (const core::BudgetScheduler& scheduler : schedulers_) {
    const std::vector<double>& log = scheduler.selection_compute_seconds();
    samples.insert(samples.end(), log.begin(), log.end());
  }
  return samples;
}

StepOutcome Session::FromStepRecord(
    int scheduler, const core::BudgetScheduler::StepRecord& record) {
  StepOutcome outcome;
  outcome.step = steps_emitted_++;
  outcome.tasks = record.tasks;
  outcome.answers = record.answers;
  outcome.expected_gain_bits = record.expected_gain_bits;
  outcome.utility_bits = record.total_utility_bits;
  outcome.cumulative_cost = record.cumulative_cost;
  outcome.latency_seconds = record.latency_seconds;
  if (mode_ == RunMode::kEngine) {
    // One book per scheduler: its steps are the book's rounds, and its
    // exhaustion marker belongs to the book.
    outcome.instance = scheduler;
    outcome.round = record.step;
    outcome.selected_entropy_bits = record.selected_entropy_bits;
  } else {
    outcome.instance = record.instance;
    // Rebuilt from the gain, as the scheduler modes always reported it.
    outcome.selected_entropy_bits =
        record.tasks.empty()
            ? 0.0
            : record.expected_gain_bits +
                  static_cast<double>(record.tasks.size()) *
                      crowd_->EntropyBits();
  }
  return outcome;
}

common::Result<std::vector<StepOutcome>> Session::Step() {
  if (done_) return std::vector<StepOutcome>{};
  common::Stopwatch stopwatch;
  std::vector<StepOutcome> outcomes;
  std::vector<core::BudgetScheduler::StepRecord> records;
  for (size_t s = 0; s < schedulers_.size(); ++s) {
    if (!live_[s]) continue;
    records.clear();
    const common::Result<bool> more = schedulers_[s].RunPipelinedStep(records);
    if (!more.ok()) {
      wall_seconds_ += stopwatch.ElapsedSeconds();
      return more.status();
    }
    for (const auto& record : records) {
      outcomes.push_back(FromStepRecord(static_cast<int>(s), record));
    }
    // A spent budget leaves nothing in flight, so a scheduler finishes
    // with this step rather than with an empty one after it.
    if (!more.value() || !schedulers_[s].HasBudget()) live_[s] = false;
  }
  wall_seconds_ += stopwatch.ElapsedSeconds();
  // Engine mode ends on the first pass in which no book had a round; the
  // scheduler modes end with their one scheduler.
  done_ = mode_ == RunMode::kEngine ? outcomes.empty() : !live_.front();
  steps_.insert(steps_.end(), outcomes.begin(), outcomes.end());
  return outcomes;
}

SessionProgress Session::Poll() const {
  SessionProgress progress;
  progress.done = done_;
  progress.steps_completed = static_cast<int>(steps_.size());
  progress.total_cost_spent = total_cost_spent();
  for (const core::BudgetScheduler& scheduler : schedulers_) {
    progress.total_budget += scheduler.total_budget();
  }
  progress.total_utility_bits = total_utility_bits();
  progress.dead_instances = dead_instances();
  return progress;
}

FusionResponse Session::Finish() const {
  FusionResponse response;
  response.label = label_;
  response.mode = mode_;
  response.steps = steps_;
  response.total_cost_spent = total_cost_spent();
  response.total_utility_bits = total_utility_bits();
  response.dead_instances = dead_instances();

  response.instances.reserve(instances_.size());
  for (size_t i = 0; i < instances_.size(); ++i) {
    const auto [scheduler, index] = Locate(static_cast<int>(i));
    InstanceReport report;
    report.name = instances_[i].name;
    report.final_joint = scheduler->joint(index);
    report.final_marginals = report.final_joint.Marginals();
    report.utility_bits = -report.final_joint.EntropyBits();
    report.cost_spent = scheduler->cost_spent(index);
    report.num_facts = instances_[i].num_facts;
    report.dead = scheduler->instance_dead(index);
    response.instances.push_back(std::move(report));
  }

  RunStats& stats = response.stats;
  stats.wall_seconds = wall_seconds_;
  stats.selection_seconds = selection_seconds();
  const auto [served, correct] = answers_served_correct();
  stats.answers_served = served;
  stats.answers_correct = correct;
  stats.tickets_resubmitted = tickets_resubmitted();
  if (wall_seconds_ > 0) {
    stats.steps_per_second =
        static_cast<double>(steps_.size()) / wall_seconds_;
  }
  std::vector<double> latencies;
  latencies.reserve(steps_.size());
  for (const StepOutcome& outcome : steps_) {
    if (outcome.instance >= 0) {
      latencies.push_back(outcome.latency_seconds * 1e3);
    }
  }
  if (!latencies.empty()) {
    std::sort(latencies.begin(), latencies.end());
    stats.p50_latency_ms = common::PercentileOfSorted(latencies, 0.50);
    stats.p95_latency_ms = common::PercentileOfSorted(latencies, 0.95);
  }
  std::vector<double> selection_ms = selection_compute_samples();
  if (!selection_ms.empty()) {
    for (double& s : selection_ms) s *= 1e3;
    std::sort(selection_ms.begin(), selection_ms.end());
    stats.selection_compute_p50_ms =
        common::PercentileOfSorted(selection_ms, 0.50);
    stats.selection_compute_p95_ms =
        common::PercentileOfSorted(selection_ms, 0.95);
  }
  return response;
}

// ---------------------------------------------------------------------------
// FusionService
// ---------------------------------------------------------------------------

FusionService::FusionService() : FusionService(Config{}) {}

FusionService::FusionService(Config config)
    : config_(config),
      selectors_(core::BuiltinSelectorRegistry()),
      fusers_(fusion::BuiltinFuserRegistry()),
      providers_(crowd::FullProviderRegistry(config.clock)) {
  // The remote-platform providers: "http" turns a ProviderSpec endpoint
  // into tickets on a crowd server speaking the net wire; "http_pool"
  // spreads the same wire across N endpoints with failover resubmission.
  CF_CHECK_OK(net::RegisterHttpProvider(providers_, config.clock));
  CF_CHECK_OK(net::RegisterHttpPoolProvider(providers_, config.clock));
}

common::Result<std::vector<InstanceSpec>> FusionService::BuildWorkload(
    FusionRequest& request) const {
  if (!request.instances.empty() && request.dataset.has_value()) {
    return Status::InvalidArgument(
        "request must carry inline instances or a dataset spec, not both");
  }
  if (!request.instances.empty()) {
    std::vector<InstanceSpec> instances = std::move(request.instances);
    for (const InstanceSpec& instance : instances) {
      CF_RETURN_IF_ERROR(ValidateInstance(instance));
    }
    return instances;
  }
  if (!request.dataset.has_value()) {
    return Status::InvalidArgument(
        "request carries neither inline instances nor a dataset spec");
  }

  // The Book-dataset pipeline: generate claims, fuse machine-only, build
  // one correlation-aware joint per book (eval::Prepare's former job).
  const DatasetSpec& spec = *request.dataset;
  if (spec.max_facts_per_book <= 0) {
    return Status::InvalidArgument("max_facts_per_book must be positive");
  }
  CF_ASSIGN_OR_RETURN(const data::BookDataset dataset,
                      data::GenerateBookDataset(spec.generate));
  CF_ASSIGN_OR_RETURN(const std::unique_ptr<fusion::Fuser> fuser,
                      fusers_.Create(spec.fuser.kind, spec.fuser));
  CF_ASSIGN_OR_RETURN(const fusion::FusionResult fused,
                      fuser->Fuse(dataset.claims));
  CF_RETURN_IF_ERROR(ValidateFusionResult(dataset.claims, fused));

  std::vector<InstanceSpec> instances;
  for (const data::Book& book : dataset.books) {
    const int num_facts =
        std::min<int>(static_cast<int>(book.statements.size()),
                      spec.max_facts_per_book);
    if (num_facts == 0) continue;
    InstanceSpec instance;
    instance.name = book.isbn;
    std::vector<double> marginals(static_cast<size_t>(num_facts));
    std::vector<data::Statement> statements(
        book.statements.begin(), book.statements.begin() + num_facts);
    instance.truths.resize(static_cast<size_t>(num_facts));
    instance.categories.resize(static_cast<size_t>(num_facts));
    for (int i = 0; i < num_facts; ++i) {
      const int vid = book.value_ids[static_cast<size_t>(i)];
      marginals[static_cast<size_t>(i)] =
          fused.value_probability[static_cast<size_t>(vid)];
      instance.categories[static_cast<size_t>(i)] = static_cast<int>(
          dataset.value_category[static_cast<size_t>(vid)]);
      instance.truths[static_cast<size_t>(i)] =
          dataset.value_truth[static_cast<size_t>(vid)];
    }
    CF_ASSIGN_OR_RETURN(
        instance.joint,
        data::BuildBookJoint(marginals, statements, spec.correlation));
    instances.push_back(std::move(instance));
  }
  if (instances.empty()) {
    return Status::InvalidArgument("no books with facts were generated");
  }
  return instances;
}

common::Result<std::unique_ptr<Session>> FusionService::CreateSession(
    FusionRequest request) const {
  if (request.budget.budget_per_instance < 0) {
    return Status::InvalidArgument(
        "budget_per_instance must be non-negative");
  }
  if (request.budget.tasks_per_step <= 0) {
    return Status::InvalidArgument("tasks_per_step must be positive");
  }
  if (request.mode == RunMode::kEngine && request.budget.total_budget > 0) {
    return Status::InvalidArgument(
        "engine mode budgets per instance (budget_per_instance); "
        "total_budget is a scheduler-mode knob");
  }
  CF_ASSIGN_OR_RETURN(const core::CrowdModel crowd,
                      core::CrowdModel::Create(request.assumed_pc));
  CF_ASSIGN_OR_RETURN(std::vector<InstanceSpec> workload,
                      BuildWorkload(request));

  // Raw `new`: Session's constructor is private and make_unique cannot
  // reach it through friendship.
  std::unique_ptr<Session> session(new Session());
  session->mode_ = request.mode;
  session->crowd_ = crowd;
  session->label_ =
      request.label.empty()
          ? common::StrFormat("%s %s x%d", RunModeName(request.mode),
                              request.selector.kind.c_str(),
                              static_cast<int>(workload.size()))
          : request.label;
  CF_ASSIGN_OR_RETURN(session->selector_,
                      selectors_.Create(request.selector.kind,
                                        request.selector));

  // Every mode serves through BudgetScheduler's pipelined step. Engine
  // and blocking mode run a one-ticket window that aborts on a failed
  // ticket; engine mode gives each instance a scheduler of its own
  // holding budget_per_instance (built as instances bind).
  const bool pipelined = request.mode == RunMode::kPipelined;
  core::BudgetScheduler::Options& options = session->scheduler_options_;
  if (request.mode == RunMode::kEngine) {
    options.total_budget = request.budget.budget_per_instance;
  } else if (request.budget.total_budget > 0) {
    options.total_budget = request.budget.total_budget;
  } else {
    options.total_budget = request.budget.budget_per_instance *
                           static_cast<int>(workload.size());
  }
  options.tasks_per_step = request.budget.tasks_per_step;
  options.max_in_flight = pipelined ? request.pipeline.max_in_flight : 1;
  options.ticket.max_attempts = request.pipeline.ticket_max_attempts;
  options.ticket.deadline_seconds = request.pipeline.ticket_deadline_seconds;
  options.ticket.retry_backoff_seconds = request.pipeline.retry_backoff_seconds;
  options.on_ticket_failure =
      pipelined ? request.pipeline.on_ticket_failure
                : core::BudgetScheduler::TicketFailurePolicy::kAbort;
  options.max_poll_seconds = request.pipeline.max_poll_seconds;
  options.concurrent_selection = request.pipeline.concurrent_selection;
  options.clock = config_.clock;
  if (request.mode != RunMode::kEngine) {
    CF_ASSIGN_OR_RETURN(core::BudgetScheduler scheduler,
                        core::BudgetScheduler::Create(
                            crowd, session->selector_.get(), options));
    session->schedulers_.push_back(std::move(scheduler));
    session->live_.push_back(true);
  }

  session->provider_template_ = request.provider;
  session->providers_ = &providers_;
  CF_RETURN_IF_ERROR(session->BindInstances(std::move(workload)));
  return session;
}

common::Status Session::BindInstances(std::vector<InstanceSpec> specs) {
  // Bind one provider per instance from the request's template: fill the
  // instance's gold labels and derive per-instance seeds, then build
  // through the registry. The session owns every provider handle, so the
  // scheduler borrow contracts hold by construction. Everything that can
  // fail runs before the first instance is registered.
  std::vector<Instance> bound;
  std::vector<core::BudgetScheduler> engine_schedulers;
  for (size_t i = 0; i < specs.size(); ++i) {
    const InstanceSpec& spec = specs[i];
    CF_RETURN_IF_ERROR(ValidateInstance(spec));
    const int index = next_seed_index_ + static_cast<int>(i);
    Instance instance;
    instance.name = spec.name.empty()
                        ? common::StrFormat("instance-%d", index)
                        : spec.name;
    instance.truths = spec.truths;
    instance.num_facts = spec.joint.num_facts();

    core::ProviderSpec provider_spec = provider_template_;
    if (provider_spec.truths.empty()) {
      provider_spec.truths = spec.truths;
      provider_spec.categories = spec.categories;
    }
    provider_spec.seed =
        provider_template_.seed + static_cast<uint64_t>(index);
    provider_spec.latency_seed =
        provider_template_.latency_seed + static_cast<uint64_t>(index);
    provider_spec.adversary.seed =
        provider_template_.adversary.seed + static_cast<uint64_t>(index);
    CF_ASSIGN_OR_RETURN(instance.provider,
                        providers_->Create(provider_spec.kind, provider_spec));
    if (instance.provider.async == nullptr &&
        instance.provider.sync == nullptr) {
      return Status::Internal("provider \"" + provider_spec.kind +
                              "\" produced no usable interface");
    }
    if (mode_ == RunMode::kEngine) {
      CF_ASSIGN_OR_RETURN(core::BudgetScheduler scheduler,
                          core::BudgetScheduler::Create(
                              *crowd_, selector_.get(), scheduler_options_));
      engine_schedulers.push_back(std::move(scheduler));
    }
    bound.push_back(std::move(instance));
  }

  // Commit. Registration cannot fail on a validated joint.
  for (size_t i = 0; i < bound.size(); ++i) {
    if (mode_ == RunMode::kEngine) {
      schedulers_.push_back(std::move(engine_schedulers[i]));
      live_.push_back(true);
    }
    Instance& instance = bound[i];
    core::BudgetScheduler& scheduler = schedulers_.back();
    core::JointDistribution joint = std::move(specs[i].joint);
    const common::Result<int> registered =
        instance.provider.async != nullptr
            ? scheduler.AddInstanceAsync(instance.name, std::move(joint),
                                         instance.provider.async)
            : scheduler.AddInstance(instance.name, std::move(joint),
                                    instance.provider.sync);
    CF_CHECK_OK(registered.status());
    instances_.push_back(std::move(instance));
  }
  next_seed_index_ += static_cast<int>(specs.size());
  return Status::Ok();
}

common::Result<int> Session::AddInstances(std::vector<InstanceSpec> specs,
                                          int additional_budget) {
  if (specs.empty()) {
    return Status::InvalidArgument("no instances to add");
  }
  if (additional_budget < 0) {
    return Status::InvalidArgument("additional_budget must be non-negative");
  }
  if (mode_ == RunMode::kEngine && additional_budget != 0) {
    return Status::InvalidArgument(
        "engine mode budgets per instance (budget_per_instance); "
        "additional_budget is a scheduler-mode knob");
  }

  const int first_new_instance = num_instances();
  CF_RETURN_IF_ERROR(BindInstances(std::move(specs)));
  if (mode_ == RunMode::kEngine) {
    // Each arrival brings a live scheduler of its own.
    done_ = false;
    return first_new_instance;
  }
  core::BudgetScheduler& scheduler = schedulers_.front();
  CF_CHECK_OK(scheduler.AddBudget(additional_budget));
  // A run that stopped for lack of gain resumes; one whose global budget
  // is already spent stays done until budget arrives too.
  if (scheduler.HasBudget()) {
    live_.front() = true;
    done_ = false;
  }
  return first_new_instance;
}

common::Result<FusionResponse> FusionService::Run(
    FusionRequest request) const {
  CF_ASSIGN_OR_RETURN(const std::unique_ptr<Session> session,
                      CreateSession(std::move(request)));
  while (!session->done()) {
    CF_RETURN_IF_ERROR(session->Step().status());
  }
  return session->Finish();
}

}  // namespace crowdfusion::service
