/// The facade's zero-behavior-change pin: across 32 seeds, FusionService-
/// built runs reproduce the corresponding direct-API runs bit-for-bit —
/// pipelined mode against BudgetScheduler::RunPipelined, and engine and
/// blocking mode against the frozen output of the loops they replaced
/// (per-book engines, the blocking scheduler loop) — on records, answers,
/// utilities, and final joints. The service must add an API, not a
/// behavior.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "core/greedy_selector.h"
#include "core/scheduler.h"
#include "crowd/simulated_crowd.h"
#include "service/fusion_service.h"
#include "service/request_json.h"
#include "../core/scheduler_golden.h"

namespace crowdfusion::service {
namespace {

// Injected by tests/service/CMakeLists.txt.
#ifndef CROWDFUSION_SCHEDULER_GOLDEN_DIR
#error "CROWDFUSION_SCHEDULER_GOLDEN_DIR must be defined by the build"
#endif

constexpr int kSeeds = 32;
constexpr double kPc = 0.8;

core::CrowdModel MakeCrowd() {
  auto crowd = core::CrowdModel::Create(kPc);
  EXPECT_TRUE(crowd.ok());
  return std::move(crowd).value();
}

/// One seeded multi-book workload; both the direct and the service run
/// are built from exactly this data.
struct Workload {
  std::vector<std::string> names;
  std::vector<core::JointDistribution> joints;
  std::vector<std::vector<bool>> truths;
  int budget_per_instance = 0;
  int tasks_per_step = 0;
  int max_in_flight = 0;
  uint64_t provider_seed_base = 0;
};

Workload MakeWorkload(uint64_t seed) {
  Workload workload;
  common::Rng rng(seed * 7919 + 13);
  const int num_instances = 2 + static_cast<int>(rng.NextBounded(3));
  for (int i = 0; i < num_instances; ++i) {
    const int n = 3 + static_cast<int>(rng.NextBounded(3));
    std::vector<double> marginals(static_cast<size_t>(n));
    for (double& m : marginals) m = rng.NextUniform(0.2, 0.8);
    auto joint = core::JointDistribution::FromIndependentMarginals(marginals);
    EXPECT_TRUE(joint.ok());
    workload.joints.push_back(std::move(joint).value());
    workload.names.push_back("book" + std::to_string(i));
    std::vector<bool> truths(static_cast<size_t>(n));
    for (size_t f = 0; f < truths.size(); ++f) {
      truths[f] = rng.NextBernoulli(0.5);
    }
    workload.truths.push_back(std::move(truths));
  }
  workload.budget_per_instance = 4 + static_cast<int>(seed % 3);
  workload.tasks_per_step = 1 + static_cast<int>(seed % 2);
  workload.max_in_flight = 2 + static_cast<int>(seed % 3);
  workload.provider_seed_base = seed * 131;
  return workload;
}

std::vector<std::unique_ptr<crowd::SimulatedCrowd>> MakeCrowds(
    const Workload& workload) {
  std::vector<std::unique_ptr<crowd::SimulatedCrowd>> crowds;
  for (size_t i = 0; i < workload.joints.size(); ++i) {
    crowds.push_back(std::make_unique<crowd::SimulatedCrowd>(
        crowd::SimulatedCrowd::WithUniformAccuracy(
            workload.truths[i], kPc,
            workload.provider_seed_base + static_cast<uint64_t>(i))));
  }
  return crowds;
}

core::GreedySelector::Options GreedyOptions() {
  core::GreedySelector::Options options;
  options.use_pruning = true;
  options.use_preprocessing = true;
  return options;
}

FusionRequest MakeRequest(const Workload& workload, RunMode mode) {
  FusionRequest request;
  request.mode = mode;
  for (size_t i = 0; i < workload.joints.size(); ++i) {
    InstanceSpec instance;
    instance.name = workload.names[i];
    instance.joint = workload.joints[i];
    instance.truths = workload.truths[i];
    request.instances.push_back(std::move(instance));
  }
  request.selector.kind = "greedy";
  request.selector.use_pruning = true;
  request.selector.use_preprocessing = true;
  request.provider.kind = "simulated_crowd";
  request.provider.accuracy = kPc;
  request.provider.seed = workload.provider_seed_base;
  request.assumed_pc = kPc;
  request.budget.budget_per_instance = workload.budget_per_instance;
  request.budget.tasks_per_step = workload.tasks_per_step;
  request.pipeline.max_in_flight = workload.max_in_flight;
  return request;
}

/// Runs a service request to completion and returns (session, outcomes).
std::unique_ptr<Session> RunService(const FusionRequest& request,
                                    uint64_t seed) {
  FusionService service;
  auto session = service.CreateSession(request);
  EXPECT_TRUE(session.ok()) << "seed " << seed << ": " << session.status();
  while (!(*session)->done()) {
    auto outcomes = (*session)->Step();
    EXPECT_TRUE(outcomes.ok()) << "seed " << seed << ": "
                               << outcomes.status();
    if (!outcomes.ok()) break;
  }
  return std::move(session).value();
}

/// Engine mode with a selector that holds an RNG: the goldens pin the
/// order of Select() calls across books, not just each book's own loop.
FusionRequest RandomSelectorRequest(const Workload& workload, uint64_t seed) {
  FusionRequest request = MakeRequest(workload, RunMode::kEngine);
  request.selector.kind = "random";
  request.selector.seed = seed;
  return request;
}

/// Engine mode with a streaming arrival: the session starts without the
/// last book, steps once, then takes it through AddInstances and drains.
/// A perfect crowd (scripted with the truths, assumed Pc = 1) settles
/// every book before its budget runs out, so each book's run ends on its
/// exhaustion marker.
std::unique_ptr<Session> RunWithArrival(const Workload& workload,
                                        uint64_t seed) {
  FusionRequest request = MakeRequest(workload, RunMode::kEngine);
  request.provider.kind = "scripted";
  request.assumed_pc = 1.0;
  request.budget.budget_per_instance = 40;
  std::vector<InstanceSpec> late;
  late.push_back(std::move(request.instances.back()));
  request.instances.pop_back();
  // AddInstances binds through the creating service's registry.
  FusionService service;
  auto session = service.CreateSession(std::move(request));
  EXPECT_TRUE(session.ok()) << "seed " << seed << ": " << session.status();
  EXPECT_TRUE((*session)->Step().ok()) << "seed " << seed;
  auto first = (*session)->AddInstances(std::move(late));
  EXPECT_TRUE(first.ok()) << "seed " << seed << ": " << first.status();
  while (!(*session)->done()) {
    auto outcomes = (*session)->Step();
    EXPECT_TRUE(outcomes.ok()) << "seed " << seed << ": "
                               << outcomes.status();
    if (!outcomes.ok()) break;
  }
  return std::move(session).value();
}

/// Compares every outcome field but latency_seconds, the final joints and
/// the per-instance spend against a frozen golden run.
void ExpectMatchesGolden(const core::golden::Run& expected,
                         const Session& session) {
  const std::vector<StepOutcome>& served = session.steps();
  ASSERT_EQ(served.size(), expected.outcomes.size());
  for (size_t i = 0; i < served.size(); ++i) {
    SCOPED_TRACE("outcome " + std::to_string(i));
    const core::golden::Outcome& want = expected.outcomes[i];
    EXPECT_EQ(want.step, served[i].step);
    EXPECT_EQ(want.instance, served[i].instance);
    EXPECT_EQ(want.round, served[i].round);
    EXPECT_EQ(want.tasks, served[i].tasks);
    EXPECT_EQ(want.answers, served[i].answers);
    EXPECT_EQ(want.selected_entropy_bits, served[i].selected_entropy_bits);
    EXPECT_EQ(want.expected_gain_bits, served[i].expected_gain_bits);
    EXPECT_EQ(want.utility_bits, served[i].utility_bits);
    EXPECT_EQ(want.cumulative_cost, served[i].cumulative_cost);
  }
  ASSERT_EQ(static_cast<size_t>(session.num_instances()),
            expected.instances.size());
  for (int i = 0; i < session.num_instances(); ++i) {
    const core::golden::Instance& want =
        expected.instances[static_cast<size_t>(i)];
    EXPECT_EQ(want.joint, session.joint(i)) << "instance " << i;
    EXPECT_EQ(want.cost_spent, session.cost_spent(i)) << "instance " << i;
  }
  EXPECT_EQ(expected.total_cost_spent, session.total_cost_spent());
}

std::vector<core::golden::Run> LoadGolden(const std::string& file) {
  return core::golden::Load(
      std::string(CROWDFUSION_SCHEDULER_GOLDEN_DIR) + "/" + file);
}

/// The goldens are what engine mode produced when it ran one
/// CrowdFusionEngine per book, advanced round-robin, on each seed's
/// workload.
TEST(ServiceDifferentialTest, EngineModeReproducesDirectEngines) {
  const std::vector<core::golden::Run> goldens =
      LoadGolden("engine_service_runs.txt");
  ASSERT_EQ(goldens.size(), static_cast<size_t>(kSeeds))
      << "missing or malformed golden";
  for (uint64_t seed = 1; seed <= kSeeds; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    ASSERT_EQ(goldens[seed - 1].seed, seed);
    const std::unique_ptr<Session> session =
        RunService(MakeRequest(MakeWorkload(seed), RunMode::kEngine), seed);
    ExpectMatchesGolden(goldens[seed - 1], *session);
  }
}

TEST(ServiceDifferentialTest, EngineModeRandomSelectorReproducesEngines) {
  const std::vector<core::golden::Run> goldens =
      LoadGolden("engine_service_random_runs.txt");
  ASSERT_EQ(goldens.size(), static_cast<size_t>(kSeeds))
      << "missing or malformed golden";
  for (uint64_t seed = 1; seed <= kSeeds; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    ASSERT_EQ(goldens[seed - 1].seed, seed);
    const std::unique_ptr<Session> session =
        RunService(RandomSelectorRequest(MakeWorkload(seed), seed), seed);
    ExpectMatchesGolden(goldens[seed - 1], *session);
  }
}

TEST(ServiceDifferentialTest, EngineModeArrivalReproducesEngines) {
  const std::vector<core::golden::Run> goldens =
      LoadGolden("engine_service_arrival_runs.txt");
  ASSERT_EQ(goldens.size(), static_cast<size_t>(kSeeds))
      << "missing or malformed golden";
  for (uint64_t seed = 1; seed <= kSeeds; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    ASSERT_EQ(goldens[seed - 1].seed, seed);
    const std::unique_ptr<Session> session =
        RunWithArrival(MakeWorkload(seed), seed);
    ExpectMatchesGolden(goldens[seed - 1], *session);
  }
}

void ExpectStepRecordsEqual(
    const std::vector<core::BudgetScheduler::StepRecord>& direct,
    const std::vector<StepOutcome>& served, uint64_t seed) {
  ASSERT_EQ(direct.size(), served.size()) << "seed " << seed;
  for (size_t i = 0; i < direct.size(); ++i) {
    EXPECT_EQ(direct[i].step, served[i].step) << "seed " << seed;
    EXPECT_EQ(direct[i].instance, served[i].instance) << "seed " << seed;
    EXPECT_EQ(direct[i].tasks, served[i].tasks) << "seed " << seed;
    EXPECT_EQ(direct[i].answers, served[i].answers) << "seed " << seed;
    EXPECT_EQ(direct[i].expected_gain_bits, served[i].expected_gain_bits)
        << "seed " << seed;
    EXPECT_EQ(direct[i].total_utility_bits, served[i].utility_bits)
        << "seed " << seed;
    EXPECT_EQ(direct[i].cumulative_cost, served[i].cumulative_cost)
        << "seed " << seed;
  }
}

/// Direct scheduler fixture for the pipelined pin.
struct DirectSchedulerRun {
  std::vector<std::unique_ptr<crowd::SimulatedCrowd>> crowds;
  std::unique_ptr<core::GreedySelector> selector;
  std::unique_ptr<core::BudgetScheduler> scheduler;
};

DirectSchedulerRun MakeDirectScheduler(const Workload& workload) {
  DirectSchedulerRun run;
  run.crowds = MakeCrowds(workload);
  run.selector = std::make_unique<core::GreedySelector>(GreedyOptions());
  core::BudgetScheduler::Options options;
  options.total_budget = workload.budget_per_instance *
                         static_cast<int>(workload.joints.size());
  options.tasks_per_step = workload.tasks_per_step;
  options.max_in_flight = workload.max_in_flight;
  auto scheduler = core::BudgetScheduler::Create(MakeCrowd(),
                                                 run.selector.get(), options);
  EXPECT_TRUE(scheduler.ok());
  run.scheduler =
      std::make_unique<core::BudgetScheduler>(std::move(scheduler).value());
  for (size_t i = 0; i < workload.joints.size(); ++i) {
    auto id = run.scheduler->AddInstanceAsync(
        workload.names[i], workload.joints[i], run.crowds[i].get());
    EXPECT_TRUE(id.ok());
  }
  return run;
}

TEST(ServiceDifferentialTest, BlockingModeReproducesSchedulerRun) {
  // The golden is what the blocking scheduler loop produced directly on
  // each seed's workload (MakeDirectScheduler, then the loop).
  const std::vector<core::golden::Run> goldens = core::golden::Load(
      std::string(CROWDFUSION_SCHEDULER_GOLDEN_DIR) +
      "/blocking_service_runs.txt");
  ASSERT_EQ(goldens.size(), static_cast<size_t>(kSeeds))
      << "missing or malformed golden";
  for (uint64_t seed = 1; seed <= kSeeds; ++seed) {
    const core::golden::Run& expected = goldens[seed - 1];
    ASSERT_EQ(expected.seed, seed);
    const Workload workload = MakeWorkload(seed);
    const std::unique_ptr<Session> session =
        RunService(MakeRequest(workload, RunMode::kBlocking), seed);

    const std::vector<StepOutcome>& served = session->steps();
    ASSERT_EQ(served.size(), expected.steps.size()) << "seed " << seed;
    for (size_t i = 0; i < served.size(); ++i) {
      const core::golden::Step& want = expected.steps[i];
      EXPECT_EQ(want.step, served[i].step) << "seed " << seed;
      EXPECT_EQ(want.instance, served[i].instance) << "seed " << seed;
      EXPECT_EQ(want.tasks, served[i].tasks) << "seed " << seed;
      EXPECT_EQ(want.answers, served[i].answers) << "seed " << seed;
      EXPECT_EQ(want.expected_gain_bits, served[i].expected_gain_bits)
          << "seed " << seed;
      EXPECT_EQ(want.total_utility_bits, served[i].utility_bits)
          << "seed " << seed;
      EXPECT_EQ(want.cumulative_cost, served[i].cumulative_cost)
          << "seed " << seed;
    }
    ASSERT_EQ(static_cast<size_t>(session->num_instances()),
              expected.instances.size())
        << "seed " << seed;
    for (int i = 0; i < session->num_instances(); ++i) {
      EXPECT_EQ(expected.instances[static_cast<size_t>(i)].joint,
                session->joint(i))
          << "seed " << seed << " instance " << i;
      EXPECT_EQ(expected.instances[static_cast<size_t>(i)].cost_spent,
                session->cost_spent(i))
          << "seed " << seed << " instance " << i;
    }
    EXPECT_EQ(expected.total_cost_spent, session->total_cost_spent())
        << "seed " << seed;
  }
}

TEST(ServiceDifferentialTest, PipelinedModeReproducesSchedulerRunPipelined) {
  for (uint64_t seed = 1; seed <= kSeeds; ++seed) {
    const Workload workload = MakeWorkload(seed);
    DirectSchedulerRun direct = MakeDirectScheduler(workload);
    auto direct_records = direct.scheduler->RunPipelined();
    ASSERT_TRUE(direct_records.ok()) << "seed " << seed;

    const std::unique_ptr<Session> session =
        RunService(MakeRequest(workload, RunMode::kPipelined), seed);
    ExpectStepRecordsEqual(*direct_records, session->steps(), seed);
    for (int i = 0; i < session->num_instances(); ++i) {
      EXPECT_EQ(direct.scheduler->joint(i), session->joint(i))
          << "seed " << seed << " instance " << i;
    }
  }
}

/// The request itself must survive the wire: parse(serialize(r)) == r for
/// every seeded differential request, inline joints included.
TEST(ServiceDifferentialTest, DifferentialRequestsRoundTripThroughJson) {
  for (uint64_t seed = 1; seed <= kSeeds; ++seed) {
    const Workload workload = MakeWorkload(seed);
    for (const RunMode mode :
         {RunMode::kEngine, RunMode::kBlocking, RunMode::kPipelined}) {
      const FusionRequest request = MakeRequest(workload, mode);
      auto reparsed = ParseFusionRequest(SerializeFusionRequest(request));
      ASSERT_TRUE(reparsed.ok()) << "seed " << seed << ": "
                                 << reparsed.status();
      EXPECT_EQ(request, *reparsed) << "seed " << seed;
    }
  }
}

}  // namespace
}  // namespace crowdfusion::service
