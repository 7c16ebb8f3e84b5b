#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/random.h"
#include "core/greedy_selector.h"
#include "core/scheduler.h"
#include "core/scripted_provider.h"
#include "crowd/simulated_crowd.h"
#include "scheduler_golden.h"

namespace crowdfusion::core {
namespace {

using common::ManualClock;

// Injected by tests/core/CMakeLists.txt.
#ifndef CROWDFUSION_SCHEDULER_GOLDEN_DIR
#error "CROWDFUSION_SCHEDULER_GOLDEN_DIR must be defined by the build"
#endif

CrowdModel MakeCrowd(double pc) {
  auto crowd = CrowdModel::Create(pc);
  EXPECT_TRUE(crowd.ok());
  return std::move(crowd).value();
}

JointDistribution RandomMarginalJoint(int n, common::Rng& rng) {
  std::vector<double> marginals(static_cast<size_t>(n));
  for (double& m : marginals) m = rng.NextUniform(0.2, 0.8);
  auto joint = JointDistribution::FromIndependentMarginals(marginals);
  EXPECT_TRUE(joint.ok());
  return std::move(joint).value();
}

std::vector<bool> RandomTruths(int n, common::Rng& rng) {
  std::vector<bool> truths(static_cast<size_t>(n));
  for (size_t i = 0; i < truths.size(); ++i) {
    truths[i] = rng.NextBernoulli(0.5);
  }
  return truths;
}

struct SchedulerFixture {
  std::unique_ptr<BudgetScheduler> scheduler;
  std::vector<std::unique_ptr<crowd::SimulatedCrowd>> providers;
};

/// Builds identical seeded multi-book workloads, so any divergence
/// between two runs is the scheduler's doing.
SchedulerFixture MakeFixture(uint64_t seed, TaskSelector* selector,
                             BudgetScheduler::Options options) {
  SchedulerFixture fixture;
  auto scheduler = BudgetScheduler::Create(MakeCrowd(0.8), selector, options);
  EXPECT_TRUE(scheduler.ok());
  fixture.scheduler =
      std::make_unique<BudgetScheduler>(std::move(scheduler).value());
  common::Rng rng(seed * 7919 + 13);
  const int num_instances = 2 + static_cast<int>(rng.NextBounded(3));
  for (int i = 0; i < num_instances; ++i) {
    const int n = 3 + static_cast<int>(rng.NextBounded(3));
    JointDistribution joint = RandomMarginalJoint(n, rng);
    fixture.providers.push_back(std::make_unique<crowd::SimulatedCrowd>(
        crowd::SimulatedCrowd::WithUniformAccuracy(
            RandomTruths(n, rng), 0.8, seed * 131 + static_cast<uint64_t>(i))));
    auto id = fixture.scheduler->AddInstance(
        "book" + std::to_string(i), std::move(joint),
        static_cast<AnswerProvider*>(fixture.providers.back().get()));
    EXPECT_TRUE(id.ok());
  }
  return fixture;
}

/// The blocking pin: with a zero-latency deterministic provider the loop
/// must reproduce, at any window size, exactly what the one-ticket-at-a-
/// time blocking loop produced before it was folded into this one — same
/// step sequence, task sets, answers, utilities and final joints, across
/// 32 seeds. The golden holds that loop's output (see scheduler_golden.h).
TEST(PipelinedSchedulerDifferentialTest, ZeroLatencyPipelinedEqualsBlocking) {
  constexpr int kSeeds = 32;
  const std::vector<golden::Run> goldens = golden::Load(
      std::string(CROWDFUSION_SCHEDULER_GOLDEN_DIR) +
      "/blocking_scheduler_runs.txt");
  ASSERT_EQ(goldens.size(), static_cast<size_t>(kSeeds))
      << "missing or malformed golden";
  for (const int max_in_flight : {1, 4}) {
    for (uint64_t seed = 1; seed <= kSeeds; ++seed) {
      SCOPED_TRACE("max_in_flight " + std::to_string(max_in_flight) +
                   " seed " + std::to_string(seed));
      const golden::Run& expected = goldens[seed - 1];
      ASSERT_EQ(expected.seed, seed);
      GreedySelector selector;
      BudgetScheduler::Options options;
      options.total_budget = 14;
      options.tasks_per_step = 1 + static_cast<int>(seed % 3);
      options.max_in_flight = max_in_flight;

      SchedulerFixture pipelined = MakeFixture(seed, &selector, options);
      auto records = pipelined.scheduler->RunPipelined();
      ASSERT_TRUE(records.ok()) << records.status();
      const golden::Run actual =
          golden::Capture(seed, *records, *pipelined.scheduler);

      ASSERT_EQ(actual.steps.size(), expected.steps.size());
      for (size_t s = 0; s < expected.steps.size(); ++s) {
        SCOPED_TRACE("step " + std::to_string(s));
        const golden::Step& want = expected.steps[s];
        const golden::Step& got = actual.steps[s];
        EXPECT_EQ(got.step, want.step);
        EXPECT_EQ(got.instance, want.instance);
        EXPECT_EQ(got.tasks, want.tasks);
        EXPECT_EQ(got.answers, want.answers);
        EXPECT_EQ(got.expected_gain_bits, want.expected_gain_bits);
        EXPECT_EQ(got.total_utility_bits, want.total_utility_bits);
        EXPECT_EQ(got.cumulative_cost, want.cumulative_cost);
      }
      EXPECT_EQ(actual.total_cost_spent, expected.total_cost_spent);
      ASSERT_EQ(actual.instances.size(), expected.instances.size());
      for (size_t i = 0; i < expected.instances.size(); ++i) {
        EXPECT_EQ(actual.instances[i].cost_spent,
                  expected.instances[i].cost_spent)
            << "instance " << i;
        EXPECT_EQ(actual.instances[i].joint, expected.instances[i].joint)
            << "instance " << i;
      }
    }
  }
}

/// Concurrent selection compute must be invisible in results: with a
/// ConcurrentSelectSafe selector (the greedy), running stale-book
/// refreshes on the shared pool in parallel has to reproduce the serial
/// sweep record-for-record — the overlap changes wall-clock only.
TEST(PipelinedSchedulerDifferentialTest, ConcurrentSelectionEqualsSerial) {
  constexpr int kSeeds = 32;
  for (uint64_t seed = 1; seed <= kSeeds; ++seed) {
    GreedySelector selector;
    BudgetScheduler::Options options;
    options.total_budget = 14;
    options.tasks_per_step = 1 + static_cast<int>(seed % 3);
    options.max_in_flight = 4;

    options.concurrent_selection = false;
    SchedulerFixture serial = MakeFixture(seed, &selector, options);
    auto serial_records = serial.scheduler->RunPipelined();
    ASSERT_TRUE(serial_records.ok()) << "seed " << seed;

    options.concurrent_selection = true;
    SchedulerFixture concurrent = MakeFixture(seed, &selector, options);
    auto concurrent_records = concurrent.scheduler->RunPipelined();
    ASSERT_TRUE(concurrent_records.ok()) << "seed " << seed;

    ASSERT_EQ(concurrent_records->size(), serial_records->size())
        << "seed " << seed;
    for (size_t s = 0; s < serial_records->size(); ++s) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " step " +
                   std::to_string(s));
      const auto& serial_step = (*serial_records)[s];
      const auto& concurrent_step = (*concurrent_records)[s];
      EXPECT_EQ(concurrent_step.instance, serial_step.instance);
      EXPECT_EQ(concurrent_step.tasks, serial_step.tasks);
      EXPECT_EQ(concurrent_step.answers, serial_step.answers);
      EXPECT_DOUBLE_EQ(concurrent_step.expected_gain_bits,
                       serial_step.expected_gain_bits);
      EXPECT_DOUBLE_EQ(concurrent_step.total_utility_bits,
                       serial_step.total_utility_bits);
    }
    EXPECT_EQ(concurrent.scheduler->total_cost_spent(),
              serial.scheduler->total_cost_spent());
    // Both runs log every Select() they actually ran.
    EXPECT_EQ(concurrent.scheduler->selection_compute_seconds().size(),
              serial.scheduler->selection_compute_seconds().size())
        << "seed " << seed;
  }
}

/// Starvation regression: while a slow instance's ticket is in flight, the
/// other instances with positive gain must keep being scheduled — nobody
/// waits on someone else's latency.
TEST(PipelinedSchedulerTest, FastInstanceIsNotStarvedBySlowTicket) {
  ManualClock clock;
  GreedySelector selector;
  BudgetScheduler::Options options;
  options.total_budget = 10;
  options.tasks_per_step = 2;
  options.max_in_flight = 2;
  options.clock = &clock;
  options.max_poll_seconds = 1000.0;  // ManualClock: jump straight to ready
  auto scheduler = BudgetScheduler::Create(MakeCrowd(0.8), &selector, options);
  ASSERT_TRUE(scheduler.ok());

  // Instance 0: maximally uncertain (always wins the first pick) but its
  // crowd takes 500 virtual seconds per batch.
  auto slow_joint = JointDistribution::Uniform(6);
  ASSERT_TRUE(slow_joint.ok());
  crowd::SimulatedCrowd slow_crowd = crowd::SimulatedCrowd::WithUniformAccuracy(
      {true, false, true, false, true, false}, 0.8, 7);
  crowd::LatencyOptions slow_latency;
  slow_latency.median_seconds = 500.0;
  slow_latency.sigma = 0.0;
  slow_crowd.ConfigureAsync(slow_latency, &clock);
  ASSERT_TRUE(scheduler
                  ->AddInstanceAsync("slow", std::move(slow_joint).value(),
                                     &slow_crowd)
                  .ok());

  // Instance 1: less uncertain, but answers instantly.
  auto fast_joint = JointDistribution::FromIndependentMarginals(
      std::vector<double>{0.35, 0.65, 0.4, 0.6});
  ASSERT_TRUE(fast_joint.ok());
  crowd::SimulatedCrowd fast_crowd = crowd::SimulatedCrowd::WithUniformAccuracy(
      {true, true, false, false}, 0.8, 11);
  fast_crowd.ConfigureAsync(crowd::LatencyOptions{}, &clock);
  ASSERT_TRUE(
      scheduler->AddInstanceAsync("fast", std::move(fast_joint).value(),
                                  &fast_crowd)
          .ok());

  auto records = scheduler->RunPipelined();
  ASSERT_TRUE(records.ok());
  ASSERT_FALSE(records->empty());

  // The fast instance must land merges before the slow ticket does.
  int fast_merges_before_first_slow = 0;
  bool slow_seen = false;
  for (const auto& record : *records) {
    if (record.instance == 0) {
      slow_seen = true;
      break;
    }
    if (record.instance == 1) ++fast_merges_before_first_slow;
  }
  EXPECT_TRUE(slow_seen) << "slow ticket never landed";
  EXPECT_GE(fast_merges_before_first_slow, 1)
      << "fast instance starved behind the slow ticket";
  // Both instances got budget and the global budget was fully spent.
  EXPECT_EQ(scheduler->total_cost_spent(), 10);
  EXPECT_GT(scheduler->cost_spent(0), 0);
  EXPECT_GT(scheduler->cost_spent(1), 0);
}

/// Overlap accounting: in-flight reservations must never oversubscribe the
/// global budget even when the window is wider than what remains.
TEST(PipelinedSchedulerTest, InFlightReservationsRespectBudget) {
  ManualClock clock;
  GreedySelector selector;
  BudgetScheduler::Options options;
  options.total_budget = 6;
  options.tasks_per_step = 2;
  options.max_in_flight = 8;  // wider than budget/tasks_per_step
  options.clock = &clock;
  options.max_poll_seconds = 1000.0;
  auto scheduler = BudgetScheduler::Create(MakeCrowd(0.8), &selector, options);
  ASSERT_TRUE(scheduler.ok());

  std::vector<std::unique_ptr<crowd::SimulatedCrowd>> crowds;
  for (int i = 0; i < 5; ++i) {
    auto joint = JointDistribution::Uniform(4);
    ASSERT_TRUE(joint.ok());
    crowds.push_back(std::make_unique<crowd::SimulatedCrowd>(
        crowd::SimulatedCrowd::WithUniformAccuracy(
            {true, false, true, false}, 0.8, 100 + static_cast<uint64_t>(i))));
    crowd::LatencyOptions latency;
    latency.median_seconds = 50.0;
    latency.sigma = 0.0;
    crowds.back()->ConfigureAsync(latency, &clock);
    ASSERT_TRUE(scheduler
                    ->AddInstanceAsync("book" + std::to_string(i),
                                       std::move(joint).value(),
                                       crowds.back().get())
                    .ok());
  }

  auto records = scheduler->RunPipelined();
  ASSERT_TRUE(records.ok());
  EXPECT_EQ(scheduler->total_cost_spent(), 6);
  int merged_tasks = 0;
  for (const auto& record : *records) {
    if (record.instance >= 0) {
      merged_tasks += static_cast<int>(record.tasks.size());
    }
  }
  EXPECT_EQ(merged_tasks, 6);
}

/// Regression: a selection cached under a larger k must never overspend a
/// budget that is not a multiple of tasks_per_step (stale-k cache bug).
TEST(PipelinedSchedulerTest, NonMultipleBudgetIsNeverOverspent) {
  for (const int max_in_flight : {1, 4}) {
    GreedySelector selector;
    BudgetScheduler::Options options;
    options.total_budget = 7;  // not a multiple of tasks_per_step
    options.tasks_per_step = 2;
    options.max_in_flight = max_in_flight;
    auto scheduler =
        BudgetScheduler::Create(MakeCrowd(0.8), &selector, options);
    ASSERT_TRUE(scheduler.ok());
    std::vector<std::unique_ptr<crowd::SimulatedCrowd>> crowds;
    for (int i = 0; i < 3; ++i) {
      auto joint = JointDistribution::Uniform(5);
      ASSERT_TRUE(joint.ok());
      crowds.push_back(std::make_unique<crowd::SimulatedCrowd>(
          crowd::SimulatedCrowd::WithUniformAccuracy(
              {true, false, true, false, true}, 0.8,
              50 + static_cast<uint64_t>(i))));
      ASSERT_TRUE(scheduler
                      ->AddInstance("book" + std::to_string(i),
                                    std::move(joint).value(),
                                    crowds[static_cast<size_t>(i)].get())
                      .ok());
    }
    auto records = scheduler->RunPipelined();
    ASSERT_TRUE(records.ok());
    EXPECT_EQ(scheduler->total_cost_spent(), 7)
        << "max_in_flight " << max_in_flight;
  }
}

/// Regression: a run aborted with tickets still outstanding must not leave
/// instances stuck in_flight — a later run has to cancel the abandoned
/// tickets and schedule those instances again.
TEST(PipelinedSchedulerTest, BlockingRunRecoversAfterAbortedPipelinedRun) {
  ManualClock clock;
  GreedySelector selector;
  BudgetScheduler::Options options;
  options.total_budget = 8;
  options.tasks_per_step = 2;
  options.max_in_flight = 2;
  options.clock = &clock;
  options.max_poll_seconds = 1000.0;
  auto scheduler = BudgetScheduler::Create(MakeCrowd(0.8), &selector, options);
  ASSERT_TRUE(scheduler.ok());

  // Instance 0: highest gain, slow and healthy — in flight when the run
  // aborts. Instance 1: lower gain, instant, and its crowd fails the
  // first collection only.
  auto healthy_joint = JointDistribution::Uniform(6);
  ASSERT_TRUE(healthy_joint.ok());
  crowd::SimulatedCrowd healthy = crowd::SimulatedCrowd::WithUniformAccuracy(
      {true, false, true, false, true, false}, 0.8, 3);
  crowd::LatencyOptions slow_latency;
  slow_latency.median_seconds = 50.0;
  slow_latency.sigma = 0.0;
  healthy.ConfigureAsync(slow_latency, &clock);
  ASSERT_TRUE(scheduler
                  ->AddInstanceAsync("healthy",
                                     std::move(healthy_joint).value(),
                                     &healthy)
                  .ok());

  auto flaky_joint = JointDistribution::Uniform(3);
  ASSERT_TRUE(flaky_joint.ok());
  ScriptedProvider flaky{ScriptedProvider::Options{
      .script = {true, false, true}, .failures_before_success = 1}};
  ASSERT_TRUE(scheduler
                  ->AddInstance("flaky", std::move(flaky_joint).value(),
                                static_cast<AnswerProvider*>(&flaky))
                  .ok());

  // Healthy (higher gain) launches first and is pending for 50s; flaky
  // launches second, fails at once, and aborts the run with healthy still
  // in flight.
  auto aborted = scheduler->RunPipelined();
  ASSERT_FALSE(aborted.ok());
  EXPECT_EQ(aborted.status().code(), common::StatusCode::kUnavailable);

  // The second run must drop the abandoned ticket, schedule the healthy
  // instance again rather than skip it as "in flight", and spend the
  // whole budget.
  auto rerun = scheduler->RunPipelined();
  ASSERT_TRUE(rerun.ok()) << rerun.status();
  EXPECT_EQ(scheduler->total_cost_spent(), 8);
  EXPECT_GT(scheduler->cost_spent(0), 0);
}

/// A terminally failing ticket aborts the pipelined run with its status.
TEST(PipelinedSchedulerTest, TerminalTicketFailureAbortsTheRun) {
  ManualClock clock;
  GreedySelector selector;
  BudgetScheduler::Options options;
  options.total_budget = 4;
  options.clock = &clock;
  options.max_poll_seconds = 1000.0;
  options.ticket.max_attempts = 2;
  auto scheduler = BudgetScheduler::Create(MakeCrowd(0.8), &selector, options);
  ASSERT_TRUE(scheduler.ok());

  auto joint = JointDistribution::Uniform(3);
  ASSERT_TRUE(joint.ok());
  crowd::SimulatedCrowd crowd = crowd::SimulatedCrowd::WithUniformAccuracy(
      {true, false, true}, 0.8, 5);
  crowd::LatencyOptions latency;
  latency.median_seconds = 1.0;
  latency.sigma = 0.0;
  latency.failure_probability = 1.0;  // every attempt fails
  crowd.ConfigureAsync(latency, &clock);
  ASSERT_TRUE(
      scheduler->AddInstanceAsync("doomed", std::move(joint).value(), &crowd)
          .ok());

  auto records = scheduler->RunPipelined();
  ASSERT_FALSE(records.ok());
  EXPECT_EQ(records.status().code(), common::StatusCode::kUnavailable);
}

}  // namespace
}  // namespace crowdfusion::core
