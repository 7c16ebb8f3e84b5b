/// BudgetScheduler::Options::on_ticket_failure (ISSUE 4 satellite): under
/// kAbort a terminally failed ticket still kills the whole pipelined run
/// (the historical contract); under kSkipInstance it kills only its
/// instance — the run continues, budget reservations are released, and
/// healthy instances finish their work.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "common/clock.h"
#include "core/greedy_selector.h"
#include "core/scheduler.h"
#include "core/scripted_provider.h"
#include "crowd/simulated_crowd.h"

namespace crowdfusion::core {
namespace {

using common::ManualClock;

CrowdModel MakeCrowd() {
  auto crowd = CrowdModel::Create(0.8);
  EXPECT_TRUE(crowd.ok());
  return std::move(crowd).value();
}

JointDistribution SmallJoint() {
  const std::vector<double> marginals = {0.4, 0.55, 0.6};
  auto joint = JointDistribution::FromIndependentMarginals(marginals);
  EXPECT_TRUE(joint.ok());
  return std::move(joint).value();
}

struct Fixture {
  GreedySelector selector;
  ScriptedProvider doomed{ScriptedProvider::Options{
      .script = {true, false, true}, .failures_before_success = 1000000}};
  ScriptedProvider healthy{
      ScriptedProvider::Options{.script = {true, false, true}}};
  std::unique_ptr<BudgetScheduler> scheduler;

  explicit Fixture(BudgetScheduler::TicketFailurePolicy policy,
                   int total_budget = 6) {
    BudgetScheduler::Options options;
    options.total_budget = total_budget;
    options.tasks_per_step = 1;
    options.max_in_flight = 2;
    options.on_ticket_failure = policy;
    auto scheduler =
        BudgetScheduler::Create(MakeCrowd(), &selector, options);
    EXPECT_TRUE(scheduler.ok());
    this->scheduler =
        std::make_unique<BudgetScheduler>(std::move(scheduler).value());
    EXPECT_TRUE(
        this->scheduler
            ->AddInstance("doomed", SmallJoint(),
                          static_cast<AnswerProvider*>(&doomed))
            .ok());
    EXPECT_TRUE(
        this->scheduler
            ->AddInstance("healthy", SmallJoint(),
                          static_cast<AnswerProvider*>(&healthy))
            .ok());
  }
};

TEST(FailurePolicyTest, AbortIsTheDefaultAndStopsTheRun) {
  BudgetScheduler::Options defaults;
  EXPECT_EQ(defaults.on_ticket_failure,
            BudgetScheduler::TicketFailurePolicy::kAbort);

  Fixture fixture(BudgetScheduler::TicketFailurePolicy::kAbort);
  auto records = fixture.scheduler->RunPipelined();
  ASSERT_FALSE(records.ok());
  EXPECT_EQ(records.status().code(), common::StatusCode::kUnavailable);
  EXPECT_EQ(fixture.scheduler->dead_instances(), 0);
}

TEST(FailurePolicyTest, SkipInstanceKeepsServingTheHealthyInstance) {
  Fixture fixture(BudgetScheduler::TicketFailurePolicy::kSkipInstance);
  auto records = fixture.scheduler->RunPipelined();
  ASSERT_TRUE(records.ok()) << records.status();

  EXPECT_EQ(fixture.scheduler->dead_instances(), 1);
  EXPECT_TRUE(fixture.scheduler->instance_dead(0));
  EXPECT_FALSE(fixture.scheduler->instance_dead(1));

  // Every merged record belongs to the healthy instance, and the doomed
  // one spent nothing (its reservation was released, not leaked).
  EXPECT_FALSE(records->empty());
  for (const auto& record : *records) {
    if (record.instance < 0) continue;  // exhaustion marker
    EXPECT_EQ(record.instance, 1);
  }
  EXPECT_EQ(fixture.scheduler->cost_spent(0), 0);
  EXPECT_GT(fixture.scheduler->cost_spent(1), 0);
  EXPECT_EQ(fixture.scheduler->total_cost_spent(),
            fixture.scheduler->cost_spent(1));
  // The healthy instance's joint was refined; the doomed one's was not.
  EXPECT_NE(fixture.scheduler->joint(1), SmallJoint());
  EXPECT_EQ(fixture.scheduler->joint(0), SmallJoint());
  // The failing provider was tried exactly once (scheduler tickets
  // default to a single attempt).
  EXPECT_EQ(fixture.doomed.calls(), 1);
}

TEST(FailurePolicyTest, AllInstancesDeadEndsTheRunCleanly) {
  GreedySelector selector;
  ScriptedProvider doomed_a{ScriptedProvider::Options{
      .script = {true, false, true}, .failures_before_success = 1000000}};
  ScriptedProvider doomed_b{ScriptedProvider::Options{
      .script = {true, false, true}, .failures_before_success = 1000000}};
  BudgetScheduler::Options options;
  options.total_budget = 6;
  options.max_in_flight = 2;
  options.on_ticket_failure =
      BudgetScheduler::TicketFailurePolicy::kSkipInstance;
  auto scheduler = BudgetScheduler::Create(MakeCrowd(), &selector, options);
  ASSERT_TRUE(scheduler.ok());
  ASSERT_TRUE(scheduler
                  ->AddInstance("a", SmallJoint(),
                                static_cast<AnswerProvider*>(&doomed_a))
                  .ok());
  ASSERT_TRUE(scheduler
                  ->AddInstance("b", SmallJoint(),
                                static_cast<AnswerProvider*>(&doomed_b))
                  .ok());
  auto records = scheduler->RunPipelined();
  ASSERT_TRUE(records.ok()) << records.status();
  EXPECT_EQ(scheduler->dead_instances(), 2);
  EXPECT_EQ(scheduler->total_cost_spent(), 0);
  // Only the exhaustion marker may remain.
  for (const auto& record : *records) {
    EXPECT_EQ(record.instance, -1);
  }
}

TEST(FailurePolicyTest, DeadlineExpiredTicketIsSkippedToo) {
  // A latency-simulating crowd whose answers land after 10 s against a
  // 1 s ticket deadline: the ticket fails by deadline, not by outage.
  ManualClock clock;
  GreedySelector selector;
  crowd::SimulatedCrowd slow = crowd::SimulatedCrowd::WithUniformAccuracy(
      {true, false, true}, 0.8, 7);
  crowd::LatencyOptions latency;
  latency.median_seconds = 10.0;
  latency.sigma = 0.0;
  slow.ConfigureAsync(latency, &clock);
  crowd::SimulatedCrowd fast = crowd::SimulatedCrowd::WithUniformAccuracy(
      {true, false, true}, 0.8, 8);
  crowd::LatencyOptions instant;
  instant.median_seconds = 0.001;
  instant.sigma = 0.0;
  fast.ConfigureAsync(instant, &clock);

  BudgetScheduler::Options options;
  options.total_budget = 4;
  options.max_in_flight = 2;
  options.clock = &clock;
  options.ticket.deadline_seconds = 1.0;
  options.on_ticket_failure =
      BudgetScheduler::TicketFailurePolicy::kSkipInstance;
  auto scheduler = BudgetScheduler::Create(MakeCrowd(), &selector, options);
  ASSERT_TRUE(scheduler.ok());
  ASSERT_TRUE(scheduler->AddInstanceAsync("slow", SmallJoint(), &slow).ok());
  ASSERT_TRUE(scheduler->AddInstanceAsync("fast", SmallJoint(), &fast).ok());

  auto records = scheduler->RunPipelined();
  ASSERT_TRUE(records.ok()) << records.status();
  EXPECT_EQ(scheduler->dead_instances(), 1);
  EXPECT_TRUE(scheduler->instance_dead(0));
  EXPECT_GT(scheduler->cost_spent(1), 0);
  EXPECT_EQ(scheduler->cost_spent(0), 0);
}

/// Regression: under kAbort a failed ticket must give its budget
/// reservation back. A caller that retries the step after the error must
/// then spend the whole budget, with no spurious exhaustion marker —
/// both with the one-ticket window "blocking" mode runs on and with a
/// wider one.
TEST(FailurePolicyTest, AbortedTicketReleasesItsReservation) {
  for (const int max_in_flight : {1, 4}) {
    SCOPED_TRACE("max_in_flight " + std::to_string(max_in_flight));
    GreedySelector selector;
    ScriptedProvider flaky{ScriptedProvider::Options{
        .script = {true, false, true}, .failures_before_success = 1}};
    BudgetScheduler::Options options;
    options.total_budget = 4;
    options.tasks_per_step = 1;
    options.max_in_flight = max_in_flight;
    auto scheduler = BudgetScheduler::Create(MakeCrowd(), &selector, options);
    ASSERT_TRUE(scheduler.ok());
    ASSERT_TRUE(scheduler
                    ->AddInstance("flaky", SmallJoint(),
                                  static_cast<AnswerProvider*>(&flaky))
                    .ok());

    std::vector<BudgetScheduler::StepRecord> records;
    int failures = 0;
    for (int attempt = 0; attempt < 16; ++attempt) {
      auto more = scheduler->RunPipelinedStep(records);
      if (!more.ok()) {
        EXPECT_EQ(more.status().code(), common::StatusCode::kUnavailable);
        ++failures;
        continue;
      }
      if (!*more) break;
    }
    EXPECT_EQ(failures, 1);
    EXPECT_EQ(scheduler->total_cost_spent(), 4);
    for (const auto& record : records) {
      EXPECT_GE(record.instance, 0) << "spurious exhaustion marker";
    }
  }
}

}  // namespace
}  // namespace crowdfusion::core
