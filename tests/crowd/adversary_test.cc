#include "crowd/adversary.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "crowd/simulated_crowd.h"
#include "crowd/worker.h"

namespace crowdfusion::crowd {
namespace {

core::AdversarySpec EnabledSpec() {
  core::AdversarySpec spec;
  spec.enabled = true;
  return spec;
}

std::unique_ptr<AdversaryModel> MustCreate(const core::AdversarySpec& spec) {
  auto model = AdversaryModel::Create(spec);
  EXPECT_TRUE(model.ok()) << model.status().ToString();
  return std::move(model).value();
}

TEST(AdversaryModelTest, CreateValidatesTheSpec) {
  core::AdversarySpec spec = EnabledSpec();
  spec.num_workers = 0;
  EXPECT_FALSE(AdversaryModel::Create(spec).ok());

  spec = EnabledSpec();
  spec.colluder_fraction = -0.1;
  EXPECT_FALSE(AdversaryModel::Create(spec).ok());

  spec = EnabledSpec();
  spec.spammer_fraction = 1.5;
  EXPECT_FALSE(AdversaryModel::Create(spec).ok());

  // Individually legal fractions whose hostile sum exceeds the pool.
  spec = EnabledSpec();
  spec.colluder_fraction = 0.6;
  spec.sybil_fraction = 0.6;
  EXPECT_FALSE(AdversaryModel::Create(spec).ok());

  spec = EnabledSpec();
  spec.drift_floor = 0.7;
  spec.drift_ceiling = 0.3;
  EXPECT_FALSE(AdversaryModel::Create(spec).ok());

  spec = EnabledSpec();
  spec.drift_ceiling = 1.5;
  EXPECT_FALSE(AdversaryModel::Create(spec).ok());
}

TEST(AdversaryModelTest, RolesPartitionHostileFirst) {
  core::AdversarySpec spec = EnabledSpec();
  spec.num_workers = 10;
  spec.colluder_fraction = 0.2;
  spec.sybil_fraction = 0.2;
  spec.spammer_fraction = 0.1;
  spec.parrot_fraction = 0.1;
  const auto model = MustCreate(spec);
  EXPECT_EQ(model->CountRole(AdversaryRole::kColluder), 2);
  EXPECT_EQ(model->CountRole(AdversaryRole::kSybil), 2);
  EXPECT_EQ(model->CountRole(AdversaryRole::kSpammer), 1);
  EXPECT_EQ(model->CountRole(AdversaryRole::kParrot), 1);
  EXPECT_EQ(model->CountRole(AdversaryRole::kHonest), 4);
  // Hostile blocks come first, honest fills the tail.
  EXPECT_EQ(model->role(0), AdversaryRole::kColluder);
  EXPECT_EQ(model->role(9), AdversaryRole::kHonest);
}

TEST(AdversaryModelTest, CollusionTargetsAreSeedDeterministic) {
  core::AdversarySpec spec = EnabledSpec();
  spec.colluder_fraction = 0.5;
  spec.collusion_target_fraction = 0.5;
  spec.seed = 777;
  const auto a = MustCreate(spec);
  const auto b = MustCreate(spec);
  int targets = 0;
  for (int fact = 0; fact < 256; ++fact) {
    EXPECT_EQ(a->IsCollusionTarget(fact), b->IsCollusionTarget(fact)) << fact;
    if (a->IsCollusionTarget(fact)) ++targets;
  }
  // Roughly the requested fraction of a large universe.
  EXPECT_GT(targets, 96);
  EXPECT_LT(targets, 160);

  spec.collusion_target_fraction = 0.0;
  EXPECT_FALSE(MustCreate(spec)->IsCollusionTarget(3));
  spec.collusion_target_fraction = 1.0;
  EXPECT_TRUE(MustCreate(spec)->IsCollusionTarget(3));
}

TEST(AdversaryModelTest, ColludersFlipTargetsRegardlessOfOrder) {
  core::AdversarySpec spec = EnabledSpec();
  spec.num_workers = 4;
  spec.colluder_fraction = 1.0;
  spec.collusion_target_fraction = 1.0;
  const auto model = MustCreate(spec);
  const WorkerBias bias = WorkerBias::Uniform(0.9);
  for (int fact = 0; fact < 32; ++fact) {
    for (int ask = 0; ask < 8; ++ask) {
      const bool truth = (fact % 2) == 0;
      EXPECT_EQ(
          model->Judge(fact, truth, data::StatementCategory::kClean, bias),
          !truth)
          << "fact " << fact << " ask " << ask;
    }
  }
  // Whichever worker the model drew, every colluder flipped.
  for (int worker = 0; worker < 4; ++worker) {
    EXPECT_GT(model->answers_by(worker), 0) << "worker " << worker;
  }
}

TEST(AdversaryModelTest, ColluderCoverTrafficStaysAccurate) {
  core::AdversarySpec spec = EnabledSpec();
  spec.num_workers = 4;
  spec.colluder_fraction = 1.0;
  spec.collusion_target_fraction = 0.0;  // nothing targeted: all cover
  const auto model = MustCreate(spec);
  const WorkerBias bias = WorkerBias::Uniform(0.9);
  int correct = 0;
  const int kTrials = 20000;
  for (int i = 0; i < kTrials; ++i) {
    const bool truth = (i % 2) == 0;
    if (model->Judge(i % 8, truth, data::StatementCategory::kClean, bias) ==
        truth) {
      ++correct;
    }
  }
  EXPECT_NEAR(static_cast<double>(correct) / kTrials, 0.9, 0.01);
}

TEST(AdversaryModelTest, SybilsReplayOneMasterAnswerPerFact) {
  core::AdversarySpec spec = EnabledSpec();
  spec.num_workers = 8;
  spec.sybil_fraction = 1.0;
  const auto model = MustCreate(spec);
  const WorkerBias bias = WorkerBias::Uniform(0.7);
  for (int fact = 0; fact < 64; ++fact) {
    const bool first =
        model->Judge(fact, true, data::StatementCategory::kClean, bias);
    for (int ask = 0; ask < 8; ++ask) {
      EXPECT_EQ(model->Judge(fact, true, data::StatementCategory::kClean, bias),
                first)
          << "fact " << fact << " ask " << ask;
    }
  }
}

TEST(AdversaryModelTest, MixedPoolLogShowsEachRolesAccuracy) {
  // A half-spammer pool: workers 0-2 spam, 3-5 stay honest. Scored from
  // the judgment log, spammers sit at a coin flip and honest workers at
  // the bias table's accuracy.
  core::AdversarySpec spec = EnabledSpec();
  spec.num_workers = 6;
  spec.spammer_fraction = 0.5;
  spec.seed = 77;
  const auto model = MustCreate(spec);
  const WorkerBias bias = WorkerBias::Uniform(0.85);
  const int kTasks = 400;
  for (int t = 0; t < kTasks; ++t) {
    for (int ask = 0; ask < spec.num_workers; ++ask) {
      (void)model->Judge(t, t % 2 == 0, data::StatementCategory::kClean, bias);
    }
  }
  std::vector<int> correct(static_cast<size_t>(spec.num_workers), 0);
  for (const AdversaryModel::Judgment& entry : model->log()) {
    if (entry.answer == entry.truth) {
      ++correct[static_cast<size_t>(entry.worker)];
    }
  }
  for (int w = 0; w < spec.num_workers; ++w) {
    const bool spammer = w < 3;
    ASSERT_EQ(model->role(w),
              spammer ? AdversaryRole::kSpammer : AdversaryRole::kHonest);
    // The model draws the worker; each gets about kTasks judgments.
    const int64_t answered = model->answers_by(w);
    ASSERT_GT(answered, kTasks / 2) << "worker " << w;
    EXPECT_NEAR(static_cast<double>(correct[static_cast<size_t>(w)]) /
                    static_cast<double>(answered),
                spammer ? 0.5 : 0.85, 0.08)
        << "worker " << w;
  }
}

TEST(AdversaryModelTest, SpammersIgnoreTheTruth) {
  core::AdversarySpec spec = EnabledSpec();
  spec.num_workers = 2;
  spec.spammer_fraction = 1.0;
  const auto model = MustCreate(spec);
  const WorkerBias bias = WorkerBias::Uniform(1.0);
  int agreed = 0;
  const int kTrials = 20000;
  for (int i = 0; i < kTrials; ++i) {
    if (model->Judge(0, true, data::StatementCategory::kClean, bias)) {
      ++agreed;
    }
  }
  // A perfect-accuracy bias table cannot rescue a coin-flipping spammer.
  EXPECT_NEAR(static_cast<double>(agreed) / kTrials, 0.5, 0.01);
}

TEST(AdversaryModelTest, ParrotsEchoTheRunningMajority) {
  core::AdversarySpec spec = EnabledSpec();
  spec.num_workers = 4;
  spec.colluder_fraction = 0.75;  // workers 0-2 collude, worker 3 parrots
  spec.collusion_target_fraction = 1.0;
  spec.parrot_fraction = 0.25;
  const auto model = MustCreate(spec);
  ASSERT_EQ(model->role(0), AdversaryRole::kColluder);
  ASSERT_EQ(model->role(3), AdversaryRole::kParrot);
  const WorkerBias bias = WorkerBias::Uniform(1.0);

  // A first judgment says "true" whoever gives it: an empty history
  // parrots "true", and a colluder flips the false truth.
  EXPECT_TRUE(model->Judge(7, false, data::StatementCategory::kClean, bias));

  // The colluders hammer "false" onto fact 3 (truth = true). Replaying the
  // log, every parrot answer is the majority of the answers before it
  // (ties parrot "true"), so once the colluders lead it echoes "false".
  for (int i = 0; i < 32; ++i) {
    (void)model->Judge(3, true, data::StatementCategory::kClean, bias);
  }
  int64_t votes_true = 0;
  int64_t votes_false = 0;
  int parrot_falses = 0;
  for (const AdversaryModel::Judgment& entry : model->log()) {
    if (entry.fact_id != 3) continue;
    if (model->role(entry.worker) == AdversaryRole::kParrot) {
      EXPECT_EQ(entry.answer, votes_true >= votes_false);
      if (!entry.answer) ++parrot_falses;
    } else {
      EXPECT_FALSE(entry.answer);
    }
    (entry.answer ? votes_true : votes_false) += 1;
  }
  EXPECT_GT(parrot_falses, 0);
}

TEST(AdversaryModelTest, DriftDecaysHonestAccuracyToTheFloor) {
  core::AdversarySpec spec = EnabledSpec();
  spec.num_workers = 1;
  spec.drift_per_answer = -0.2;
  spec.drift_floor = 0.1;
  spec.drift_ceiling = 0.9;
  const auto model = MustCreate(spec);
  const WorkerBias bias = WorkerBias::Uniform(0.8);

  // Exact ruler: base + drift x answers, clamped.
  EXPECT_DOUBLE_EQ(
      model->HonestAccuracy(0, data::StatementCategory::kClean, bias), 0.8);
  (void)model->Judge(0, true, data::StatementCategory::kClean, bias);
  EXPECT_DOUBLE_EQ(
      model->HonestAccuracy(0, data::StatementCategory::kClean, bias), 0.6);
  for (int i = 0; i < 10; ++i) {
    (void)model->Judge(0, true, data::StatementCategory::kClean, bias);
  }
  EXPECT_DOUBLE_EQ(
      model->HonestAccuracy(0, data::StatementCategory::kClean, bias), 0.1);

  // The ceiling clamps upward drift symmetrically.
  core::AdversarySpec up = EnabledSpec();
  up.num_workers = 1;
  up.drift_per_answer = 0.5;
  up.drift_ceiling = 0.9;
  const auto improver = MustCreate(up);
  (void)improver->Judge(0, true, data::StatementCategory::kClean, bias);
  (void)improver->Judge(0, true, data::StatementCategory::kClean, bias);
  EXPECT_DOUBLE_EQ(
      improver->HonestAccuracy(0, data::StatementCategory::kClean, bias),
      0.9);
}

TEST(AdversaryModelTest, LogRecordsEveryJudgmentInOrder) {
  core::AdversarySpec spec = EnabledSpec();
  spec.num_workers = 3;
  const auto model = MustCreate(spec);
  const WorkerBias bias = WorkerBias::Uniform(1.0);
  EXPECT_TRUE(model->log().empty());
  const bool first =
      model->Judge(5, true, data::StatementCategory::kClean, bias);
  const bool second =
      model->Judge(4, false, data::StatementCategory::kClean, bias);
  ASSERT_EQ(model->log().size(), 2u);
  EXPECT_EQ(model->log()[0].fact_id, 5);
  EXPECT_TRUE(model->log()[0].truth);
  EXPECT_EQ(model->log()[0].answer, first);
  EXPECT_EQ(model->log()[1].fact_id, 4);
  EXPECT_FALSE(model->log()[1].truth);
  EXPECT_EQ(model->log()[1].answer, second);
  // The logged workers are the ones whose answer counts moved.
  std::vector<int64_t> logged(3, 0);
  for (const AdversaryModel::Judgment& entry : model->log()) {
    ASSERT_GE(entry.worker, 0);
    ASSERT_LT(entry.worker, 3);
    ++logged[static_cast<size_t>(entry.worker)];
  }
  for (int w = 0; w < 3; ++w) {
    EXPECT_EQ(model->answers_by(w), logged[static_cast<size_t>(w)]) << w;
  }
}

TEST(AdversaryModelTest, SameSeedSameStream) {
  core::AdversarySpec spec = EnabledSpec();
  spec.num_workers = 6;
  spec.colluder_fraction = 0.3;
  spec.spammer_fraction = 0.3;
  spec.seed = 12345;
  const auto a = MustCreate(spec);
  const auto b = MustCreate(spec);
  const WorkerBias bias = WorkerBias::Uniform(0.8);
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(a->Judge(i % 5, i % 3 == 0, data::StatementCategory::kClean,
                       bias),
              b->Judge(i % 5, i % 3 == 0, data::StatementCategory::kClean,
                       bias))
        << i;
  }
}

TEST(SimulatedCrowdAdversaryTest, RefusesDisabledSpec) {
  SimulatedCrowd crowd = SimulatedCrowd::WithUniformAccuracy(
      {true, false}, 0.8, /*seed=*/1);
  core::AdversarySpec disabled;
  EXPECT_FALSE(crowd.ConfigureAdversary(disabled).ok());
  EXPECT_EQ(crowd.adversary(), nullptr);
}

TEST(SimulatedCrowdAdversaryTest, FullCollusionFlipsEveryAnswer) {
  SimulatedCrowd crowd = SimulatedCrowd::WithUniformAccuracy(
      {true, false, true}, 1.0, /*seed=*/1);
  core::AdversarySpec spec = EnabledSpec();
  spec.colluder_fraction = 1.0;
  spec.collusion_target_fraction = 1.0;
  ASSERT_TRUE(crowd.ConfigureAdversary(spec).ok());
  ASSERT_NE(crowd.adversary(), nullptr);
  const std::vector<int> all = {0, 1, 2};
  auto answers = crowd.CollectAnswers(all);
  ASSERT_TRUE(answers.ok());
  EXPECT_EQ(*answers, (std::vector<bool>{false, true, false}));
  EXPECT_DOUBLE_EQ(crowd.EmpiricalAccuracy(), 0.0);
}

}  // namespace
}  // namespace crowdfusion::crowd
