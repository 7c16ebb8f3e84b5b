#include "eval/experiment.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

namespace crowdfusion::eval {
namespace {

ExperimentOptions SmallOptions() {
  ExperimentOptions options;
  options.dataset.num_books = 12;
  options.dataset.num_sources = 12;
  options.dataset.seed = 9;
  options.budget_per_book = 20;
  options.tasks_per_round = 2;
  options.assumed_pc = 0.8;
  options.true_accuracy = 0.8;
  return options;
}

TEST(ExperimentTest, ValidatesOptions) {
  ExperimentOptions bad = SmallOptions();
  bad.budget_per_book = -1;
  EXPECT_FALSE(RunExperiment(bad).ok());
  bad = SmallOptions();
  bad.tasks_per_round = 0;
  EXPECT_FALSE(RunExperiment(bad).ok());
}

TEST(ExperimentTest, CurveStartsAtZeroCostAndGrows) {
  auto result = RunExperiment(SmallOptions());
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_GE(result->curve.size(), 2u);
  EXPECT_EQ(result->curve.front().cost, 0);
  for (size_t i = 1; i < result->curve.size(); ++i) {
    EXPECT_GE(result->curve[i].cost, result->curve[i - 1].cost);
  }
  EXPECT_LE(result->curve.back().cost,
            SmallOptions().budget_per_book * result->books_evaluated);
}

TEST(ExperimentTest, CrowdImprovesQuality) {
  auto result = RunExperiment(SmallOptions());
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->final_quality.f1, result->initial_quality.f1 + 0.05);
  EXPECT_GT(result->final_utility_bits, result->initial_utility_bits + 1.0);
  EXPECT_NEAR(result->crowd_empirical_accuracy, 0.8, 0.05);
}

TEST(ExperimentTest, GreedyBeatsRandom) {
  ExperimentOptions greedy_options = SmallOptions();
  greedy_options.budget_per_book = 8;
  auto greedy = RunExperiment(greedy_options);
  ASSERT_TRUE(greedy.ok());
  ExperimentOptions random_options = greedy_options;
  random_options.selector.kind = "random";
  auto random = RunExperiment(random_options);
  ASSERT_TRUE(random.ok());
  // At equal (small) budget, greedy utility should dominate.
  EXPECT_GT(greedy->final_utility_bits, random->final_utility_bits);
}

TEST(ExperimentTest, GreedyBeatsRandomAcrossCrowdSeeds) {
  // The same claim averaged over crowd seeds rather than one run; the
  // seeds must actually change the runs.
  ExperimentOptions options;
  options.dataset.num_books = 8;
  options.dataset.num_sources = 10;
  options.dataset.seed = 15;
  options.budget_per_book = 10;
  options.tasks_per_round = 2;
  const uint64_t base_seed = options.crowd_seed;
  double greedy_total = 0.0;
  double random_total = 0.0;
  std::vector<double> greedy_runs;
  for (uint64_t r = 0; r < 5; ++r) {
    options.crowd_seed = base_seed + r;
    options.selector.kind = "greedy";
    auto greedy = RunExperiment(options);
    options.selector.kind = "random";
    auto random = RunExperiment(options);
    ASSERT_TRUE(greedy.ok()) << greedy.status();
    ASSERT_TRUE(random.ok()) << random.status();
    greedy_total += greedy->final_utility_bits;
    random_total += random->final_utility_bits;
    greedy_runs.push_back(greedy->final_utility_bits);
  }
  EXPECT_GT(greedy_total, random_total);
  EXPECT_NE(std::count(greedy_runs.begin(), greedy_runs.end(),
                       greedy_runs.front()),
            static_cast<std::ptrdiff_t>(greedy_runs.size()));
}

TEST(ExperimentTest, AllSelectorsRunEndToEnd) {
  // The four greedy variants and the random baseline; the label is the
  // selector's own name().
  const struct {
    const char* kind;
    bool pruning;
    bool preprocessing;
    const char* name;
  } kSelectors[] = {
      {"greedy", false, false, "Approx."},
      {"greedy", true, false, "Approx.&Prune"},
      {"greedy", false, true, "Approx.&Pre."},
      {"greedy", true, true, "Approx.&Prune&Pre."},
      {"random", false, false, "Random"},
  };
  for (const auto& selector : kSelectors) {
    ExperimentOptions options = SmallOptions();
    options.budget_per_book = 4;
    options.selector.kind = selector.kind;
    options.selector.use_pruning = selector.pruning;
    options.selector.use_preprocessing = selector.preprocessing;
    auto result = RunExperiment(options);
    ASSERT_TRUE(result.ok()) << selector.name << ": " << result.status();
    EXPECT_GT(result->books_evaluated, 0);
    EXPECT_EQ(result->label, std::string(selector.name) + " k=2 Pc=0.80");
  }
}

TEST(ExperimentTest, AllInitializersRunEndToEnd) {
  for (const std::string& key : fusion::BuiltinFuserRegistry().Keys()) {
    ExperimentOptions options = SmallOptions();
    options.budget_per_book = 4;
    options.fuser.kind = key;
    auto result = RunExperiment(options);
    ASSERT_TRUE(result.ok()) << key << ": " << result.status();
  }
}

TEST(ExperimentTest, ZeroBudgetLeavesInitializerUntouched) {
  ExperimentOptions options = SmallOptions();
  options.budget_per_book = 0;
  auto result = RunExperiment(options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->curve.size(), 1u);
  EXPECT_EQ(result->final_quality.f1, result->initial_quality.f1);
}

TEST(ExperimentTest, BiasedCrowdLowersEffectiveAccuracy) {
  ExperimentOptions uniform = SmallOptions();
  uniform.true_accuracy = 0.86;
  auto plain = RunExperiment(uniform);
  ASSERT_TRUE(plain.ok());
  ExperimentOptions biased = uniform;
  biased.biased_crowd = true;
  auto result = RunExperiment(biased);
  ASSERT_TRUE(result.ok());
  EXPECT_LT(result->crowd_empirical_accuracy,
            plain->crowd_empirical_accuracy);
}

TEST(ExperimentTest, HigherPcGivesHigherUtility) {
  ExperimentOptions low = SmallOptions();
  low.assumed_pc = 0.7;
  low.true_accuracy = 0.7;
  ExperimentOptions high = SmallOptions();
  high.assumed_pc = 0.9;
  high.true_accuracy = 0.9;
  auto low_result = RunExperiment(low);
  auto high_result = RunExperiment(high);
  ASSERT_TRUE(low_result.ok());
  ASSERT_TRUE(high_result.ok());
  EXPECT_GT(high_result->final_utility_bits, low_result->final_utility_bits);
}

}  // namespace
}  // namespace crowdfusion::eval
