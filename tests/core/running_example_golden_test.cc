/// Golden test for the paper's worked example, promoted from the
/// bench_running_example smoke target: the selected task sets and entropy
/// values of the running example are pinned so the worked example cannot
/// silently drift. Internal fact id i is the paper's f_{i+1}; the paper's
/// Table III maximum H({f1, f4}) = 1.997 is internal {0, 3}.

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "core/greedy_selector.h"
#include "core/opt_selector.h"
#include "core/running_example.h"

namespace crowdfusion::core {
namespace {

constexpr double kTol = 1e-9;

std::vector<int> Sorted(std::vector<int> tasks) {
  std::sort(tasks.begin(), tasks.end());
  return tasks;
}

// Values computed by this implementation and cross-checked against the
// paper's printed 3-decimal tables (H(F) = 3.84, H({f1,f4}) = 1.997).
constexpr double kJointEntropyBits = 3.840031014344;
constexpr double kBestSingle = 1.0;                  // H({f1})
constexpr double kBestPair = 1.996864594937;         // H({f1, f4})
constexpr double kBestTriple = 2.989522079046;       // H({f1, f4, f3})
constexpr double kBestQuadruple = 3.969619323913;    // all four facts

Selection SelectOrDie(TaskSelector& selector, const JointDistribution& joint,
                      const CrowdModel& crowd, int k) {
  SelectionRequest request;
  request.joint = &joint;
  request.crowd = &crowd;
  request.k = k;
  auto selection = selector.Select(request);
  EXPECT_TRUE(selection.ok()) << selection.status().ToString();
  return std::move(selection).value();
}

TEST(RunningExampleGoldenTest, JointEntropyMatchesTableII) {
  EXPECT_NEAR(RunningExample::Joint().EntropyBits(), kJointEntropyBits, kTol);
}

TEST(RunningExampleGoldenTest, GreedySelectsThePaperSequence) {
  const JointDistribution joint = RunningExample::Joint();
  const CrowdModel crowd = RunningExample::Crowd();
  GreedySelector greedy;

  const Selection k1 = SelectOrDie(greedy, joint, crowd, 1);
  EXPECT_EQ(k1.tasks, (std::vector<int>{0}));  // paper: f1 first
  EXPECT_NEAR(k1.entropy_bits, kBestSingle, kTol);

  const Selection k2 = SelectOrDie(greedy, joint, crowd, 2);
  EXPECT_EQ(k2.tasks, (std::vector<int>{0, 3}));  // paper: {f1, f4} = 1.997
  EXPECT_NEAR(k2.entropy_bits, kBestPair, kTol);

  const Selection k3 = SelectOrDie(greedy, joint, crowd, 3);
  EXPECT_EQ(k3.tasks, (std::vector<int>{0, 3, 2}));
  EXPECT_NEAR(k3.entropy_bits, kBestTriple, kTol);

  const Selection k4 = SelectOrDie(greedy, joint, crowd, 4);
  EXPECT_EQ(k4.tasks, (std::vector<int>{0, 3, 2, 1}));
  EXPECT_NEAR(k4.entropy_bits, kBestQuadruple, kTol);
}

TEST(RunningExampleGoldenTest, OptAgreesWithGreedyOnTheExample) {
  const JointDistribution joint = RunningExample::Joint();
  const CrowdModel crowd = RunningExample::Crowd();
  OptSelector opt;

  const Selection k2 = SelectOrDie(opt, joint, crowd, 2);
  EXPECT_EQ(Sorted(k2.tasks), (std::vector<int>{0, 3}));
  EXPECT_NEAR(k2.entropy_bits, kBestPair, kTol);

  const Selection k3 = SelectOrDie(opt, joint, crowd, 3);
  EXPECT_EQ(Sorted(k3.tasks), (std::vector<int>{0, 2, 3}));
  EXPECT_NEAR(k3.entropy_bits, kBestTriple, kTol);
}

/// The accelerated configurations must reproduce the same worked example —
/// including the sparse refinement engine behind preprocessing, which on
/// this tiny dense instance is a pure representation change.
TEST(RunningExampleGoldenTest, AllGreedyEnginesReproduceTheExample) {
  const JointDistribution joint = RunningExample::Joint();
  const CrowdModel crowd = RunningExample::Crowd();

  std::vector<GreedySelector::Options> configurations(3);
  configurations[1].use_pruning = true;
  configurations[2].use_preprocessing = true;

  for (const auto& options : configurations) {
    GreedySelector greedy(options);
    const Selection k2 = SelectOrDie(greedy, joint, crowd, 2);
    EXPECT_EQ(k2.tasks, (std::vector<int>{0, 3})) << greedy.name();
    EXPECT_NEAR(k2.entropy_bits, kBestPair, kTol) << greedy.name();
  }
}

}  // namespace
}  // namespace crowdfusion::core
