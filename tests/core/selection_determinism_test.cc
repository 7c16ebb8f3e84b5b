/// The selection contract that makes the chosen facts independent of the
/// evaluation path: entropies within kEntropyTieBits are a tie, the
/// greedy breaks it toward the lowest fact id and OPT toward the first
/// subset in enumeration order. The serial and threaded sparse refiner and
/// the literal Equation 2 greedy sum in different orders, so these tests
/// run all of them on instances whose candidates tie up to a few ULPs.
/// A last test pins the refiner's summation order to the input alone:
/// threads 1, 2 and auto give bit-identical entropies and selections.

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "common/thread_pool.h"
#include "core/greedy_selector.h"
#include "core/opt_selector.h"
#include "core/sparse_refiner.h"
#include "sparse_test_util.h"

namespace crowdfusion::core {
namespace {

CrowdModel MakeCrowd(double pc) {
  auto crowd = CrowdModel::Create(pc);
  EXPECT_TRUE(crowd.ok());
  return std::move(crowd).value();
}

/// Exchangeable facts: independent with equal marginals, so every
/// candidate's H(T ∪ {f}) is the same number, up to summation order.
/// n = 16 gives a full 2^16 support, large enough for the refiner's
/// threaded and entry-sharded paths to engage.
JointDistribution ExchangeableJoint() {
  auto joint = JointDistribution::FromIndependentMarginals(
      std::vector<double>(16, 0.7));
  EXPECT_TRUE(joint.ok());
  return std::move(joint).value();
}

/// One selection round of the "streaming" scenario's majority_vote run
/// (a 5-fact book, k = 1, Pc = 0.8). Facts 2 and 3 have the same answer
/// entropy up to the last ULP; which of them an engine ranked first used
/// to depend on its summation order.
JointDistribution StreamingNearTieJoint() {
  const std::vector<double> probs = {
      0.00057099316577149722, 0.00024767879392925473, 0.0076305738068858809,
      0.0010598019176230389,  0.00056793489507246154, 1.6559404962859963e-05,
      0.00208106558369615,    0.00028903688662446515, 0.00056793489507246154,
      1.6559404962859963e-05, 0.00208106558369615,    0.00028903688662446515,
      3.2516649745252303e-05, 4.5162013535072645e-06, 0.00056756334100804069,
      7.8828241806672285e-05, 0.0019076434517214702,  0.00026495047940575957,
      0.95224935262719279,    0.0046245901859914458,  0.00052026639592403718,
      7.2259221656116232e-05, 0.0090810134561286563,  0.001261251868906757,
      0.00052026639592403718, 7.2259221656116232e-05, 0.0090810134561286563,
      0.0012612518689067574,  0.00014189083525201017, 1.9707060451668068e-05,
      0.0024766400334896342,  0.00034397778242911561};
  std::vector<JointDistribution::Entry> entries;
  for (size_t mask = 0; mask < probs.size(); ++mask) {
    entries.push_back({static_cast<uint64_t>(mask), probs[mask]});
  }
  auto joint = JointDistribution::FromEntries(5, std::move(entries));
  EXPECT_TRUE(joint.ok()) << joint.status().ToString();
  return std::move(joint).value();
}

/// The three evaluation paths the tie rule must reconcile.
std::vector<GreedySelector::Options> AllGreedyPaths() {
  GreedySelector::Options serial;
  serial.use_pruning = true;
  serial.use_preprocessing = true;
  serial.preprocessing_threads = 1;
  GreedySelector::Options threaded = serial;
  threaded.preprocessing_threads = 4;
  GreedySelector::Options equation2;  // literal Equation 2, no refiner
  equation2.use_pruning = true;
  return {serial, threaded, equation2};
}

Selection SelectOrDie(const GreedySelector::Options& options,
                      const JointDistribution& joint, const CrowdModel& crowd,
                      int k, std::vector<int> candidates = {}) {
  GreedySelector greedy(options);
  SelectionRequest request;
  request.joint = &joint;
  request.crowd = &crowd;
  request.k = k;
  request.candidates = std::move(candidates);
  auto selection = greedy.Select(request);
  EXPECT_TRUE(selection.ok()) << selection.status().ToString();
  return selection.ok() ? std::move(selection).value() : Selection{};
}

TEST(SelectionTieRuleTest, ExchangeableFactsGoToTheLowestIds) {
  const JointDistribution joint = ExchangeableJoint();
  const CrowdModel crowd = MakeCrowd(0.8);
  // Candidate order is scrambled: the rule is about fact ids, not about
  // positions in the request.
  const std::vector<int> all = {9, 4, 15, 0, 12, 7, 2, 14,
                                1, 11, 6, 3, 13, 8, 10, 5};
  // Fewer than kEntryShards candidates over the 2^16 support: the
  // refiner's entry-sharded sum.
  const std::vector<int> few = {13, 7, 11, 5, 9};
  for (const GreedySelector::Options& options : AllGreedyPaths()) {
    SCOPED_TRACE(GreedySelector(options).name() + " threads=" +
                 std::to_string(options.preprocessing_threads));
    EXPECT_EQ(SelectOrDie(options, joint, crowd, 3, all).tasks,
              (std::vector<int>{0, 1, 2}));
    EXPECT_EQ(SelectOrDie(options, joint, crowd, 3, few).tasks,
              (std::vector<int>{5, 7, 9}));
  }
}

TEST(SelectionTieRuleTest, StreamingNearTieGoesToTheLowestId) {
  const JointDistribution joint = StreamingNearTieJoint();
  const CrowdModel crowd = MakeCrowd(0.8);
  SparsePartitionRefiner refiner(joint, crowd);
  EXPECT_NEAR(refiner.EntropyWithCandidate(2),
              refiner.EntropyWithCandidate(3), kEntropyTieBits);
  for (const GreedySelector::Options& options : AllGreedyPaths()) {
    SCOPED_TRACE(GreedySelector(options).name() + " threads=" +
                 std::to_string(options.preprocessing_threads));
    EXPECT_EQ(SelectOrDie(options, joint, crowd, 1).tasks,
              (std::vector<int>{2}));
    EXPECT_EQ(SelectOrDie(options, joint, crowd, 1, {4, 3, 2, 1, 0}).tasks,
              (std::vector<int>{2}));
  }
}

TEST(SelectionTieRuleTest, OptKeepsTheFirstSubsetOfANearTie) {
  const CrowdModel crowd = MakeCrowd(0.8);
  OptSelector opt;
  SelectionRequest request;
  request.crowd = &crowd;

  const JointDistribution streaming = StreamingNearTieJoint();
  request.joint = &streaming;
  request.k = 1;
  auto single = opt.Select(request);
  ASSERT_TRUE(single.ok()) << single.status().ToString();
  EXPECT_EQ(single->tasks, (std::vector<int>{2}));

  auto exchangeable = JointDistribution::FromIndependentMarginals(
      std::vector<double>(8, 0.7));
  ASSERT_TRUE(exchangeable.ok());
  request.joint = &exchangeable.value();
  request.k = 2;
  request.candidates = {6, 3, 5, 0};
  auto pair = opt.Select(request);
  ASSERT_TRUE(pair.ok()) << pair.status().ToString();
  EXPECT_EQ(pair->tasks, (std::vector<int>{6, 3}));
}

/// |O| = 10^5 over n = 30 facts. With two committed tasks and three
/// candidates the refiner entry-shards the batch; the thread count must
/// not change a single bit of it, nor of a pruned greedy on the same
/// joint.
TEST(SelectionThreadIndependenceTest, IdenticalForEveryThreadCount) {
  common::Rng rng(20170401);
  const JointDistribution joint = RandomSparseJoint(30, 100000, rng);
  const CrowdModel crowd = MakeCrowd(0.8);
  common::ThreadPool pool(4);
  const std::vector<int> candidates = {3, 17, 26};

  std::vector<std::vector<double>> entropies;
  std::vector<Selection> selections;
  for (int threads : {1, 2, 0}) {
    SparsePartitionRefiner::Options refiner_options;
    refiner_options.num_threads = threads;
    refiner_options.pool = &pool;
    SparsePartitionRefiner refiner(joint, crowd, refiner_options);
    refiner.Commit(5);
    refiner.Commit(11);
    entropies.push_back(refiner.EntropiesWithCandidates(candidates));

    GreedySelector::Options options;
    options.use_pruning = true;
    options.use_preprocessing = true;
    options.preprocessing_threads = threads;
    selections.push_back(SelectOrDie(options, joint, crowd, 6));
  }
  ASSERT_EQ(selections[0].tasks.size(), 6u);
  for (size_t i = 1; i < entropies.size(); ++i) {
    SCOPED_TRACE("run " + std::to_string(i));
    for (size_t c = 0; c < candidates.size(); ++c) {
      EXPECT_EQ(entropies[0][c], entropies[i][c])
          << "candidate " << candidates[c];
    }
    EXPECT_EQ(selections[0].tasks, selections[i].tasks);
    EXPECT_EQ(selections[0].entropy_bits, selections[i].entropy_bits);
  }
}

}  // namespace
}  // namespace crowdfusion::core
