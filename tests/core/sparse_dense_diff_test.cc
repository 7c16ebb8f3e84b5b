/// Differential property tests pinning the sparse partition-refinement
/// engine to the dense reference refiner (and both to the literal
/// Equation 2 scan) on random seeded joints with n <= 20, where all three
/// are feasible. If the sparse path ever drifts — marginals, H(T),
/// per-candidate refinement gains, or the greedy's selected task set
/// against the Equation 2 greedy — one of these seeds catches it. A final
/// section runs the sparse engine alone at n = 64 with a 10^5-output
/// support, the scale the dense reference cannot represent, and
/// cross-checks its entropies against the independent marginalize-and-push
/// evaluator.

#include <algorithm>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "common/math_util.h"
#include "common/random.h"
#include "common/simd.h"
#include "core/answer_model.h"
#include "core/greedy_selector.h"
#include "core/sparse_refiner.h"
#include "core/utility.h"
#include "sparse_test_util.h"

namespace crowdfusion::core {
namespace {

constexpr double kTol = 1e-9;
constexpr int kNumSeeds = 64;

CrowdModel MakeCrowd(double pc) {
  auto crowd = CrowdModel::Create(pc);
  EXPECT_TRUE(crowd.ok());
  return std::move(crowd).value();
}

JointDistribution SeededSparseJoint(int n, int support, uint64_t seed) {
  common::Rng rng(seed * 0x9E3779B97F4A7C15ULL + 1);
  return RandomSparseJoint(n, support, rng);
}

struct SeedInstance {
  JointDistribution joint;
  CrowdModel crowd;
  std::vector<int> committed;
};

SeedInstance MakeInstance(uint64_t seed) {
  const int n = 4 + static_cast<int>(seed % 17);  // 4..20
  const int max_support = static_cast<int>(std::min<uint64_t>(1ULL << n, 400));
  const int support =
      2 +
      static_cast<int>((seed * 37) % static_cast<uint64_t>(max_support - 1));
  SeedInstance instance{SeededSparseJoint(n, support, seed),
                        MakeCrowd(0.6 + 0.08 * static_cast<double>(seed % 5)),
                        {}};
  common::Rng rng(seed ^ 0xABCDEF);
  const int committed_count = 1 + static_cast<int>(seed % 3);
  instance.committed =
      rng.SampleWithoutReplacement(n, std::min(committed_count, n));
  return instance;
}

TEST(SparseDenseDiffTest, MarginalsAgreeBitForBit) {
  for (uint64_t seed = 1; seed <= kNumSeeds; ++seed) {
    const SeedInstance instance = MakeInstance(seed);
    const JointDistribution& joint = instance.joint;
    const std::vector<double> all = joint.Marginals();
    ASSERT_EQ(all.size(), static_cast<size_t>(joint.num_facts()));
    const std::vector<double> dense = joint.ToDense();
    for (int f = 0; f < joint.num_facts(); ++f) {
      // The batched scan must match the single-fact scan exactly: both
      // accumulate the same probabilities in the same support order.
      EXPECT_EQ(all[static_cast<size_t>(f)], joint.Marginal(f))
          << "seed=" << seed << " fact=" << f;
      // And the dense table recomputation within tolerance.
      double from_dense = 0.0;
      for (size_t mask = 0; mask < dense.size(); ++mask) {
        if ((mask >> f) & 1ULL) from_dense += dense[mask];
      }
      EXPECT_NEAR(all[static_cast<size_t>(f)], from_dense, kTol)
          << "seed=" << seed << " fact=" << f;
    }
  }
}

TEST(SparseDenseDiffTest, CommittedEntropyAgreesAcrossEngines) {
  for (uint64_t seed = 1; seed <= kNumSeeds; ++seed) {
    const SeedInstance instance = MakeInstance(seed);
    const JointDistribution& joint = instance.joint;

    auto table = AnswerJointTable::Build(joint, instance.crowd);
    ASSERT_TRUE(table.ok()) << table.status().ToString();
    PartitionRefiner dense_refiner(&table.value());
    SparsePartitionRefiner sparse_refiner(joint, instance.crowd);
    for (int fact : instance.committed) {
      dense_refiner.Commit(fact);
      sparse_refiner.Commit(fact);
    }

    const double h_fast =
        AnswerEntropyBits(joint, instance.committed, instance.crowd);
    const double h_brute =
        AnswerEntropyBitsBruteForce(joint, instance.committed, instance.crowd);
    const double h_dense = dense_refiner.CommittedEntropyBits();
    const double h_sparse = sparse_refiner.CommittedEntropyBits();
    EXPECT_NEAR(h_fast, h_brute, kTol) << "seed=" << seed;
    EXPECT_NEAR(h_dense, h_fast, kTol) << "seed=" << seed;
    EXPECT_NEAR(h_sparse, h_fast, kTol) << "seed=" << seed;
  }
}

TEST(SparseDenseDiffTest, RefinementGainsAgreeAcrossEngines) {
  for (uint64_t seed = 1; seed <= kNumSeeds; ++seed) {
    const SeedInstance instance = MakeInstance(seed);
    const JointDistribution& joint = instance.joint;

    auto table = AnswerJointTable::Build(joint, instance.crowd);
    ASSERT_TRUE(table.ok()) << table.status().ToString();
    PartitionRefiner dense_refiner(&table.value());
    SparsePartitionRefiner sparse_refiner(joint, instance.crowd);
    for (int fact : instance.committed) {
      dense_refiner.Commit(fact);
      sparse_refiner.Commit(fact);
    }
    const double h_committed = sparse_refiner.CommittedEntropyBits();

    std::vector<int> candidates;
    for (int f = 0; f < joint.num_facts(); ++f) {
      if (std::find(instance.committed.begin(), instance.committed.end(), f) ==
          instance.committed.end()) {
        candidates.push_back(f);
      }
    }
    auto profile = MarginalGainProfile(joint, instance.committed, candidates,
                                       instance.crowd);
    ASSERT_TRUE(profile.ok()) << profile.status().ToString();
    const std::vector<double> batch =
        sparse_refiner.EntropiesWithCandidates(candidates);

    for (size_t c = 0; c < candidates.size(); ++c) {
      const int fact = candidates[c];
      std::vector<int> extended = instance.committed;
      extended.push_back(fact);
      const double h_brute =
          AnswerEntropyBitsBruteForce(joint, extended, instance.crowd);
      const double h_dense = dense_refiner.EntropyWithCandidate(fact);
      const double h_sparse = sparse_refiner.EntropyWithCandidate(fact);
      EXPECT_NEAR(h_dense, h_brute, kTol) << "seed=" << seed << " f=" << fact;
      EXPECT_NEAR(h_sparse, h_brute, kTol) << "seed=" << seed << " f=" << fact;
      // The batch API is the same computation, just sharded.
      EXPECT_EQ(batch[c], h_sparse) << "seed=" << seed << " f=" << fact;
      EXPECT_NEAR(profile->at(c), h_sparse - h_committed, kTol)
          << "seed=" << seed << " f=" << fact;
    }
  }
}

/// The greedy's one preprocessing engine against the literal Equation 2
/// greedy: under the tie rule (kEntropyTieBits, lowest fact id) the two
/// select the same tasks on every seed, though they sum in different
/// orders.
TEST(SparseDenseDiffTest, GreedySelectionAgreesAcrossEngines) {
  for (uint64_t seed = 1; seed <= kNumSeeds; ++seed) {
    const SeedInstance instance = MakeInstance(seed);
    const int k = std::min(3, instance.joint.num_facts());

    GreedySelector::Options sparse_options;
    sparse_options.use_preprocessing = true;
    GreedySelector sparse_greedy(sparse_options);
    GreedySelector brute_greedy;  // literal Equation 2, no preprocessing

    SelectionRequest request;
    request.joint = &instance.joint;
    request.crowd = &instance.crowd;
    request.k = k;

    auto sparse_sel = sparse_greedy.Select(request);
    auto brute_sel = brute_greedy.Select(request);
    ASSERT_TRUE(sparse_sel.ok()) << sparse_sel.status().ToString();
    ASSERT_TRUE(brute_sel.ok()) << brute_sel.status().ToString();

    EXPECT_EQ(sparse_sel->tasks, brute_sel->tasks) << "seed=" << seed;
    EXPECT_NEAR(sparse_sel->entropy_bits, brute_sel->entropy_bits,
                kEntropyTieBits)
        << "seed=" << seed;
  }
}

/// SIMD leg of the differential: on AVX2 hosts, the forced-AVX2 batched
/// kernel must be bit-identical to the forced-scalar one on every seed the
/// dense/brute tests above pin — closing the chain
/// simd ≡ scalar ≡ dense ≡ Equation 2. Hosts without AVX2 (including
/// CROWDFUSION_DISABLE_SIMD builds) skip; the scalar tile kernel is still
/// pinned by RefinementGainsAgreeAcrossEngines.
TEST(SparseDenseDiffTest, SimdKernelBitIdenticalToScalarOnAllSeeds) {
  if (!common::CpuSupportsAvx2()) {
    GTEST_SKIP() << "host cannot run the AVX2 kernel";
  }
  for (uint64_t seed = 1; seed <= kNumSeeds; ++seed) {
    const SeedInstance instance = MakeInstance(seed);
    const JointDistribution& joint = instance.joint;

    SparsePartitionRefiner::Options scalar_options;
    scalar_options.simd = common::SimdPolicy::kForceScalar;
    SparsePartitionRefiner::Options avx2_options;
    avx2_options.simd = common::SimdPolicy::kForceAvx2;
    SparsePartitionRefiner scalar(joint, instance.crowd, scalar_options);
    SparsePartitionRefiner avx2(joint, instance.crowd, avx2_options);
    for (int fact : instance.committed) {
      scalar.Commit(fact);
      avx2.Commit(fact);
    }
    EXPECT_EQ(scalar.CommittedEntropyBits(), avx2.CommittedEntropyBits())
        << "seed=" << seed;

    std::vector<int> candidates;
    for (int f = 0; f < joint.num_facts(); ++f) {
      if (std::find(instance.committed.begin(), instance.committed.end(), f) ==
          instance.committed.end()) {
        candidates.push_back(f);
      }
    }
    const std::vector<double> h_scalar =
        scalar.EntropiesWithCandidates(candidates);
    const std::vector<double> h_avx2 = avx2.EntropiesWithCandidates(candidates);
    ASSERT_EQ(h_scalar.size(), h_avx2.size());
    for (size_t c = 0; c < candidates.size(); ++c) {
      EXPECT_EQ(h_scalar[c], h_avx2[c])
          << "seed=" << seed << " f=" << candidates[c];
    }
  }
}

/// The scale the whole exercise is for: n = 64 facts and |O| = 10^5
/// support outputs, far beyond any dense 2^n representation. The sparse
/// greedy must run and its reported entropies must match the independent
/// marginalize-and-push evaluator on the selected prefix sets.
TEST(SparseDenseDiffTest, SparseGreedyHandlesSixtyFourFacts) {
  const int n = 64;
  const int support = 100000;
  const JointDistribution joint = SeededSparseJoint(n, support, 20170401);
  const CrowdModel crowd = MakeCrowd(0.8);

  GreedySelector::Options options;
  options.use_preprocessing = true;
  GreedySelector greedy(options);
  SelectionRequest request;
  request.joint = &joint;
  request.crowd = &crowd;
  request.k = 6;
  auto selection = greedy.Select(request);
  ASSERT_TRUE(selection.ok()) << selection.status().ToString();
  ASSERT_EQ(selection->tasks.size(), 6u);

  std::set<int> distinct(selection->tasks.begin(), selection->tasks.end());
  EXPECT_EQ(distinct.size(), selection->tasks.size());
  for (int fact : selection->tasks) {
    EXPECT_GE(fact, 0);
    EXPECT_LT(fact, n);
  }
  EXPECT_NEAR(selection->entropy_bits,
              AnswerEntropyBits(joint, selection->tasks, crowd), kTol);
  // Each greedy prefix must add strictly positive entropy.
  double previous = 0.0;
  for (size_t prefix = 1; prefix <= selection->tasks.size(); ++prefix) {
    const std::vector<int> tasks(selection->tasks.begin(),
                                 selection->tasks.begin() +
                                     static_cast<std::ptrdiff_t>(prefix));
    const double h = AnswerEntropyBits(joint, tasks, crowd);
    EXPECT_GT(h, previous) << "prefix=" << prefix;
    previous = h;
  }
}

}  // namespace
}  // namespace crowdfusion::core
