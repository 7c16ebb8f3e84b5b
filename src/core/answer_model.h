#ifndef CROWDFUSION_CORE_ANSWER_MODEL_H_
#define CROWDFUSION_CORE_ANSWER_MODEL_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/status.h"
#include "core/crowd_model.h"
#include "core/joint_distribution.h"

namespace crowdfusion::core {

/// The crowd answer distribution (Definition 3, Equation 2):
///   P(Ans^T = a) = sum_o P(o) * Pc^{#Same(o,a)} * (1-Pc)^{#Diff(o,a)}
/// over the k = |T| asked facts. Answer patterns are packed into the low k
/// bits in task order: bit i corresponds to tasks[i].

/// Literal Equation 2 evaluation: O(2^k * |O| * k). This is the paper's
/// "brute force" cost model; used by tests and by the non-preprocessed
/// greedy/OPT variants that Table V times.
std::vector<double> AnswerDistributionBruteForce(const JointDistribution& joint,
                                                 std::span<const int> tasks,
                                                 const CrowdModel& crowd);

/// Fast equivalent: marginalize the joint onto T (one O(|O|) scan), then
/// push through k binary symmetric channels (O(k * 2^k) butterfly).
std::vector<double> AnswerDistribution(const JointDistribution& joint,
                                       std::span<const int> tasks,
                                       const CrowdModel& crowd);

/// H(T) = H({Ans^T}) in bits, via the fast path.
double AnswerEntropyBits(const JointDistribution& joint,
                         std::span<const int> tasks, const CrowdModel& crowd);

/// H(T) in bits via the literal Equation 2 path.
double AnswerEntropyBitsBruteForce(const JointDistribution& joint,
                                   std::span<const int> tasks,
                                   const CrowdModel& crowd);

/// The preprocessing stage (Section III-F) as the paper prints it: the full
/// answer joint distribution over all 2^n answer patterns when every fact
/// is asked (the paper's Table IV). Once built, the marginal answer
/// distribution of any task set is obtained by partition refinement
/// (Algorithm 2) in one scan per fact — this is what drops one greedy round
/// from O(2^k n k^2 |O|) to O(n k |O|).
///
/// Reference only: this table and PartitionRefiner below are the dense
/// Equation 2 oracle that tests and benches compare the
/// SparsePartitionRefiner against (and the Table IV reproduction). No
/// request path reaches them; GreedySelector preprocesses on the sparse
/// refiner alone.
class AnswerJointTable {
 public:
  /// Builds via the BSC butterfly in O(n * 2^n). Requires
  /// num_facts <= JointDistribution::kMaxDenseFacts.
  static common::Result<AnswerJointTable> Build(const JointDistribution& joint,
                                                const CrowdModel& crowd);

  /// Builds by the paper's literal method: for every answer pattern, scan
  /// the output support and accumulate Equation 2 terms, O(2^n * |O| * n)
  /// (the paper's O(|O|^2) with a dense support). Exists so the
  /// preprocessing cost itself can be benchmarked faithfully and the fast
  /// builder can be verified against it.
  static common::Result<AnswerJointTable> BuildByScan(
      const JointDistribution& joint, const CrowdModel& crowd);

  int num_facts() const { return num_facts_; }
  const std::vector<double>& probs() const { return probs_; }

  /// P(Ans^{all facts} = answer_mask), the Table IV entries.
  double Probability(uint64_t answer_mask) const {
    return probs_[answer_mask];
  }

 private:
  AnswerJointTable(int num_facts, std::vector<double> probs)
      : num_facts_(num_facts), probs_(std::move(probs)) {}

  int num_facts_;
  std::vector<double> probs_;  // dense, size 2^num_facts
};

/// Algorithm 2 as an incremental structure. Maintains the partition of the
/// answer table induced by the committed task set; each candidate
/// evaluation refines every part by the candidate's judgment in one scan
/// and returns the entropy of the refined marginal. Committing a fact keeps
/// the refined partition so the next greedy iteration pays one scan per
/// candidate, matching the paper's O(n|O|) per-iteration claim.
class PartitionRefiner {
 public:
  /// `table` must outlive the refiner.
  explicit PartitionRefiner(const AnswerJointTable* table);

  /// H(T ∪ {fact}) in bits, where T is the committed set. O(2^n) scan.
  double EntropyWithCandidate(int fact) const;

  /// Adds `fact` to the committed set, refining the stored partition.
  void Commit(int fact);

  /// Entropy of the committed task set's answer marginal, H(T).
  double CommittedEntropyBits() const;

  const std::vector<int>& committed() const { return committed_; }
  int num_parts() const { return num_parts_; }

 private:
  const AnswerJointTable* table_;
  std::vector<uint32_t> part_of_;  // per answer mask, in [0, num_parts_)
  int num_parts_ = 1;
  std::vector<int> committed_;
};

}  // namespace crowdfusion::core

#endif  // CROWDFUSION_CORE_ANSWER_MODEL_H_
