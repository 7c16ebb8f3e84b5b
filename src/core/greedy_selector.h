#ifndef CROWDFUSION_CORE_GREEDY_SELECTOR_H_
#define CROWDFUSION_CORE_GREEDY_SELECTOR_H_

#include "common/simd.h"
#include "core/task_selector.h"

namespace crowdfusion::core {

/// Algorithm 1: the (1 - 1/e)-approximate greedy task selector. Iteratively
/// adds the fact with the largest marginal gain ρ_t(T) = H(T ∪ {t}) - H(T);
/// stops early (K* < k) when no candidate has positive gain.
///
/// Two independent accelerations from the paper:
///  * Pruning (Section III-E, Theorem 3): after each iteration, any fact
///    whose achievable total entropy upper bound falls below the iteration
///    maximum is removed from all future iterations.
///  * Preprocessing (Section III-F, Algorithm 2): obtain every candidate
///    marginal by partition refinement of the answer joint, keeping the
///    refined partition between iterations. One engine runs it, the
///    SparsePartitionRefiner, which scans the |O| output support directly
///    (any n <= 64) and may shard candidate batches across threads. Its
///    committed set is dense in 2^|T| cells, so a preprocessed request with
///    k > SparsePartitionRefiner::kMaxCommittedTasks (20) fails with
///    kInvalidArgument. Without preprocessing, every candidate is
///    evaluated by the literal Equation 2 scan, the paper's brute-force
///    cost model.
///
/// Tie rule: candidates whose entropies lie within kEntropyTieBits of the
/// iteration maximum are tied, and the lowest fact id wins; the pruning
/// refill orders by (entropy desc, fact id asc) the same way. The refiner
/// and the Equation 2 scan sum in different orders and so differ in the
/// last ULPs; under this rule they select the same facts.
///
/// On the pruning bound: the paper prunes f_j when
///   H(T ∪ {f_j}) + log2(k - |T| - 1) < max_t H(T ∪ {f_t}).
/// Since a further task set S can contribute up to |S| bits of entropy
/// (2^|S| answer patterns), the *sound* bound is the additive
/// H(T ∪ {f_j}) + (k - |T| - 1); but because two candidates' entropies can
/// differ by at most 1 bit, the sound bound provably never fires before the
/// final iteration — it is a no-op. The paper's log2 form is therefore a
/// heuristic (it prunes aggressively and is what produces Table V's flat
/// "&Prune" column); the paper itself calls the result a "heuristic
/// solution ... without losing much effectiveness". Both bounds are
/// provided, plus an even more aggressive zero-offset variant for
/// ablations; the default is the paper's.
class GreedySelector : public TaskSelector {
 public:
  /// The offset added to a candidate's entropy when testing the Theorem 3
  /// prune condition. Smaller offset = more aggressive pruning.
  enum class PruningBound {
    /// log2(remaining slots); the paper's printed bound (heuristic).
    kPaperLog2,
    /// remaining slots, in bits; sound but fires only in the last
    /// iteration (provably never changes the selection).
    kSoundAdditive,
    /// 0; prune everything strictly below the iteration maximum
    /// (the strongest heuristic, for the ablation bench).
    kAggressiveZero,
  };

  struct Options {
    bool use_pruning = false;
    PruningBound pruning_bound = PruningBound::kPaperLog2;
    bool use_preprocessing = false;
    /// Threads for sparse candidate batches: 0 = auto, 1 = serial.
    int preprocessing_threads = 0;
    /// Kernel dispatch for the sparse refiner's batched scan. kAuto
    /// follows the host; dispatch never changes results (the kernels are
    /// bit-identical), only speed.
    common::SimdPolicy simd = common::SimdPolicy::kAuto;
    /// Gains at or below this threshold count as "no benefit" and stop the
    /// selection early.
    double min_gain_bits = 1e-12;
  };

  GreedySelector() = default;
  explicit GreedySelector(Options options) : options_(options) {}

  common::Result<Selection> Select(const SelectionRequest& request) override;

  std::string name() const override;

  /// Pure function of the request: no per-instance mutable state, so the
  /// scheduler may overlap Select() calls across books.
  bool ConcurrentSelectSafe() const override { return true; }

  const Options& options() const { return options_; }

 private:
  Options options_;
};

}  // namespace crowdfusion::core

#endif  // CROWDFUSION_CORE_GREEDY_SELECTOR_H_
