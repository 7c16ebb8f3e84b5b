#include "core/opt_selector.h"

#include <algorithm>

#include "common/bit_util.h"
#include "common/math_util.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "core/answer_model.h"

namespace crowdfusion::core {

using common::Status;

common::Result<Selection> OptSelector::Select(const SelectionRequest& request) {
  CF_ASSIGN_OR_RETURN(std::vector<int> candidates,
                      ResolveCandidates(request));
  const common::Stopwatch timer;
  const int n = static_cast<int>(candidates.size());
  const int k = std::min(request.k, n);
  if (options_.max_subsets > 0) {
    const uint64_t subsets = common::BinomialCoefficient(n, k);
    if (subsets > options_.max_subsets) {
      return Status::ResourceExhausted(common::StrFormat(
          "OPT would enumerate %llu subsets (cap %llu)",
          static_cast<unsigned long long>(subsets),
          static_cast<unsigned long long>(options_.max_subsets)));
    }
  }

  Selection best;
  best.entropy_bits = -1.0;
  std::vector<int> task_buffer(static_cast<size_t>(k));
  common::ForEachSubset(n, k, [&](const std::vector<int>& subset_idx) {
    for (int i = 0; i < k; ++i) {
      task_buffer[static_cast<size_t>(i)] =
          candidates[static_cast<size_t>(subset_idx[static_cast<size_t>(i)])];
    }
    const double h =
        options_.use_brute_force_entropy
            ? AnswerEntropyBitsBruteForce(*request.joint, task_buffer,
                                          *request.crowd)
            : AnswerEntropyBits(*request.joint, task_buffer, *request.crowd);
    ++best.stats.evaluations;
    // Tie rule: a later subset must beat the best by more than
    // kEntropyTieBits, so the first subset in enumeration order wins a
    // near-tie.
    if (h > best.entropy_bits + kEntropyTieBits) {
      best.entropy_bits = h;
      best.tasks = task_buffer;
    }
  });
  best.stats.elapsed_seconds = timer.ElapsedSeconds();
  return best;
}

}  // namespace crowdfusion::core
