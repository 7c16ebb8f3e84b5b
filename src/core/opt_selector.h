#ifndef CROWDFUSION_CORE_OPT_SELECTOR_H_
#define CROWDFUSION_CORE_OPT_SELECTOR_H_

#include "core/task_selector.h"

namespace crowdfusion::core {

/// Exact optimal task selection by brute force: enumerate every size-k
/// subset of the candidates and keep the one maximizing H(T). The problem
/// is NP-hard (Theorem 1), so this is exponential in k — usable only for
/// small instances; it anchors the Figure 2 comparison and the Table V
/// runtime rows. Near-ties (within kEntropyTieBits) go to the first subset
/// in enumeration order.
class OptSelector : public TaskSelector {
 public:
  struct Options {
    /// Evaluate H(T) with the literal Equation 2 scan (the paper's cost
    /// model for the un-preprocessed brute force) instead of the fast
    /// marginalize-and-push path.
    bool use_brute_force_entropy = false;
    /// Refuse requests whose subset count exceeds this, to avoid runaway
    /// benchmarks. 0 disables the cap.
    uint64_t max_subsets = 0;
  };

  OptSelector() = default;
  explicit OptSelector(Options options) : options_(options) {}

  common::Result<Selection> Select(const SelectionRequest& request) override;

  std::string name() const override { return "OPT"; }

  /// Pure function of the request: no per-instance mutable state.
  bool ConcurrentSelectSafe() const override { return true; }

 private:
  Options options_;
};

}  // namespace crowdfusion::core

#endif  // CROWDFUSION_CORE_OPT_SELECTOR_H_
