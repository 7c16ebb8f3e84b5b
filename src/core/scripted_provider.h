#ifndef CROWDFUSION_CORE_SCRIPTED_PROVIDER_H_
#define CROWDFUSION_CORE_SCRIPTED_PROVIDER_H_

#include <vector>

#include "core/async_provider.h"

namespace crowdfusion::core {

/// Deterministic AnswerProvider for tests, differentials, and config-built
/// runs: fact id `i` is always answered with `script[i]` (or with the
/// parity rule `i % 2 == 1` when the script is empty — the idiom the test
/// suite has used since PR 1). The first `failures_before_success`
/// collection calls fail with kUnavailable, which exercises retry and
/// failure-policy paths without a latency model.
class ScriptedProvider : public AnswerProvider {
 public:
  struct Options {
    /// Per-fact scripted answers; empty means the parity rule.
    std::vector<bool> script;
    /// Collection calls that fail (kUnavailable) before the first success.
    int failures_before_success = 0;

    friend bool operator==(const Options& a, const Options& b) = default;
  };

  ScriptedProvider() = default;
  explicit ScriptedProvider(Options options) : options_(std::move(options)) {
    failures_left_ = options_.failures_before_success;
  }

  common::Result<std::vector<bool>> CollectAnswers(
      std::span<const int> fact_ids) override;

  /// Collection calls made so far (successful or not).
  int calls() const { return calls_; }

  const Options& options() const { return options_; }

 private:
  Options options_;
  int failures_left_ = 0;
  int calls_ = 0;
};

}  // namespace crowdfusion::core

#endif  // CROWDFUSION_CORE_SCRIPTED_PROVIDER_H_
