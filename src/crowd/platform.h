#ifndef CROWDFUSION_CROWD_PLATFORM_H_
#define CROWDFUSION_CROWD_PLATFORM_H_

#include <memory>
#include <vector>

#include "common/clock.h"
#include "common/random.h"
#include "common/status.h"
#include "core/async_provider.h"
#include "crowd/adversary.h"
#include "crowd/latency_model.h"
#include "crowd/worker.h"
#include "data/statement.h"

namespace crowdfusion::crowd {

/// A fuller crowdsourcing-platform simulation than SimulatedCrowd: a pool
/// of heterogeneous workers, each task assigned to `redundancy` distinct
/// workers sampled from the pool, judgments aggregated by majority vote
/// (ties broken by a fair coin). Extends the paper's single-answer model
/// to the standard replication practice of real platforms; with
/// redundancy = 1 it reduces exactly to the paper's model.
///
/// Like SimulatedCrowd, the platform speaks the async ticket contract
/// natively (ConfigureAsync): every worker in the pool gets a seeded speed
/// scale, a task waits for the slowest of its `redundancy` assigned
/// workers, and the slowest task gates the batch — so higher redundancy
/// buys answer quality at the price of latency. Submit/CollectAnswers
/// must be externally serialized; Poll/Await are internally synchronized.
class CrowdPlatform : public core::AnswerProvider,
                      public core::AsyncAnswerProvider {
 public:
  struct Options {
    /// Distinct workers asked per task. Clamped to the pool size.
    int redundancy = 1;
    uint64_t seed = 99;
  };

  /// One log row per task assignment.
  struct TaskLog {
    int fact_id = -1;
    std::vector<int> worker_indices;
    std::vector<bool> judgments;
    bool aggregated = false;
  };

  /// Requires a non-empty worker pool and fact universe.
  static common::Result<CrowdPlatform> Create(
      std::vector<Worker> workers, std::vector<bool> truths,
      std::vector<data::StatementCategory> categories, Options options);

  common::Result<std::vector<bool>> CollectAnswers(
      std::span<const int> fact_ids) override;

  /// Installs the latency/failure model and clock for the async interface.
  /// Without this call, Submit works with zero latency on the real clock.
  /// `clock` is borrowed and must outlive the platform; nullptr means
  /// Clock::Real().
  void ConfigureAsync(LatencyOptions latency,
                      common::Clock* clock = nullptr);

  /// Installs a hostile worker layer over the REAL pool: the adversary's
  /// roles are assigned to this platform's worker indices (the spec's
  /// num_workers is overridden with the pool size), so task assignment,
  /// redundancy, and majority voting run unchanged while judgments come
  /// from each worker's role. Honest platforms (no call) run the
  /// historical code byte-for-byte.
  common::Status ConfigureAdversary(core::AdversarySpec spec);

  /// The installed adversary, or nullptr for an honest platform.
  const AdversaryModel* adversary() const { return adversary_.get(); }
  AdversaryModel* adversary() { return adversary_.get(); }

  common::Result<core::TicketId> Submit(
      std::span<const int> fact_ids,
      const core::TicketOptions& options) override;
  using core::AsyncAnswerProvider::Submit;
  common::Result<core::TicketStatus> Poll(core::TicketId ticket) override;
  common::Result<std::vector<bool>> Await(core::TicketId ticket) override;
  void Cancel(core::TicketId ticket) override;

  const std::vector<TaskLog>& task_log() const { return task_log_; }
  int64_t judgments_collected() const { return judgments_collected_; }

  /// Empirical fraction of aggregated answers matching the ground truth.
  double AggregatedAccuracy() const;

 private:
  CrowdPlatform(std::vector<Worker> workers, std::vector<bool> truths,
                std::vector<data::StatementCategory> categories,
                Options options)
      : workers_(std::move(workers)),
        truths_(std::move(truths)),
        categories_(std::move(categories)),
        options_(options),
        rng_(options.seed) {}

  core::TicketLedger& ledger();
  /// Latency until every assigned worker of every task in a batch of
  /// `batch_size` answered: max over redundancy × batch_size draws, each
  /// scaled by a randomly assigned worker's speed.
  double SampleBatchLatencySeconds(size_t batch_size);

  std::vector<Worker> workers_;
  std::vector<bool> truths_;
  std::vector<data::StatementCategory> categories_;
  Options options_;
  common::Rng rng_;
  std::unique_ptr<AdversaryModel> adversary_;
  std::vector<TaskLog> task_log_;
  int64_t judgments_collected_ = 0;
  int64_t aggregated_correct_ = 0;
  int64_t aggregated_total_ = 0;
  LatencyModel latency_;
  /// Seeded per-worker speed scales (1.0 = typical), drawn at
  /// ConfigureAsync.
  std::vector<double> worker_speed_;
  common::Clock* async_clock_ = nullptr;
  std::unique_ptr<core::TicketLedger> ledger_;
};

}  // namespace crowdfusion::crowd

#endif  // CROWDFUSION_CROWD_PLATFORM_H_
