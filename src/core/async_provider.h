#ifndef CROWDFUSION_CORE_ASYNC_PROVIDER_H_
#define CROWDFUSION_CORE_ASYNC_PROVIDER_H_

#include <cstdint>
#include <functional>
#include <limits>
#include <mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/clock.h"
#include "common/status.h"

namespace crowdfusion::core {

/// Source of crowd answers for selected tasks, answering synchronously.
/// The production implementation is crowd::SimulatedCrowd (the gMission
/// substitute); tests use scripted providers. Serving runs on the
/// asynchronous (ticketed) AsyncAnswerProvider below; any blocking
/// provider is lifted to it with SyncProviderAdapter.
class AnswerProvider {
 public:
  virtual ~AnswerProvider() = default;

  /// Returns the crowd's true/false judgment for each asked fact, in order.
  virtual common::Result<std::vector<bool>> CollectAnswers(
      std::span<const int> fact_ids) = 0;
};

/// Handle to one in-flight batch of crowd tasks.
using TicketId = int64_t;

/// Per-ticket service contract: how long the caller is willing to wait in
/// total (across retries) and how many attempts the provider may make.
struct TicketOptions {
  /// Overall deadline relative to submission, seconds, spanning every
  /// retry. A ticket whose attempts would resolve past it fails with
  /// DeadlineExceeded at the deadline instead.
  double deadline_seconds = std::numeric_limits<double>::infinity();
  /// Bounded retry: total attempts (first try included). Must be >= 1.
  int max_attempts = 3;
  /// Extra delay charged before each retry attempt.
  double retry_backoff_seconds = 0.0;
};

enum class TicketPhase {
  kInFlight,  // answers not available yet
  kReady,     // answers available, not yet taken
  kFailed,    // attempts or deadline exhausted
};

struct TicketStatus {
  TicketPhase phase = TicketPhase::kInFlight;
  /// Attempts consumed so far (final count once resolved).
  int attempts_used = 0;
  /// Seconds until the ticket resolves; 0 once kReady or kFailed. Pollers
  /// use it to sleep exactly as long as needed instead of spinning.
  double seconds_until_ready = 0.0;
  /// The failure, when phase == kFailed.
  common::Status error;
};

/// The asynchronous collection contract (the real-platform shape of
/// AnswerProvider): submitting a batch of fact ids returns a ticket
/// immediately; answers land after the platform's latency and are fetched
/// by ticket. One provider instance still serves one fact universe.
///
/// Thread-safety: implementations in this repo guard their ticket state, so
/// Submit/Poll/Await may be called from any thread; calls for the *same*
/// ticket should still come from one logical owner (Await consumes).
class AsyncAnswerProvider {
 public:
  virtual ~AsyncAnswerProvider() = default;

  /// Registers a batch of tasks with the crowd and returns its ticket.
  virtual common::Result<TicketId> Submit(std::span<const int> fact_ids,
                                          const TicketOptions& options) = 0;
  common::Result<TicketId> Submit(std::span<const int> fact_ids) {
    return Submit(fact_ids, TicketOptions());
  }

  /// Non-blocking status check. Unknown or already-taken tickets are
  /// NotFound.
  virtual common::Result<TicketStatus> Poll(TicketId ticket) = 0;

  /// Blocks (via the provider's clock) until the ticket resolves, then
  /// consumes it: returns the answers, or the ticket's failure status.
  virtual common::Result<std::vector<bool>> Await(TicketId ticket) = 0;

  /// Abandons a ticket the caller will never Await (e.g. a scheduler run
  /// aborted with batches still in flight), releasing its bookkeeping.
  /// Unknown tickets are ignored. Default: no-op, for providers without
  /// per-ticket state.
  virtual void Cancel(TicketId ticket) { (void)ticket; }
};

/// Shared ticket bookkeeping for the providers in this repo, which all
/// resolve a ticket's fate *eagerly at submit time* (answers, retries and
/// latency are sampled up front in submission order — keeping RNG streams
/// identical to the synchronous path) and then replay it against the
/// clock: Poll compares now to the precomputed ready time, Await sleeps
/// the difference. Mutex-guarded so a provider can be polled from a
/// scheduler thread while other threads submit.
class TicketLedger {
 public:
  /// The precomputed fate of a ticket.
  struct Outcome {
    /// Submission-to-resolution delay, seconds (includes retry backoff).
    double latency_seconds = 0.0;
    /// Answers on success; the terminal error otherwise.
    common::Result<std::vector<bool>> result =
        common::Status::Internal("unresolved ticket outcome");
    int attempts_used = 1;
  };

  /// `clock` must outlive the ledger; nullptr means Clock::Real().
  explicit TicketLedger(common::Clock* clock);

  TicketId Add(Outcome outcome);
  common::Result<TicketStatus> Poll(TicketId ticket);
  common::Result<std::vector<bool>> Await(TicketId ticket);

  /// Drops a ticket without consuming it (idempotent): abandoned tickets
  /// must not accumulate in a long-lived serving process.
  void Forget(TicketId ticket);

  /// Tickets submitted over the ledger's lifetime.
  int64_t tickets_issued() const;

  /// Tickets currently held (issued, not yet taken or forgotten).
  int64_t live_tickets() const;

 private:
  struct Record {
    double ready_at = 0.0;
    Outcome outcome;
  };

  mutable std::mutex mutex_;
  common::Clock* clock_;
  TicketId next_id_ = 1;
  std::unordered_map<TicketId, Record> tickets_;
};

/// Resolves a ticket's attempt schedule against TicketOptions: runs
/// `run_attempt` up to max_attempts times (charging `attempt_latency`
/// plus backoff for each), stopping at the first success or when the
/// deadline would pass. `attempt_latency` may be null (zero latency).
/// Attempts are numbered from 1.
TicketLedger::Outcome SimulateTicketAttempts(
    const TicketOptions& options,
    const std::function<common::Result<std::vector<bool>>(int attempt)>&
        run_attempt,
    const std::function<double(int attempt)>& attempt_latency);

/// Adapts any synchronous AnswerProvider to the async contract with zero
/// latency: answers are collected inside Submit (so the wrapped provider's
/// RNG stream advances in submission order, exactly as the blocking loop
/// would) and the ticket is ready immediately. Non-OK collections are
/// retried up to the ticket's max_attempts. The wrapped provider is not
/// owned and must outlive the adapter.
class SyncProviderAdapter : public AsyncAnswerProvider {
 public:
  /// `clock` is only consulted for ticket timestamps; nullptr means
  /// Clock::Real().
  explicit SyncProviderAdapter(AnswerProvider* provider,
                               common::Clock* clock = nullptr);

  common::Result<TicketId> Submit(std::span<const int> fact_ids,
                                  const TicketOptions& options) override;
  using AsyncAnswerProvider::Submit;
  common::Result<TicketStatus> Poll(TicketId ticket) override;
  common::Result<std::vector<bool>> Await(TicketId ticket) override;
  void Cancel(TicketId ticket) override;

 private:
  AnswerProvider* provider_;
  TicketLedger ledger_;
};

}  // namespace crowdfusion::core

#endif  // CROWDFUSION_CORE_ASYNC_PROVIDER_H_
