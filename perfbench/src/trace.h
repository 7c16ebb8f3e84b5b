#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

// In-memory spans for the traced run. Spans are recorded only while
// tracing is on, from the benchmark's own files: around its calls into
// each layer, and inside decorators it registers over the builtin
// "greedy" selector and the "simulated_crowd" / "http_pool" providers.
// They are written out when the run ends.

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "service/fusion_service.h"

namespace perfbench::trace {

struct Span {
  int64_t id = 0;
  /// Enclosing span on the same thread, or -1.
  int64_t parent = -1;
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  /// Spans of one request share this id (a client op, or a server-side
  /// session, numbered when its selector is built).
  int64_t request = -1;
};

/// Tracing switch; off means decorators only forward.
bool On();
void SetOn(bool on);

int64_t NowNs();

/// Records a span over its lifetime when tracing is on.
class Scope {
 public:
  Scope(const char* name, int64_t request);
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  bool active() const { return active_; }
  int64_t elapsed_ns() const { return NowNs() - start_ns_; }

 private:
  bool active_;
  const char* name_;
  int64_t request_;
  int64_t id_ = 0;
  int64_t parent_ = -1;
  int64_t start_ns_ = 0;
};

/// Every span recorded so far, all threads.
std::vector<Span> Collect();
/// Drops every recorded span and resets the layer counters.
void Clear();
/// Writes spans as JSON lines; returns false on an I/O error.
bool WriteJsonLines(const std::vector<Span>& spans, const std::string& path);

/// Self time (duration minus the time covered by child spans), us, of
/// every span, grouped by name.
std::map<std::string, std::vector<double>> SelfTimesUs(
    const std::vector<Span>& spans);

/// Counters taken where the work happens, from the decorators.
struct LayerCounters {
  std::atomic<int64_t> sessions{0};
  std::atomic<int64_t> selects{0};
  std::atomic<int64_t> evaluations{0};
  std::atomic<int64_t> pruned{0};
  std::atomic<int64_t> select_ns{0};
  std::atomic<int64_t> preprocessing_ns{0};
  std::atomic<int64_t> tickets{0};
  std::atomic<int64_t> tickets_resubmitted{0};
};
LayerCounters& Counters();

/// Per-ticket time the caller spent blocked in provider calls (submit,
/// polls and await, or one synchronous collect), us.
std::vector<double> TicketWaitsUs();

/// Re-registers every selector and provider of `service` through its
/// registries, wrapping "greedy", "simulated_crowd" and "http_pool" in
/// tracing decorators. Keys and behaviour are unchanged.
void InstallDecorators(crowdfusion::service::FusionService& service);

}  // namespace perfbench::trace

#endif  // PERFBENCH_TRACE_H_
