#include "trace.h"

#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>
#include <utility>

#include "core/async_provider.h"
#include "core/registry.h"

namespace perfbench::trace {

namespace cf = crowdfusion;

namespace {

/// Spans kept in memory at most (about 48 MB); later spans are dropped.
constexpr int64_t kMaxSpans = 1 << 20;

struct ThreadBuffer {
  std::mutex mutex;
  std::vector<Span> spans;
  /// Open span ids on this thread (only the owning thread touches it).
  std::vector<int64_t> open;
};

std::atomic<bool> g_on{false};
std::atomic<int64_t> g_next_span{1};
std::atomic<int64_t> g_spans{0};
std::atomic<int64_t> g_next_session{1};

std::mutex g_buffers_mutex;
std::vector<std::shared_ptr<ThreadBuffer>> g_buffers;

std::mutex g_waits_mutex;
std::vector<double> g_ticket_waits_us;

ThreadBuffer& LocalBuffer() {
  thread_local std::shared_ptr<ThreadBuffer> buffer = [] {
    auto created = std::make_shared<ThreadBuffer>();
    std::lock_guard<std::mutex> lock(g_buffers_mutex);
    g_buffers.push_back(created);
    return created;
  }();
  return *buffer;
}

void AddTicketWait(int64_t ns) {
  std::lock_guard<std::mutex> lock(g_waits_mutex);
  g_ticket_waits_us.push_back(static_cast<double>(ns) * 1e-3);
}

class TracedSelector final : public cf::core::TaskSelector {
 public:
  TracedSelector(std::unique_ptr<cf::core::TaskSelector> inner,
                 int64_t request)
      : inner_(std::move(inner)), request_(request) {}

  cf::common::Result<cf::core::Selection> Select(
      const cf::core::SelectionRequest& request) override {
    const Scope scope("core.select", request_);
    auto result = inner_->Select(request);
    if (scope.active() && result.ok()) {
      const cf::core::SelectionStats& stats = result->stats;
      LayerCounters& counters = Counters();
      counters.selects.fetch_add(1, std::memory_order_relaxed);
      counters.evaluations.fetch_add(stats.evaluations,
                                     std::memory_order_relaxed);
      counters.pruned.fetch_add(stats.pruned, std::memory_order_relaxed);
      counters.select_ns.fetch_add(
          static_cast<int64_t>(stats.elapsed_seconds * 1e9),
          std::memory_order_relaxed);
      counters.preprocessing_ns.fetch_add(
          static_cast<int64_t>(stats.preprocessing_seconds * 1e9),
          std::memory_order_relaxed);
    }
    return result;
  }
  std::string name() const override { return inner_->name(); }
  bool ConcurrentSelectSafe() const override {
    return inner_->ConcurrentSelectSafe();
  }

 private:
  std::unique_ptr<cf::core::TaskSelector> inner_;
  int64_t request_;
};

/// Forwards both provider contracts to the wrapped handle's views.
class TracedProvider final : public cf::core::AnswerProvider,
                             public cf::core::AsyncAnswerProvider {
 public:
  TracedProvider(cf::core::ProviderHandle inner, int64_t request)
      : inner_(std::move(inner)), request_(request) {}
  ~TracedProvider() override {
    if (On() && inner_.tickets_resubmitted != nullptr) {
      Counters().tickets_resubmitted.fetch_add(inner_.tickets_resubmitted(),
                                               std::memory_order_relaxed);
    }
  }
  TracedProvider(const TracedProvider&) = delete;
  TracedProvider& operator=(const TracedProvider&) = delete;

  cf::common::Result<std::vector<bool>> CollectAnswers(
      std::span<const int> fact_ids) override {
    const Scope scope("crowd.collect", request_);
    auto result = inner_.sync->CollectAnswers(fact_ids);
    if (scope.active()) {
      Counters().tickets.fetch_add(1, std::memory_order_relaxed);
      AddTicketWait(scope.elapsed_ns());
    }
    return result;
  }

  cf::common::Result<cf::core::TicketId> Submit(
      std::span<const int> fact_ids,
      const cf::core::TicketOptions& options) override {
    const Scope scope("crowd.submit", request_);
    auto result = inner_.async->Submit(fact_ids, options);
    if (scope.active() && result.ok()) {
      Counters().tickets.fetch_add(1, std::memory_order_relaxed);
      std::lock_guard<std::mutex> lock(mutex_);
      blocked_ns_[*result] += scope.elapsed_ns();
    }
    return result;
  }
  using cf::core::AsyncAnswerProvider::Submit;

  cf::common::Result<cf::core::TicketStatus> Poll(
      cf::core::TicketId ticket) override {
    const Scope scope("crowd.poll", request_);
    auto result = inner_.async->Poll(ticket);
    if (scope.active()) {
      std::lock_guard<std::mutex> lock(mutex_);
      blocked_ns_[ticket] += scope.elapsed_ns();
    }
    return result;
  }

  cf::common::Result<std::vector<bool>> Await(
      cf::core::TicketId ticket) override {
    const Scope scope("crowd.await", request_);
    auto result = inner_.async->Await(ticket);
    if (scope.active()) {
      int64_t blocked = scope.elapsed_ns();
      {
        std::lock_guard<std::mutex> lock(mutex_);
        const auto it = blocked_ns_.find(ticket);
        if (it != blocked_ns_.end()) {
          blocked += it->second;
          blocked_ns_.erase(it);
        }
      }
      AddTicketWait(blocked);
    }
    return result;
  }

  void Cancel(cf::core::TicketId ticket) override {
    inner_.async->Cancel(ticket);
    std::lock_guard<std::mutex> lock(mutex_);
    blocked_ns_.erase(ticket);
  }

 private:
  cf::core::ProviderHandle inner_;
  int64_t request_;
  std::mutex mutex_;
  std::unordered_map<cf::core::TicketId, int64_t> blocked_ns_;
};

/// The server-side request a provider belongs to: the session whose
/// selector this thread built last (sessions build their selector, then
/// their providers, on one thread).
thread_local int64_t t_session = -1;

}  // namespace

bool On() { return g_on.load(std::memory_order_relaxed); }
void SetOn(bool on) { g_on.store(on, std::memory_order_relaxed); }

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Scope::Scope(const char* name, int64_t request)
    : active_(On()), name_(name), request_(request) {
  if (!active_) return;
  ThreadBuffer& buffer = LocalBuffer();
  id_ = g_next_span.fetch_add(1, std::memory_order_relaxed);
  parent_ = buffer.open.empty() ? -1 : buffer.open.back();
  buffer.open.push_back(id_);
  start_ns_ = NowNs();
}

Scope::~Scope() {
  if (!active_) return;
  const int64_t end_ns = NowNs();
  ThreadBuffer& buffer = LocalBuffer();
  buffer.open.pop_back();
  if (g_spans.fetch_add(1, std::memory_order_relaxed) >= kMaxSpans) return;
  std::lock_guard<std::mutex> lock(buffer.mutex);
  buffer.spans.push_back({id_, parent_, name_, start_ns_, end_ns, request_});
}

std::vector<Span> Collect() {
  std::vector<Span> all;
  std::lock_guard<std::mutex> lock(g_buffers_mutex);
  for (const auto& buffer : g_buffers) {
    std::lock_guard<std::mutex> buffer_lock(buffer->mutex);
    all.insert(all.end(), buffer->spans.begin(), buffer->spans.end());
  }
  return all;
}

void Clear() {
  {
    std::lock_guard<std::mutex> lock(g_buffers_mutex);
    for (const auto& buffer : g_buffers) {
      std::lock_guard<std::mutex> buffer_lock(buffer->mutex);
      buffer->spans.clear();
    }
  }
  g_spans.store(0);
  {
    std::lock_guard<std::mutex> lock(g_waits_mutex);
    g_ticket_waits_us.clear();
  }
  LayerCounters& counters = Counters();
  for (std::atomic<int64_t>* counter :
       {&counters.sessions, &counters.selects, &counters.evaluations,
        &counters.pruned, &counters.select_ns, &counters.preprocessing_ns,
        &counters.tickets, &counters.tickets_resubmitted}) {
    counter->store(0);
  }
}

bool WriteJsonLines(const std::vector<Span>& spans, const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  for (const Span& span : spans) {
    std::fprintf(file,
                 "{\"id\":%lld,\"parent\":%lld,\"name\":\"%s\","
                 "\"start_ns\":%lld,\"end_ns\":%lld,\"request\":%lld}\n",
                 static_cast<long long>(span.id),
                 static_cast<long long>(span.parent), span.name,
                 static_cast<long long>(span.start_ns),
                 static_cast<long long>(span.end_ns),
                 static_cast<long long>(span.request));
  }
  return std::fclose(file) == 0;
}

std::map<std::string, std::vector<double>> SelfTimesUs(
    const std::vector<Span>& spans) {
  std::unordered_map<int64_t, int64_t> child_ns;
  for (const Span& span : spans) {
    if (span.parent >= 0) child_ns[span.parent] += span.end_ns - span.start_ns;
  }
  std::map<std::string, std::vector<double>> by_name;
  for (const Span& span : spans) {
    const auto it = child_ns.find(span.id);
    const int64_t self = span.end_ns - span.start_ns -
                         (it == child_ns.end() ? 0 : it->second);
    by_name[span.name].push_back(static_cast<double>(self) * 1e-3);
  }
  return by_name;
}

LayerCounters& Counters() {
  static LayerCounters counters;
  return counters;
}

std::vector<double> TicketWaitsUs() {
  std::lock_guard<std::mutex> lock(g_waits_mutex);
  return g_ticket_waits_us;
}

void InstallDecorators(cf::service::FusionService& service) {
  auto base_selectors =
      std::make_shared<const cf::core::SelectorRegistry>(service.selectors());
  cf::core::SelectorRegistry selectors(base_selectors->category());
  for (const std::string& key : base_selectors->Keys()) {
    const auto status = selectors.Register(
        key,
        [base_selectors, key](const cf::core::SelectorSpec& spec)
            -> cf::common::Result<std::unique_ptr<cf::core::TaskSelector>> {
          // A session builds its selector first: number the session here.
          const int64_t request = g_next_session.fetch_add(1);
          t_session = request;
          if (On()) Counters().sessions.fetch_add(1);
          auto inner = base_selectors->Create(key, spec);
          if (!inner.ok() || key != "greedy") return inner;
          return std::unique_ptr<cf::core::TaskSelector>(
              std::make_unique<TracedSelector>(std::move(inner).value(),
                                               request));
        });
    if (!status.ok()) std::abort();
  }
  service.selectors() = std::move(selectors);

  auto base_providers =
      std::make_shared<const cf::core::ProviderRegistry>(service.providers());
  cf::core::ProviderRegistry providers(base_providers->category());
  for (const std::string& key : base_providers->Keys()) {
    const auto status = providers.Register(
        key,
        [base_providers, key](const cf::core::ProviderSpec& spec)
            -> cf::common::Result<cf::core::ProviderHandle> {
          auto inner = base_providers->Create(key, spec);
          if (!inner.ok() ||
              (key != "simulated_crowd" && key != "http_pool")) {
            return inner;
          }
          cf::core::ProviderHandle handle = std::move(inner).value();
          const bool sync = handle.sync != nullptr;
          const bool async = handle.async != nullptr;
          auto traced = std::make_shared<TracedProvider>(handle, t_session);
          cf::core::ProviderHandle wrapped;
          wrapped.sync = sync ? traced.get() : nullptr;
          wrapped.async = async ? traced.get() : nullptr;
          wrapped.served_correct = handle.served_correct;
          wrapped.tickets_resubmitted = handle.tickets_resubmitted;
          wrapped.owner = std::move(traced);
          return wrapped;
        });
    if (!status.ok()) std::abort();
  }
  service.providers() = std::move(providers);
}

}  // namespace perfbench::trace
