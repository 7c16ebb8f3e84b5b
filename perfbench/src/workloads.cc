#include "workloads.h"

#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <istream>
#include <map>
#include <memory>
#include <ostream>
#include <streambuf>
#include <thread>
#include <utility>

#include "client.h"
#include "common/json.h"
#include "core/bayes.h"
#include "core/crowd_model.h"
#include "inputs.h"
#include "net/http.h"
#include "net/loopback_crowd_server.h"
#include "net/router.h"
#include "service/bulk_pipe.h"
#include "service/http_frontend.h"
#include "service/request_json.h"
#include "trace.h"

namespace perfbench {

namespace cf = crowdfusion;

namespace {

// ---------------------------------------------------------------------------
// Frozen workload parameters. Changing any of them changes the benchmark,
// so the baseline must be measured again (see README.md).
// ---------------------------------------------------------------------------

struct OnlineParams {
  /// Distinct request documents, cycled in a seeded order.
  int pool;
  /// Offered rate of the p50_ms phase: a third to a half of the
  /// max_rate_rps measured when the benchmark was defined (see README.md).
  double nominal_rps;
  /// Ops of each unloaded round.
  int64_t unloaded_ops;
};

constexpr int kBulkPool = 256;
constexpr int kBulkSupport = 500;
constexpr int kBulkWindow = 32;

/// Set-up runs this many times per run; setup_s is their median.
constexpr int kSetupRepeats = 5;
/// An untraced online run interleaves its phases in this many rounds. The
/// host's vCPUs are shared, and other tenants only ever make the program
/// slower: on the machine the benchmark was defined on, a single-threaded
/// task ran either at full speed or about 1.6x slower, switching every few
/// seconds, with no CPU steal reported. So every latency phase replays the
/// same ops every round and each op's latency is its fastest over the
/// rounds, and a rate is the best tenth (90th percentile) over the rounds:
/// figures a slow spell over most of the run leaves unchanged.
constexpr int kRounds = 40;
constexpr double kBestShare = 0.1;
/// Ops of each unloaded round: the same seeded prefix of the op sequence
/// every round.
constexpr int64_t kOnlineSmallUnloadedOps = 256;
constexpr int64_t kRemoteCrowdUnloadedOps = 32;
constexpr int64_t kBulkUnloadedLines = 64;
/// Lines of each full-load bulk round: one pass over the pool, the same
/// seeded prefix every round.
constexpr int64_t kBulkLoadedLines = kBulkPool;

constexpr OnlineParams kOnlineSmall{2048, 2000.0, kOnlineSmallUnloadedOps};
constexpr OnlineParams kRoutedRemoteCrowd{1024, 150.0,
                                          kRemoteCrowdUnloadedOps};

// ---------------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------------

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Median(std::vector<double> values) {
  return Percentile(std::move(values), 0.5);
}

/// The best tenth of per-round rates (see kRounds).
double BestRate(std::vector<double> rounds) {
  return Percentile(std::move(rounds), 1.0 - kBestShare);
}

/// Lowers each entry of `best` to the matching entry of `round`: each
/// op's fastest time over the rounds so far.
void KeepFastest(const std::vector<double>& round, std::vector<double>* best) {
  if (best->empty()) {
    *best = round;
    return;
  }
  for (size_t i = 0; i < std::min(round.size(), best->size()); ++i) {
    (*best)[i] = std::min((*best)[i], round[i]);
  }
}

/// Writes one figure's per-round values to stderr, so a run's spread
/// can be read without changing its result line.
void PrintRounds(const char* name, const std::vector<double>& values) {
  std::fprintf(stderr, "rounds %s", name);
  for (const double value : values) std::fprintf(stderr, " %.4g", value);
  std::fprintf(stderr, "\n");
}

double PeakRssMb() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

int Nproc() {
  return std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
}

double SecondsSince(int64_t start_ns) {
  return static_cast<double>(trace::NowNs() - start_ns) * 1e-9;
}

[[noreturn]] void Die(const std::string& what,
                      const cf::common::Status& status) {
  std::fprintf(stderr, "perfbench: %s: %s\n", what.c_str(),
               status.ToString().c_str());
  std::exit(3);
}

/// A seeded order over `pool` items, `rounds` shuffles long.
std::vector<int> SeededOrder(SeedRng& rng, int pool, int rounds) {
  std::vector<int> order;
  std::vector<int> round(static_cast<size_t>(pool));
  for (int r = 0; r < rounds; ++r) {
    for (int i = 0; i < pool; ++i) round[static_cast<size_t>(i)] = i;
    for (size_t i = round.size(); i > 1; --i) {
      std::swap(round[i - 1], round[rng.Below(i)]);
    }
    order.insert(order.end(), round.begin(), round.end());
  }
  return order;
}

/// utility_bits: the mean, over the pool's distinct requests, of the
/// utility the crowd budget bought (total Q after minus before). Exact for
/// a seed; every reply a run served was checked equal to its reference.
double MeanUtility(const RequestPool& pool) {
  double sum = 0.0;
  for (const double gain : pool.utility_gain_bits) sum += gain;
  return sum / static_cast<double>(pool.utility_gain_bits.size());
}

/// Median self time of one span name, or 0 when none was recorded.
double MedianSelfUs(const std::map<std::string, std::vector<double>>& self,
                    const char* name) {
  const auto it = self.find(name);
  return it == self.end() ? 0.0 : Median(it->second);
}

/// Per-layer figures common to every workload.
struct LayerFigures {
  double parse_us = 0.0;
  double decode_us = 0.0;
  double encode_us = 0.0;
  double json_parse_us = 0.0;
  double json_dump_us = 0.0;
  double merge_us = 0.0;
  double merges_per_req = 0.0;
  double select_us = 0.0;
  double select_calls_per_req = 0.0;
  double pruned_frac = 0.0;
  double preprocess_frac = 0.0;
  double await_ms = 0.0;
  double tickets_per_req = 0.0;
  double tickets_resubmitted = 0.0;
  // Per-workload figures; 0 where the workload has no such layer.
  double transport_ms = 0.0;
  double handler_ms = 0.0;
  double connections_accepted = 0.0;
  double requests_shed = 0.0;
  double pipe_peak_in_flight = 0.0;
  double router_hop_ms = 0.0;
  double proxy_failures = 0.0;
  double send_lag_p99_ms = 0.0;
  double p99_ms = 0.0;
  double overhead_frac = 0.0;
  double unaccounted_frac = 0.0;
};

/// Times each layer's public entry point in isolation on the workload's
/// own documents, for about `budget_seconds`: the reactor's request parser
/// on the wire bytes, the JSON codec and the typed request/response codec
/// on the bodies and references, and the Bayes merge replayed along each
/// reference's recorded steps. Records spans; returns merges per request.
double ProbeLayers(const RequestPool& pool,
                   const std::vector<std::string>& wire,
                   double budget_seconds) {
  const size_t n = std::min<size_t>(pool.bodies.size(), 64);
  std::vector<cf::service::FusionRequest> requests;
  std::vector<cf::common::JsonValue> replies;
  for (size_t i = 0; i < n; ++i) {
    auto request = cf::service::ParseFusionRequest(pool.bodies[i]);
    if (!request.ok()) Die("probe decode", request.status());
    requests.push_back(std::move(request).value());
    replies.push_back(cf::service::FusionResponseToJson(pool.reference[i]));
  }
  cf::net::HttpRequestParser parser;
  cf::net::HttpRequest parsed;
  size_t bytes = 0;
  int64_t merges = 0;
  int64_t replayed = 0;
  const int64_t start = trace::NowNs();
  trace::SetOn(true);
  do {
    for (size_t i = 0; i < n; ++i) {
      const auto id = static_cast<int64_t>(i);
      {
        const trace::Scope scope("net.parse", id);
        parser.Reset();
        parser.Consume(wire[i]);
        auto next = parser.Next(&parsed);
        if (!next.ok() || !*next) std::abort();
      }
      {
        const trace::Scope scope("common.json_parse", id);
        auto json = cf::common::JsonValue::Parse(pool.bodies[i]);
        if (!json.ok()) std::abort();
      }
      {
        const trace::Scope scope("service.decode", id);
        auto request = cf::service::ParseFusionRequest(pool.bodies[i]);
        if (!request.ok()) std::abort();
      }
      {
        const trace::Scope scope("service.encode", id);
        bytes += cf::service::FusionResponseToJson(pool.reference[i])
                     .Dump()
                     .size();
      }
      {
        const trace::Scope scope("common.json_dump", id);
        bytes += replies[i].Dump().size();
      }
      auto crowd = cf::core::CrowdModel::Create(requests[i].assumed_pc);
      if (!crowd.ok()) std::abort();
      std::vector<cf::core::JointDistribution> joints;
      for (const auto& instance : requests[i].instances) {
        joints.push_back(instance.joint);
      }
      for (const auto& step : pool.reference[i].steps) {
        if (step.instance < 0 || step.tasks.empty()) continue;
        const cf::core::AnswerSet answers{step.tasks, step.answers};
        auto& joint = joints[static_cast<size_t>(step.instance)];
        cf::common::Result<cf::core::JointDistribution> posterior =
            cf::common::Status::Internal("unset");
        {
          const trace::Scope scope("core.merge", id);
          posterior = cf::core::PosteriorGivenAnswers(joint, answers, *crowd);
        }
        if (!posterior.ok()) Die("merge replay", posterior.status());
        joint = std::move(posterior).value();
        ++merges;
      }
      ++replayed;
    }
  } while (SecondsSince(start) < budget_seconds);
  trace::SetOn(false);
  if (bytes == 0) std::abort();
  return static_cast<double>(merges) / static_cast<double>(replayed);
}

LayerFigures ReadLayers(const std::vector<trace::Span>& spans,
                        double merges_per_req) {
  const auto self = trace::SelfTimesUs(spans);
  const trace::LayerCounters& counters = trace::Counters();
  const double sessions =
      std::max<double>(1.0, static_cast<double>(counters.sessions.load()));
  LayerFigures figures;
  figures.parse_us = MedianSelfUs(self, "net.parse");
  figures.decode_us = MedianSelfUs(self, "service.decode");
  figures.encode_us = MedianSelfUs(self, "service.encode");
  figures.json_parse_us = MedianSelfUs(self, "common.json_parse");
  figures.json_dump_us = MedianSelfUs(self, "common.json_dump");
  figures.merge_us = MedianSelfUs(self, "core.merge");
  figures.merges_per_req = merges_per_req;
  figures.select_us = MedianSelfUs(self, "core.select");
  figures.select_calls_per_req =
      static_cast<double>(counters.selects.load()) / sessions;
  const double attempts = static_cast<double>(counters.evaluations.load() +
                                              counters.pruned.load());
  figures.pruned_frac =
      attempts > 0 ? static_cast<double>(counters.pruned.load()) / attempts
                   : 0.0;
  figures.preprocess_frac =
      counters.select_ns.load() > 0
          ? static_cast<double>(counters.preprocessing_ns.load()) /
                static_cast<double>(counters.select_ns.load())
          : 0.0;
  figures.await_ms = Median(trace::TicketWaitsUs()) * 1e-3;
  figures.tickets_per_req =
      static_cast<double>(counters.tickets.load()) / sessions;
  figures.tickets_resubmitted =
      static_cast<double>(counters.tickets_resubmitted.load());
  return figures;
}

/// Time the stages of one fusion request account for, ms: the codec,
/// the selections, the crowd waits and the merges.
double StageSumMs(const LayerFigures& f) {
  return (f.decode_us + f.encode_us + f.select_us * f.select_calls_per_req +
          f.merge_us * f.merges_per_req) *
             1e-3 +
         f.await_ms * f.tickets_per_req;
}

void WriteSpans(const RunArgs& args, const std::vector<trace::Span>& spans) {
  if (args.spans_out.empty()) return;
  if (!trace::WriteJsonLines(spans, args.spans_out)) {
    std::fprintf(stderr, "perfbench: could not write %s\n",
                 args.spans_out.c_str());
  }
}

std::vector<Metric> LayerMetrics(const LayerFigures& f) {
  return {
      {"net.parse_us", f.parse_us, "us"},
      {"net.transport_p50_ms", f.transport_ms, "ms"},
      {"service.handler_p50_ms", f.handler_ms, "ms"},
      {"net.connections_accepted", f.connections_accepted, "count"},
      {"net.requests_shed", f.requests_shed, "count"},
      {"service.decode_us", f.decode_us, "us"},
      {"service.encode_us", f.encode_us, "us"},
      {"common.json_parse_us", f.json_parse_us, "us"},
      {"common.json_dump_us", f.json_dump_us, "us"},
      {"core.select_us", f.select_us, "us"},
      {"core.select_calls_per_req", f.select_calls_per_req, "count"},
      {"core.select_pruned_frac", f.pruned_frac, "frac"},
      {"core.preprocess_frac", f.preprocess_frac, "frac"},
      {"core.merge_us", f.merge_us, "us"},
      {"service.pipe_peak_in_flight", f.pipe_peak_in_flight, "count"},
      {"net.router_hop_p50_ms", f.router_hop_ms, "ms"},
      {"net.router_proxy_failures", f.proxy_failures, "count"},
      {"crowd.await_p50_ms", f.await_ms, "ms"},
      {"crowd.tickets_per_req", f.tickets_per_req, "count"},
      {"crowd.tickets_resubmitted", f.tickets_resubmitted, "count"},
      {"loadgen.send_lag_p99_ms", f.send_lag_p99_ms, "ms"},
      {"loadgen.p99_ms", f.p99_ms, "ms"},
      {"trace.overhead_frac", f.overhead_frac, "frac"},
      {"trace.unaccounted_frac", f.unaccounted_frac, "frac"},
  };
}

std::vector<Metric> EndToEndMetrics(double p50, double unloaded,
                                    double max_rate, double books_per_s,
                                    double utility, int64_t attempted,
                                    int64_t failed, double setup_s) {
  const double success =
      attempted > 0 ? static_cast<double>(attempted - failed) /
                          static_cast<double>(attempted)
                    : 0.0;
  return {
      {"p50_ms", p50, "ms"},
      {"unloaded_p50_ms", unloaded, "ms"},
      {"max_rate_rps", max_rate, "1/s"},
      {"books_per_s", books_per_s, "1/s"},
      {"utility_bits", utility, "bits"},
      {"success_rate", success, "frac"},
      {"setup_s", setup_s, "s"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
  };
}

/// Keeps every vCPU out of halt while a run measures. Waking a halted vCPU
/// goes through the hypervisor, and on the shared host the benchmark was
/// defined on that wake cost milliseconds per thread hand-off: CPU steal
/// read 5-23 % during the online workloads (whose threads block and wake
/// per request) but under 1 % during the CPU-bound one. The spinners run
/// under SCHED_IDLE, so any runnable thread preempts them at once; they
/// only fill time a vCPU would otherwise spend halted.
class StayAwake {
 public:
  StayAwake() {
    for (int i = 0; i < Nproc(); ++i) {
      spinners_.emplace_back([this] {
        sched_param param{};
        pthread_setschedparam(pthread_self(), SCHED_IDLE, &param);
        while (!stop_.load(std::memory_order_relaxed)) {
#if defined(__x86_64__) || defined(__i386__)
          // Leaves the core's execution resources to a sibling hyperthread
          // that runs the program.
          __builtin_ia32_pause();
#endif
        }
      });
    }
  }
  ~StayAwake() {
    stop_.store(true);
    for (std::thread& spinner : spinners_) spinner.join();
  }
  StayAwake(const StayAwake&) = delete;
  StayAwake& operator=(const StayAwake&) = delete;

 private:
  std::atomic<bool> stop_{false};
  std::vector<std::thread> spinners_;
};

// ---------------------------------------------------------------------------
// Online workloads: open-loop HTTP traffic into a frontend, or into a router
// over two frontends whose crowd is two loopback crowd servers.
// ---------------------------------------------------------------------------

enum class OnlineKind { kSmall, kRemoteCrowd };

class OnlineSystem {
 public:
  OnlineSystem(OnlineKind kind, const OnlineParams& params,
               const RunArgs& args) {
    const int threads = Nproc();
    std::vector<std::string> endpoints;
    if (kind == OnlineKind::kRemoteCrowd) {
      for (int c = 0; c < 2; ++c) {
        crowds_.push_back(std::make_unique<cf::net::LoopbackCrowdServer>());
        if (auto status = crowds_.back()->Start(); !status.ok()) {
          Die("crowd server start", status);
        }
        endpoints.push_back(crowds_.back()->endpoint());
      }
    }
    SeedRng rng(args.seed * 0x9E3779B97F4A7C15ULL +
                (kind == OnlineKind::kSmall ? 11 : 13));
    std::vector<cf::service::FusionRequest> requests;
    for (int i = 0; i < params.pool; ++i) {
      requests.push_back(kind == OnlineKind::kSmall
                             ? MakeSmallRequest(rng, i)
                             : MakeRemoteCrowdRequest(rng, i, endpoints));
    }
    pool_ = BuildPool(requests, threads);

    const int num_frontends = kind == OnlineKind::kSmall ? 1 : 2;
    for (int b = 0; b < num_frontends; ++b) {
      cf::service::HttpFrontend::Options options;
      options.port = 0;
      options.threads = threads;
      frontends_.push_back(
          std::make_unique<cf::service::HttpFrontend>(options));
      if (args.trace) {
        trace::InstallDecorators(frontends_.back()->fusion_service());
      }
      if (auto status = frontends_.back()->Start(); !status.ok()) {
        Die("frontend start", status);
      }
    }
    port_ = frontends_.front()->port();
    if (kind == OnlineKind::kRemoteCrowd) {
      cf::net::Router::Options options;
      options.port = 0;
      options.threads = threads;
      for (const auto& frontend : frontends_) {
        options.backends.push_back("127.0.0.1:" +
                                   std::to_string(frontend->port()));
      }
      router_ = std::make_unique<cf::net::Router>(options);
      if (auto status = router_->Start(); !status.ok()) {
        Die("router start", status);
      }
      port_ = router_->port();
    }

    for (const std::string& body : pool_.bodies) {
      plan_.requests.push_back(
          HttpRequestBytes("POST", "/v1/fusion:run", body));
    }
    if (kind == OnlineKind::kSmall) {
      // Seven in eight ops are fusion:run, one in eight is /healthz, at a
      // seeded position in each block of eight.
      healthz_ = static_cast<int>(plan_.requests.size());
      plan_.requests.push_back(HttpRequestBytes("GET", "/healthz", ""));
      const std::vector<int> order = SeededOrder(rng, params.pool, 7);
      size_t next = 0;
      while (next < order.size()) {
        const uint64_t slot = rng.Below(8);
        for (uint64_t s = 0; s < 8; ++s) {
          if (s == slot) {
            plan_.ops.push_back(healthz_);
          } else if (next < order.size()) {
            plan_.ops.push_back(order[next++]);
          }
        }
      }
    } else {
      plan_.ops = SeededOrder(rng, params.pool, 4);
    }
    // The first fusion op's request, so even a one-second run serves it.
    if (args.tamper) {
      TamperReference(&pool_, *std::find_if(
          plan_.ops.begin(), plan_.ops.end(),
          [this](int request) { return IsFusion(request); }));
    }

    // Ready means the servers answer a first request.
    Connection connection;
    HttpReply reply;
    if (!connection.Connect(port_) ||
        !connection.RoundTrip(plan_.requests.front(), &reply) ||
        reply.status != 200) {
      Die("first request", cf::common::Status::Internal(
                               "status " + std::to_string(reply.status)));
    }
  }

  ~OnlineSystem() {
    if (router_ != nullptr) router_->Stop();
    for (auto& frontend : frontends_) frontend->Stop();
    for (auto& crowd : crowds_) crowd->Stop();
  }

  OnlineSystem(const OnlineSystem&) = delete;
  OnlineSystem& operator=(const OnlineSystem&) = delete;

  int port() const { return port_; }
  const LoadPlan& plan() const { return plan_; }
  const RequestPool& pool() const { return pool_; }
  bool routed() const { return router_ != nullptr; }
  bool IsFusion(int request) const { return request != healthz_; }

  bool Check(int request, const HttpReply& reply) const {
    if (reply.status != 200) return false;
    if (request == healthz_) {
      return reply.body.find("\"ok\"") != std::string::npos;
    }
    return ReplyMatches(pool_, request, reply.body);
  }

  /// Frontend p50 handler latency; the mean over backends when routed.
  double HandlerP50Ms() const {
    double sum = 0.0;
    for (const auto& frontend : frontends_) {
      sum += frontend->GetMetrics().p50_handler_ms;
    }
    return sum / static_cast<double>(frontends_.size());
  }
  double ConnectionsAccepted() const {
    int64_t sum = 0;
    for (const auto& f : frontends_) {
      sum += f->GetMetrics().connections_accepted;
    }
    return static_cast<double>(sum);
  }
  double RequestsShed() const {
    int64_t sum = 0;
    for (const auto& f : frontends_) sum += f->GetMetrics().requests_shed;
    return static_cast<double>(sum);
  }
  double ProxyFailures() const {
    return router_ == nullptr
               ? 0.0
               : static_cast<double>(router_->GetMetrics().proxy_failures);
  }

 private:
  std::vector<std::unique_ptr<cf::net::LoopbackCrowdServer>> crowds_;
  std::vector<std::unique_ptr<cf::service::HttpFrontend>> frontends_;
  std::unique_ptr<cf::net::Router> router_;
  int port_ = 0;
  RequestPool pool_;
  LoadPlan plan_;
  int healthz_ = -1;
};

/// Runs the phases of one online run against one system, advancing the
/// op offset and the attempted/failed totals.
class OnlineDriver {
 public:
  explicit OnlineDriver(const OnlineSystem& system) : system_(system) {}

  PhaseResult Run(double rate, double seconds, int connections = Nproc()) {
    PhaseResult result = RunOpenLoop(
        system_.port(), system_.plan(), offset_, rate, seconds, connections,
        [this](int request, const HttpReply& reply) {
          return system_.Check(request, reply);
        });
    offset_ += result.attempted;
    attempted_ += result.attempted;
    failed_ += result.failed;
    return result;
  }

  /// The first `ops` ops of the seeded sequence, the same ops on the same
  /// schedule every call: open loop at `rate`, or one connection with one
  /// op in flight when `rate` is 0. Latencies come back in the same order
  /// every call.
  PhaseResult Replay(double rate, int64_t ops) {
    const bool open = rate > 0.0;
    PhaseResult result = RunOpenLoop(
        system_.port(), system_.plan(), 0, rate,
        open ? (static_cast<double>(ops) + 0.5) / rate : 1e9,
        open ? Nproc() : 1,
        [this](int request, const HttpReply& reply) {
          return system_.Check(request, reply);
        },
        ops);
    attempted_ += result.attempted;
    failed_ += result.failed;
    return result;
  }

  /// Mean books per op of the seeded op sequence.
  double BooksPerOp() const {
    int64_t books = 0;
    for (const int request : system_.plan().ops) {
      if (system_.IsFusion(request)) {
        books += system_.pool().books[static_cast<size_t>(request)];
      }
    }
    return static_cast<double>(books) /
           static_cast<double>(system_.plan().ops.size());
  }

  /// p50 over the fusion requests of a phase only.
  double FusionP50(const PhaseResult& r) const {
    std::vector<double> fusion;
    for (size_t i = 0; i < r.latency_ms.size(); ++i) {
      if (system_.IsFusion(r.request_of[i])) fusion.push_back(r.latency_ms[i]);
    }
    return Median(std::move(fusion));
  }

  int64_t attempted() const { return attempted_; }
  int64_t failed() const { return failed_; }

 private:
  const OnlineSystem& system_;
  int64_t offset_ = 0;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
};

RunResult RunOnline(const RunArgs& args, OnlineKind kind,
                    const OnlineParams& params) {
  const double s = args.seconds;
  std::unique_ptr<OnlineSystem> system;
  std::vector<double> setup_seconds;
  for (int r = 0; r < (args.trace ? 1 : kSetupRepeats); ++r) {
    system.reset();
    const int64_t start = trace::NowNs();
    system = std::make_unique<OnlineSystem>(kind, params, args);
    setup_seconds.push_back(SecondsSince(start));
  }
  OnlineDriver driver(*system);
  driver.Run(params.nominal_rps, std::max(0.2, 0.04 * s));  // warm-up

  RunResult result;
  if (!args.trace) {
    // The nominal phase replays the same ops on the same schedule every
    // round, about 40 % of a round long.
    const auto nominal_ops = std::max<int64_t>(
        16, static_cast<int64_t>(0.4 * 0.96 * s / kRounds *
                                 params.nominal_rps));
    std::vector<double> unloaded_p50;
    std::vector<double> unloaded_fastest;
    std::vector<double> p50;
    std::vector<double> nominal_fastest;
    std::vector<double> capacity;
    const int64_t phase_start = trace::NowNs();
    for (int round = 0; round < kRounds; ++round) {
      // Unloaded: one connection, one request in flight at a time. (A timed
      // trickle would mostly measure how long idle vCPUs take to wake.)
      const PhaseResult unloaded = driver.Replay(0.0, params.unloaded_ops);
      unloaded_p50.push_back(Median(unloaded.latency_ms));
      KeepFastest(unloaded.latency_ms, &unloaded_fastest);
      const PhaseResult nominal =
          driver.Replay(params.nominal_rps, nominal_ops);
      p50.push_back(Median(nominal.latency_ms));
      KeepFastest(nominal.latency_ms, &nominal_fastest);
      // Capacity for the rest of the round's share of the run: every
      // connection sends its next request as soon as the previous reply is
      // in.
      const double left =
          0.96 * s * (round + 1) / kRounds - SecondsSince(phase_start);
      const PhaseResult burst = driver.Run(0.0, std::max(left, 0.01));
      capacity.push_back(static_cast<double>(burst.attempted) /
                         burst.wall_seconds);
    }
    PrintRounds("unloaded_p50_ms", unloaded_p50);
    PrintRounds("p50_ms", p50);
    PrintRounds("max_rate_rps", capacity);
    const double max_rate = BestRate(capacity);
    result.metrics = EndToEndMetrics(
        Median(nominal_fastest), Median(unloaded_fastest), max_rate,
        max_rate * driver.BooksPerOp(),
        MeanUtility(system->pool()), driver.attempted(), driver.failed(),
        Median(setup_seconds));
  } else {
    // Tracing overhead: capacity bursts alternating untraced and traced.
    double rate_off = 0.0;
    double rate_on = 0.0;
    for (int burst = 0; burst < 4; ++burst) {
      trace::SetOn(burst % 2 == 1);
      const PhaseResult r = driver.Run(0.0, 0.06 * s);
      (burst % 2 == 1 ? rate_on : rate_off) +=
          static_cast<double>(r.attempted) / r.wall_seconds;
    }
    trace::SetOn(false);
    trace::Clear();

    trace::SetOn(true);
    const PhaseResult nominal = driver.Run(params.nominal_rps, 0.4 * s);
    trace::SetOn(false);
    const double handler_ms = system->HandlerP50Ms();
    const double client_ms = Median(nominal.latency_ms);

    std::vector<std::string> wire(system->plan().requests.begin(),
                                  system->plan().requests.end());
    const double merges = ProbeLayers(system->pool(), wire, 0.05 * s);
    const std::vector<trace::Span> spans = trace::Collect();
    LayerFigures f = ReadLayers(spans, merges);
    f.handler_ms = handler_ms;
    (system->routed() ? f.router_hop_ms : f.transport_ms) =
        client_ms - handler_ms;
    f.connections_accepted = system->ConnectionsAccepted();
    f.requests_shed = system->RequestsShed();
    f.proxy_failures = system->ProxyFailures();
    f.send_lag_p99_ms = Percentile(nominal.send_lag_ms, 0.99);
    f.p99_ms = Percentile(nominal.latency_ms, 0.99);
    f.overhead_frac = 1.0 - rate_on / rate_off;
    f.unaccounted_frac = 1.0 - (f.transport_ms + f.router_hop_ms +
                                StageSumMs(f)) /
                                   driver.FusionP50(nominal);
    result.metrics = LayerMetrics(f);
    WriteSpans(args, spans);
  }
  result.attempted = driver.attempted();
  result.failed = driver.failed();
  return result;
}

// ---------------------------------------------------------------------------
// bulk_select: RunBulkPipe over a seeded NDJSON stream, in process.
// ---------------------------------------------------------------------------

/// Serves the pool's lines in a seeded order, one line per underflow,
/// until the first multiple of `stop_every` lines after the deadline (a
/// whole pass over the pool, so every request weighs the same in a run);
/// records which request each line was and when the pipe read it. The
/// pipe reads and writes on its caller's thread, so the source and the
/// sink below share these records without locks.
class LineSource : public std::streambuf {
 public:
  LineSource(std::vector<std::string>* lines, const std::vector<int>* order,
             int64_t offset, int64_t deadline_ns, int64_t stop_every)
      : lines_(lines), order_(order), offset_(offset),
        deadline_ns_(deadline_ns), stop_every_(stop_every) {}

  std::vector<std::pair<int, int64_t>> reads;

 protected:
  int_type underflow() override {
    if (gptr() != nullptr && gptr() < egptr()) {
      return traits_type::to_int_type(*gptr());
    }
    const int64_t now = trace::NowNs();
    const auto served = static_cast<int64_t>(reads.size());
    if (now >= deadline_ns_ && served > 0 && served % stop_every_ == 0) {
      return traits_type::eof();
    }
    const int request = (*order_)[static_cast<size_t>(
        (offset_ + static_cast<int64_t>(reads.size())) %
        static_cast<int64_t>(order_->size()))];
    std::string& line = (*lines_)[static_cast<size_t>(request)];
    setg(line.data(), line.data(), line.data() + line.size());
    reads.emplace_back(request, now);
    return traits_type::to_int_type(*gptr());
  }

 private:
  std::vector<std::string>* lines_;
  const std::vector<int>* order_;
  int64_t offset_;
  int64_t deadline_ns_;
  int64_t stop_every_;
};

/// Checks every output line against its request's reference as it is
/// written, and times it from when the pipe read the request.
class LineSink : public std::streambuf {
 public:
  LineSink(const RequestPool& pool, const LineSource& source)
      : pool_(pool), source_(source) {}

  int64_t lines = 0;
  int64_t failed = 0;
  int64_t books = 0;
  std::vector<double> latency_ms;
  /// When each line was written, ns.
  std::vector<int64_t> written_ns;

 protected:
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    std::string_view rest(s, static_cast<size_t>(n));
    while (!rest.empty()) {
      const size_t newline = rest.find('\n');
      current_.append(rest.substr(0, newline));
      if (newline == std::string_view::npos) break;
      CompleteLine();
      rest.remove_prefix(newline + 1);
    }
    return n;
  }
  int_type overflow(int_type c) override {
    if (!traits_type::eq_int_type(c, traits_type::eof())) {
      const char ch = traits_type::to_char_type(c);
      xsputn(&ch, 1);
    }
    return traits_type::not_eof(c);
  }

 private:
  void CompleteLine() {
    const int64_t now = trace::NowNs();
    written_ns.push_back(now);
    const size_t index = static_cast<size_t>(lines++);
    if (index >= source_.reads.size()) {
      ++failed;
      latency_ms.push_back(0.0);
    } else {
      const auto [request, read_ns] = source_.reads[index];
      latency_ms.push_back(static_cast<double>(now - read_ns) * 1e-6);
      if (ReplyMatches(pool_, request, current_)) {
        books += pool_.books[static_cast<size_t>(request)];
      } else {
        ++failed;
      }
    }
    current_.clear();
  }

  const RequestPool& pool_;
  const LineSource& source_;
  std::string current_;
};

struct PipeResult {
  int64_t lines = 0;
  int64_t failed = 0;
  int64_t books = 0;
  /// Per output line: read-to-written latency, when it was written
  /// (seconds from the run start), and the time since the previous line.
  std::vector<double> latency_ms;
  std::vector<double> written_s;
  std::vector<double> interval_ms;
  double wall_seconds = 0.0;
  int peak_in_flight = 0;
};

/// Mean time per request with one request in the pipe: the interval
/// between consecutive output lines of a window-1, one-worker run. A mean,
/// because per-request cost is bimodal (about 4 and 6.5 ms) and the median
/// of a short run flips between the modes with its request mix.
double MeanInterval(const PipeResult& r) {
  double sum = 0.0;
  for (size_t i = 1; i < r.interval_ms.size(); ++i) sum += r.interval_ms[i];
  const size_t n = r.interval_ms.size() > 1 ? r.interval_ms.size() - 1 : 1;
  return sum / static_cast<double>(n);
}

class BulkSystem {
 public:
  explicit BulkSystem(const RunArgs& args) {
    SeedRng rng(args.seed * 0x9E3779B97F4A7C15ULL + 17);
    std::vector<cf::service::FusionRequest> requests;
    for (int i = 0; i < kBulkPool; ++i) {
      requests.push_back(MakeSelectRequest(rng, i, kBulkSupport));
    }
    pool_ = BuildPool(requests, Nproc());
    for (const std::string& body : pool_.bodies) lines_.push_back(body + "\n");
    order_ = SeededOrder(rng, kBulkPool, 8);
    if (args.tamper) TamperReference(&pool_, order_.front());
    if (args.trace) trace::InstallDecorators(service_);
  }

  /// Runs the pipe over whole passes of the pool for about `seconds`,
  /// continuing the seeded order where the previous run stopped.
  PipeResult Run(double seconds, int threads, int window) {
    PipeResult result = RunFrom(offset_, seconds, threads, window,
                                static_cast<int64_t>(lines_.size()));
    offset_ += result.lines;
    return result;
  }

  /// One worker, window 1, over the first kBulkUnloadedLines of the
  /// seeded order: the same requests every time.
  PipeResult RunUnloaded() {
    return RunFrom(0, 0.0, 1, 1, kBulkUnloadedLines);
  }

  /// nproc workers, the full window, over the first kBulkLoadedLines of
  /// the seeded order: the same requests every time.
  PipeResult RunLoaded(int threads) {
    return RunFrom(0, 0.0, threads, kBulkWindow, kBulkLoadedLines);
  }

  const RequestPool& pool() const { return pool_; }
  int64_t attempted() const { return attempted_; }
  int64_t failed() const { return failed_; }

 private:
  PipeResult RunFrom(int64_t offset, double seconds, int threads, int window,
                     int64_t stop_every) {
    const int64_t start = trace::NowNs();
    LineSource source(&lines_, &order_, offset,
                      start + static_cast<int64_t>(seconds * 1e9),
                      stop_every);
    LineSink sink(pool_, source);
    std::istream in(&source);
    std::ostream out(&sink);
    cf::service::BulkPipeOptions options;
    options.threads = threads;
    options.max_in_flight = window;
    auto stats = cf::service::RunBulkPipe(service_, in, out, options);
    if (!stats.ok()) Die("bulk pipe", stats.status());
    PipeResult result;
    result.wall_seconds = SecondsSince(start);
    result.lines = static_cast<int64_t>(source.reads.size());
    result.failed = sink.failed + (result.lines - sink.lines);
    result.books = sink.books;
    result.latency_ms = std::move(sink.latency_ms);
    for (size_t i = 0; i < sink.written_ns.size(); ++i) {
      result.written_s.push_back(
          static_cast<double>(sink.written_ns[i] - start) * 1e-9);
      result.interval_ms.push_back(
          i == 0 ? 0.0
                 : static_cast<double>(sink.written_ns[i] -
                                       sink.written_ns[i - 1]) *
                       1e-6);
    }
    result.peak_in_flight = stats->peak_in_flight;
    attempted_ += result.lines;
    failed_ += result.failed;
    return result;
  }

  RequestPool pool_;
  std::vector<std::string> lines_;
  std::vector<int> order_;
  cf::service::FusionService service_;
  int64_t offset_ = 0;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
};

RunResult RunBulk(const RunArgs& args) {
  const double s = args.seconds;
  std::unique_ptr<BulkSystem> system;
  std::vector<double> setup_seconds;
  for (int r = 0; r < (args.trace ? 1 : kSetupRepeats); ++r) {
    system.reset();
    const int64_t start = trace::NowNs();
    system = std::make_unique<BulkSystem>(args);
    setup_seconds.push_back(SecondsSince(start));
  }
  const int threads = Nproc();
  system->Run(std::max(0.2, 0.04 * s), threads, kBulkWindow);  // warm-up

  RunResult result;
  if (!args.trace) {
    // Rounds of fixed work repeat until the run's time is up (about 40 in
    // 35 s on the host the benchmark was defined on).
    std::vector<double> unloaded_ms;
    std::vector<double> unloaded_fastest;
    std::vector<double> p50;
    std::vector<double> loaded_fastest;
    std::vector<double> rate;
    int64_t books = 0;
    int64_t lines = 0;
    const int64_t phase_start = trace::NowNs();
    do {
      const PipeResult unloaded = system->RunUnloaded();
      unloaded_ms.push_back(MeanInterval(unloaded));
      KeepFastest(unloaded.interval_ms, &unloaded_fastest);
      const PipeResult full = system->RunLoaded(threads);
      p50.push_back(Median(full.latency_ms));
      KeepFastest(full.latency_ms, &loaded_fastest);
      rate.push_back(static_cast<double>(full.lines) / full.wall_seconds);
      books += full.books;
      lines += full.lines;
    } while (SecondsSince(phase_start) < 0.96 * s);
    PrintRounds("unloaded_p50_ms", unloaded_ms);
    PrintRounds("p50_ms", p50);
    PrintRounds("max_rate_rps", rate);
    const double max_rate = BestRate(rate);
    // Per-request cost is bimodal (about 4 and 6.5 ms), so the unloaded
    // figure is the mean of the per-request fastest times, not a median.
    // The first interval is 0 (no line before it).
    double fastest_sum = 0.0;
    for (size_t i = 1; i < unloaded_fastest.size(); ++i) {
      fastest_sum += unloaded_fastest[i];
    }
    result.metrics = EndToEndMetrics(
        Median(loaded_fastest),
        fastest_sum /
            static_cast<double>(
                std::max<size_t>(2, unloaded_fastest.size()) - 1),
        max_rate,
        max_rate * static_cast<double>(books) /
            static_cast<double>(std::max<int64_t>(1, lines)),
        MeanUtility(system->pool()),
        system->attempted(), system->failed(), Median(setup_seconds));
  } else {
    double rate_off = 0.0;
    double rate_on = 0.0;
    for (int burst = 0; burst < 4; ++burst) {
      trace::SetOn(burst % 2 == 1);
      const PipeResult r = system->Run(0.06 * s, threads, kBulkWindow);
      (burst % 2 == 1 ? rate_on : rate_off) +=
          static_cast<double>(r.books) / r.wall_seconds;
    }
    trace::SetOn(false);
    trace::Clear();

    trace::SetOn(true);
    PipeResult full;
    {
      const trace::Scope scope("service.bulk_pipe", 0);
      full = system->Run(0.3 * s, threads, kBulkWindow);
    }
    trace::SetOn(false);
    const LayerFigures loaded = ReadLayers(trace::Collect(), 0.0);
    // Per-request time with one request in the pipe, for the stage sum.
    trace::SetOn(true);
    const PipeResult single = system->RunUnloaded();
    trace::SetOn(false);

    std::vector<std::string> wire;
    for (const std::string& body : system->pool().bodies) {
      wire.push_back(HttpRequestBytes("POST", "/v1/fusion:run", body));
    }
    const double merges = ProbeLayers(system->pool(), wire, 0.05 * s);
    const std::vector<trace::Span> spans = trace::Collect();
    LayerFigures f = ReadLayers(spans, merges);
    // Selection and crowd figures come from the loaded pipe run.
    f.select_calls_per_req = loaded.select_calls_per_req;
    f.tickets_per_req = loaded.tickets_per_req;
    f.pipe_peak_in_flight = full.peak_in_flight;
    f.p99_ms = Percentile(full.latency_ms, 0.99);
    f.overhead_frac = 1.0 - rate_on / rate_off;
    f.unaccounted_frac = 1.0 - StageSumMs(f) / MeanInterval(single);
    result.metrics = LayerMetrics(f);
    WriteSpans(args, spans);
  }
  result.attempted = system->attempted();
  result.failed = system->failed();
  return result;
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {
      "online_small", "bulk_select", "routed_remote_crowd"};
  return names;
}

RunResult RunWorkload(const RunArgs& args) {
  const StayAwake awake;
  if (args.workload == "online_small") {
    return RunOnline(args, OnlineKind::kSmall, kOnlineSmall);
  }
  if (args.workload == "routed_remote_crowd") {
    return RunOnline(args, OnlineKind::kRemoteCrowd, kRoutedRemoteCrowd);
  }
  return RunBulk(args);
}

}  // namespace perfbench
