#ifndef PERFBENCH_CLIENT_H_
#define PERFBENCH_CLIENT_H_

// The benchmark's own load generator: a minimal blocking HTTP/1.1
// keep-alive client over loopback and an open-loop driver on top of it.
// It is deliberately independent of the program's net layer, so a change
// to the program's client or parser code cannot change how load is made.

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

struct HttpReply {
  int status = 0;
  std::string body;
};

/// One keep-alive connection to 127.0.0.1:port.
class Connection {
 public:
  Connection() = default;
  ~Connection();
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  bool Connect(int port);
  /// Writes `request` (complete wire bytes) and reads one response with a
  /// Content-Length body. False on any transport or framing error; the
  /// connection is then closed and must be reconnected.
  bool RoundTrip(std::string_view request, HttpReply* reply);
  void Close();

 private:
  int fd_ = -1;
  std::string buffer_;
};

/// Wire bytes of one request.
std::string HttpRequestBytes(std::string_view method, std::string_view target,
                             std::string_view body);

/// What the open-loop driver sends: op i of a phase is ops[(offset + i) %
/// ops.size()], an index into `requests`.
struct LoadPlan {
  std::vector<std::string> requests;
  std::vector<int> ops;
};

/// Checks one reply for the request it answered; returns true when the
/// reply is correct. Called concurrently from the client threads.
using ReplyCheck = std::function<bool(int request, const HttpReply& reply)>;

/// One phase of traffic. The per-op vectors are parallel: entry j of each
/// describes the same completed op.
struct PhaseResult {
  int64_t attempted = 0;
  int64_t failed = 0;
  /// Latency from the scheduled send, or from the actual send when the
  /// connection was idle at the scheduled time (so client wake-up
  /// overshoot is not charged), ms.
  std::vector<double> latency_ms;
  /// Request index of the op.
  std::vector<int> request_of;
  /// Actual send minus scheduled send, ms: how late the generator ran.
  std::vector<double> send_lag_ms;
  double wall_seconds = 0.0;
};

/// Open loop: op i is due at start + i / rate and goes out on connection
/// i % connections as soon as that connection is free. Runs every op due
/// before `seconds` and waits for all replies. rate <= 0 sends back to
/// back (closed loop, for capacity bursts) until `seconds` have passed.
/// Either way at most `max_ops` ops are sent.
PhaseResult RunOpenLoop(int port, const LoadPlan& plan, int64_t offset,
                        double rate, double seconds, int connections,
                        const ReplyCheck& check,
                        int64_t max_ops = INT64_MAX);

}  // namespace perfbench

#endif  // PERFBENCH_CLIENT_H_
