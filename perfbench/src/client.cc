#include "client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cctype>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>
#include <limits>
#include <thread>

#include "trace.h"

namespace perfbench {
namespace {

using SteadyClock = std::chrono::steady_clock;

constexpr int kReplyTimeoutSeconds = 20;

bool WriteAll(int fd, std::string_view bytes) {
  while (!bytes.empty()) {
    const ssize_t n = ::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    bytes.remove_prefix(static_cast<size_t>(n));
  }
  return true;
}

bool ReadMore(int fd, std::string* buffer) {
  char chunk[16384];
  for (;;) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    buffer->append(chunk, static_cast<size_t>(n));
    return true;
  }
}

/// Content-Length of a header block, or -1 when absent or malformed.
int64_t ContentLength(std::string_view head) {
  static constexpr std::string_view kName = "\r\ncontent-length:";
  for (size_t at = 0; at + kName.size() <= head.size(); ++at) {
    bool match = true;
    for (size_t i = 0; i < kName.size() && match; ++i) {
      match = std::tolower(static_cast<unsigned char>(head[at + i])) ==
              kName[i];
    }
    if (!match) continue;
    size_t pos = at + kName.size();
    while (pos < head.size() && head[pos] == ' ') ++pos;
    int64_t value = 0;
    size_t digits = 0;
    while (pos < head.size() && std::isdigit(static_cast<unsigned char>(
                                    head[pos])) && digits < 12) {
      value = value * 10 + (head[pos] - '0');
      ++pos;
      ++digits;
    }
    return digits == 0 ? -1 : value;
  }
  return -1;
}

double SecondsSince(SteadyClock::time_point start) {
  return std::chrono::duration<double>(SteadyClock::now() - start).count();
}

}  // namespace

Connection::~Connection() { Close(); }

void Connection::Close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
  buffer_.clear();
}

bool Connection::Connect(int port) {
  Close();
  fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) return false;
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  timeval timeout{};
  timeout.tv_sec = kReplyTimeoutSeconds;
  ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  ::setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof(timeout));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    Close();
    return false;
  }
  return true;
}

bool Connection::RoundTrip(std::string_view request, HttpReply* reply) {
  if (fd_ < 0 || !WriteAll(fd_, request)) {
    Close();
    return false;
  }
  size_t head_end = std::string::npos;
  while ((head_end = buffer_.find("\r\n\r\n")) == std::string::npos) {
    if (!ReadMore(fd_, &buffer_)) {
      Close();
      return false;
    }
  }
  const std::string_view head(buffer_.data(), head_end + 2);
  // "HTTP/1.1 200 OK"
  const size_t space = head.find(' ');
  const int64_t length = ContentLength(head);
  if (space == std::string_view::npos || space + 4 > head.size() ||
      length < 0) {
    Close();
    return false;
  }
  reply->status = std::atoi(std::string(head.substr(space + 1, 3)).c_str());
  const size_t body_start = head_end + 4;
  const size_t frame_end = body_start + static_cast<size_t>(length);
  while (buffer_.size() < frame_end) {
    if (!ReadMore(fd_, &buffer_)) {
      Close();
      return false;
    }
  }
  reply->body.assign(buffer_, body_start, static_cast<size_t>(length));
  buffer_.erase(0, frame_end);
  return true;
}

std::string HttpRequestBytes(std::string_view method, std::string_view target,
                             std::string_view body) {
  std::string bytes;
  bytes.reserve(body.size() + 128);
  bytes.append(method).append(" ").append(target).append(" HTTP/1.1\r\n");
  bytes.append("Host: 127.0.0.1\r\n");
  if (!body.empty()) {
    bytes.append("Content-Type: application/json\r\n");
  }
  bytes.append("Content-Length: ").append(std::to_string(body.size()));
  bytes.append("\r\n\r\n").append(body);
  return bytes;
}

PhaseResult RunOpenLoop(int port, const LoadPlan& plan, int64_t offset,
                        double rate, double seconds, int connections,
                        const ReplyCheck& check, int64_t max_ops) {
  const bool open = rate > 0.0;
  const int64_t total =
      open ? std::min(static_cast<int64_t>(std::floor(seconds * rate)),
                      max_ops)
           : max_ops;
  const int64_t num_ops = static_cast<int64_t>(plan.ops.size());
  std::vector<PhaseResult> locals(static_cast<size_t>(connections));
  // Connections open before the clock starts, so connect cost stays out.
  std::vector<Connection> conns(static_cast<size_t>(connections));
  std::vector<char> connected(static_cast<size_t>(connections));
  for (int c = 0; c < connections; ++c) {
    connected[static_cast<size_t>(c)] = conns[static_cast<size_t>(c)]
                                            .Connect(port);
  }
  const SteadyClock::time_point start =
      SteadyClock::now() + std::chrono::milliseconds(1);

  std::vector<std::thread> threads;
  for (int c = 0; c < connections; ++c) {
    threads.emplace_back([&, c] {
      PhaseResult& local = locals[static_cast<size_t>(c)];
      Connection& conn = conns[static_cast<size_t>(c)];
      bool is_connected = connected[static_cast<size_t>(c)] != 0;
      double prev_done = -std::numeric_limits<double>::infinity();
      HttpReply reply;
      for (int64_t i = c; i < total; i += connections) {
        double due = 0.0;
        if (open) {
          due = static_cast<double>(i) / rate;
          const auto due_at =
              start + std::chrono::duration_cast<SteadyClock::duration>(
                          std::chrono::duration<double>(due));
          if (SteadyClock::now() < due_at) {
            std::this_thread::sleep_until(due_at);
          }
        } else {
          std::this_thread::sleep_until(start);
          due = SecondsSince(start);
          if (due >= seconds) break;
        }
        const double sent = SecondsSince(start);
        const int request =
            plan.ops[static_cast<size_t>((offset + i) % num_ops)];
        if (!is_connected) is_connected = conn.Connect(port);
        bool ok = false;
        {
          const trace::Scope scope("client.request", offset + i);
          ok = is_connected &&
               conn.RoundTrip(plan.requests[static_cast<size_t>(request)],
                              &reply);
        }
        const double done = SecondsSince(start);
        if (!ok) {
          is_connected = false;
        } else {
          ok = check(request, reply);
        }
        ++local.attempted;
        if (!ok) ++local.failed;
        const double from = (open && prev_done > due) ? due : sent;
        local.latency_ms.push_back((done - from) * 1e3);
        local.request_of.push_back(request);
        local.send_lag_ms.push_back((sent - due) * 1e3);
        prev_done = done;
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  PhaseResult merged;
  merged.wall_seconds = SecondsSince(start);
  for (PhaseResult& local : locals) {
    merged.attempted += local.attempted;
    merged.failed += local.failed;
    for (auto [to, from] :
         {std::pair{&merged.latency_ms, &local.latency_ms},
          std::pair{&merged.send_lag_ms, &local.send_lag_ms}}) {
      to->insert(to->end(), from->begin(), from->end());
    }
    merged.request_of.insert(merged.request_of.end(),
                             local.request_of.begin(), local.request_of.end());
  }
  return merged;
}

}  // namespace perfbench
