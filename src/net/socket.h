#ifndef CROWDFUSION_NET_SOCKET_H_
#define CROWDFUSION_NET_SOCKET_H_

#include <cstddef>
#include <string>
#include <string_view>

#include "common/status.h"

namespace crowdfusion::net {

/// RAII wrapper over one connected TCP socket (POSIX fd). All blocking
/// I/O goes through poll(2) with an explicit timeout, so a stalled peer
/// can never hang a serving thread indefinitely; writes use MSG_NOSIGNAL
/// so a peer that closed mid-response surfaces as a Status, not SIGPIPE.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket() { Close(); }

  Socket(Socket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Socket& operator=(Socket&& other) noexcept;
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }

  /// Reads up to `len` bytes. Returns 0 on orderly peer close (EOF),
  /// DeadlineExceeded when nothing arrived within `timeout_seconds`, and
  /// Unavailable on connection errors.
  common::Result<size_t> Read(char* buf, size_t len, double timeout_seconds);

  /// Writes all of `data`, waiting up to `timeout_seconds` for the socket
  /// to drain between chunks.
  common::Status WriteAll(std::string_view data, double timeout_seconds);

  /// Half-closes the write side only (sends FIN; reads stay open) — the
  /// client half of the reactor's half-close tests.
  void ShutdownWrite();

  /// Non-blocking liveness probe (MSG_PEEK): true when the peer already
  /// closed or errored the connection. Used before reusing a keep-alive
  /// connection for a non-idempotent request, where a blind post-send
  /// retry would not be safe.
  bool LooksClosed() const;

  void Close();

 private:
  int fd_ = -1;
};

/// Blocking TCP connect with a timeout. `host` is a numeric address
/// ("127.0.0.1"); name resolution is deliberately out of scope.
common::Result<Socket> ConnectTcp(const std::string& host, int port,
                                  double timeout_seconds);

/// A listening TCP socket. Bind with port 0 to let the kernel pick an
/// ephemeral port (the test-suite contract: parallel ctest never collides),
/// then read the actual port back via port().
class Listener {
 public:
  Listener() = default;
  Listener(Listener&& other) noexcept;
  Listener& operator=(Listener&& other) noexcept;
  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;
  ~Listener() { Close(); }

  /// Binds and listens on host:port with SO_REUSEADDR.
  static common::Result<Listener> Bind(const std::string& host, int port,
                                       int backlog = 64);

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }
  /// The bound port (resolves port 0 to the kernel's pick).
  int port() const { return port_; }

  void Close();

 private:
  int fd_ = -1;
  int port_ = 0;
};

}  // namespace crowdfusion::net

#endif  // CROWDFUSION_NET_SOCKET_H_
