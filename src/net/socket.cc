#include "net/socket.h"

#include <arpa/inet.h>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>

#include "common/string_util.h"

namespace crowdfusion::net {

using common::Status;

namespace {

Status ErrnoStatus(const char* what) {
  return Status::Unavailable(
      common::StrFormat("%s: %s", what, std::strerror(errno)));
}

/// poll(2) for one event with a seconds timeout. Returns true when the
/// event fired, false on timeout; EINTR retries with the remaining budget
/// folded into the next full wait (close enough for socket deadlines).
common::Result<bool> PollOne(int fd, short events, double timeout_seconds) {
  struct pollfd pfd;
  pfd.fd = fd;
  pfd.events = events;
  pfd.revents = 0;
  const int timeout_ms =
      timeout_seconds < 0
          ? -1
          : static_cast<int>(std::min(std::ceil(timeout_seconds * 1e3),
                                      static_cast<double>(1 << 30)));
  for (;;) {
    const int rc = ::poll(&pfd, 1, timeout_ms);
    if (rc > 0) return true;
    if (rc == 0) return false;
    if (errno == EINTR) continue;
    return ErrnoStatus("poll");
  }
}

common::Result<struct sockaddr_in> MakeAddress(const std::string& host,
                                               int port) {
  if (port < 0 || port > 65535) {
    return Status::InvalidArgument(
        common::StrFormat("port %d out of range", port));
  }
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("bad IPv4 address \"" + host + "\"");
  }
  return addr;
}

}  // namespace

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

common::Result<size_t> Socket::Read(char* buf, size_t len,
                                    double timeout_seconds) {
  if (!valid()) return Status::Unavailable("read on closed socket");
  CF_ASSIGN_OR_RETURN(const bool readable,
                      PollOne(fd_, POLLIN, timeout_seconds));
  if (!readable) {
    return Status::DeadlineExceeded("socket read timed out");
  }
  for (;;) {
    const ssize_t n = ::recv(fd_, buf, len, 0);
    if (n >= 0) return static_cast<size_t>(n);
    if (errno == EINTR) continue;
    return ErrnoStatus("recv");
  }
}

Status Socket::WriteAll(std::string_view data, double timeout_seconds) {
  if (!valid()) return Status::Unavailable("write on closed socket");
  size_t offset = 0;
  while (offset < data.size()) {
    CF_ASSIGN_OR_RETURN(const bool writable,
                        PollOne(fd_, POLLOUT, timeout_seconds));
    if (!writable) {
      return Status::DeadlineExceeded("socket write timed out");
    }
    const ssize_t n = ::send(fd_, data.data() + offset, data.size() - offset,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return ErrnoStatus("send");
    }
    offset += static_cast<size_t>(n);
  }
  return Status::Ok();
}

void Socket::ShutdownWrite() {
  if (valid()) ::shutdown(fd_, SHUT_WR);
}

bool Socket::LooksClosed() const {
  if (!valid()) return true;
  char byte = 0;
  const ssize_t n = ::recv(fd_, &byte, 1, MSG_PEEK | MSG_DONTWAIT);
  if (n == 0) return true;  // orderly shutdown already received
  if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) {
    return true;  // reset or other hard error
  }
  return false;
}

void Socket::Close() {
  if (valid()) {
    ::close(fd_);
    fd_ = -1;
  }
}

common::Result<Socket> ConnectTcp(const std::string& host, int port,
                                  double timeout_seconds) {
  CF_ASSIGN_OR_RETURN(const struct sockaddr_in addr, MakeAddress(host, port));
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return ErrnoStatus("socket");
  Socket socket(fd);

  // Non-blocking connect so the timeout applies to the handshake too.
  const int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  const int rc = ::connect(fd, reinterpret_cast<const struct sockaddr*>(&addr),
                           sizeof(addr));
  if (rc != 0 && errno != EINPROGRESS) return ErrnoStatus("connect");
  if (rc != 0) {
    CF_ASSIGN_OR_RETURN(const bool ready,
                        PollOne(fd, POLLOUT, timeout_seconds));
    if (!ready) return Status::DeadlineExceeded("connect timed out");
    int error = 0;
    socklen_t len = sizeof(error);
    if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &error, &len) != 0 ||
        error != 0) {
      errno = error != 0 ? error : errno;
      return ErrnoStatus("connect");
    }
  }
  ::fcntl(fd, F_SETFL, flags);  // back to blocking; I/O polls explicitly

  // Request/response traffic: flush small writes immediately.
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return socket;
}

Listener::Listener(Listener&& other) noexcept
    : fd_(other.fd_), port_(other.port_) {
  other.fd_ = -1;
}

Listener& Listener::operator=(Listener&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    port_ = other.port_;
    other.fd_ = -1;
  }
  return *this;
}

common::Result<Listener> Listener::Bind(const std::string& host, int port,
                                        int backlog) {
  CF_ASSIGN_OR_RETURN(struct sockaddr_in addr, MakeAddress(host, port));
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return ErrnoStatus("socket");
  Listener listener;
  listener.fd_ = fd;

  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (::bind(fd, reinterpret_cast<const struct sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    return ErrnoStatus("bind");
  }
  if (::listen(fd, backlog) != 0) return ErrnoStatus("listen");

  // Resolve port 0 to the kernel's ephemeral pick.
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<struct sockaddr*>(&addr), &len) !=
      0) {
    return ErrnoStatus("getsockname");
  }
  listener.port_ = static_cast<int>(ntohs(addr.sin_port));
  return listener;
}

void Listener::Close() {
  if (valid()) {
    ::close(fd_);
    fd_ = -1;
  }
}

}  // namespace crowdfusion::net
