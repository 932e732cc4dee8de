#include "src/net/socket.h"

#include <arpa/inet.h>
#include <cerrno>
#include <cstring>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

namespace aft {
namespace net {

namespace {

std::string Errno(const std::string& what) { return what + ": " + std::strerror(errno); }

Status SetSocketTimeout(int fd, int option, Duration d) {
  timeval tv{};
  if (d > Duration::zero()) {
    const auto usec = std::chrono::duration_cast<std::chrono::microseconds>(d).count();
    tv.tv_sec = static_cast<time_t>(usec / 1'000'000);
    tv.tv_usec = static_cast<suseconds_t>(usec % 1'000'000);
    // A zero timeval means "no timeout" to the kernel; round sub-microsecond
    // deadlines up so they still behave as deadlines.
    if (tv.tv_sec == 0 && tv.tv_usec == 0) {
      tv.tv_usec = 1;
    }
  }
  if (setsockopt(fd, SOL_SOCKET, option, &tv, sizeof(tv)) != 0) {
    return Status::Internal(Errno("setsockopt(SO_*TIMEO)"));
  }
  return Status::Ok();
}

sockaddr_in LoopbackAddr(const NetEndpoint& endpoint) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(endpoint.port);
  if (inet_pton(AF_INET, endpoint.host.c_str(), &addr.sin_addr) != 1) {
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
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

Status Socket::SendAll(const char* data, size_t len) {
  if (!valid()) {
    return Status::Unavailable("send on closed socket");
  }
  size_t sent = 0;
  while (sent < len) {
    const ssize_t n = ::send(fd_, data + sent, len - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        return Status::Timeout("send deadline exceeded");
      }
      if (errno == EPIPE || errno == ECONNRESET || errno == ENOTCONN) {
        return Status::Unavailable(Errno("peer closed connection"));
      }
      return Status::Internal(Errno("send"));
    }
    sent += static_cast<size_t>(n);
  }
  return Status::Ok();
}

Status Socket::RecvAll(char* data, size_t len) {
  if (!valid()) {
    return Status::Unavailable("recv on closed socket");
  }
  size_t received = 0;
  while (received < len) {
    const ssize_t n = ::recv(fd_, data + received, len - received, 0);
    if (n == 0) {
      return Status::Unavailable("connection closed by peer");
    }
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        return Status::Timeout("recv deadline exceeded");
      }
      if (errno == ECONNRESET || errno == ENOTCONN) {
        return Status::Unavailable(Errno("peer reset connection"));
      }
      return Status::Internal(Errno("recv"));
    }
    received += static_cast<size_t>(n);
  }
  return Status::Ok();
}

Result<size_t> Socket::RecvSome(char* data, size_t len) {
  if (!valid()) {
    return Status::Unavailable("recv on closed socket");
  }
  while (true) {
    const ssize_t n = ::recv(fd_, data, len, 0);
    if (n > 0) {
      return static_cast<size_t>(n);
    }
    if (n == 0) {
      return Status::Unavailable("connection closed by peer");
    }
    if (errno == EINTR) {
      continue;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      return Status::Timeout("recv deadline exceeded");
    }
    if (errno == ECONNRESET || errno == ENOTCONN) {
      return Status::Unavailable(Errno("peer reset connection"));
    }
    return Status::Internal(Errno("recv"));
  }
}

Result<size_t> Socket::SendSomeV(const struct iovec* iov, size_t iovcnt) {
  if (!valid()) {
    return Status::Unavailable("send on closed socket");
  }
  if (iovcnt > IOV_MAX) {
    iovcnt = IOV_MAX;
  }
  msghdr msg{};
  msg.msg_iov = const_cast<struct iovec*>(iov);
  msg.msg_iovlen = iovcnt;
  while (true) {
    const ssize_t n = ::sendmsg(fd_, &msg, MSG_NOSIGNAL);
    if (n >= 0) {
      return static_cast<size_t>(n);
    }
    if (errno == EINTR) {
      continue;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      return Status::Timeout("send would block");
    }
    if (errno == EPIPE || errno == ECONNRESET || errno == ENOTCONN) {
      return Status::Unavailable(Errno("peer closed connection"));
    }
    return Status::Internal(Errno("sendmsg"));
  }
}

Status Socket::SendAllV(const struct iovec* iov, size_t iovcnt) {
  size_t index = 0;   // first iovec not fully sent
  size_t offset = 0;  // bytes of iov[index] already sent
  while (index < iovcnt) {
    // Window of unsent iovecs, the first adjusted for the partial send.
    struct iovec window[64];
    size_t wcount = 0;
    for (size_t i = index; i < iovcnt && wcount < 64; ++i, ++wcount) {
      window[wcount] = iov[i];
      if (i == index) {
        window[wcount].iov_base = static_cast<char*>(window[wcount].iov_base) + offset;
        window[wcount].iov_len -= offset;
      }
    }
    auto sent = SendSomeV(window, wcount);
    if (!sent.ok()) {
      if (sent.status().code() == StatusCode::kTimeout) {
        // Blocking-socket deadline (SO_SNDTIMEO): same mapping as SendAll.
        return Status::Timeout("send deadline exceeded");
      }
      return sent.status();
    }
    size_t n = *sent;
    while (n > 0 && index < iovcnt) {
      const size_t left = iov[index].iov_len - offset;
      if (n < left) {
        offset += n;
        n = 0;
      } else {
        n -= left;
        ++index;
        offset = 0;
      }
    }
    // Step over exhausted (including zero-length) iovecs so the next window
    // always starts with real bytes — a window of empties would spin forever.
    while (index < iovcnt && offset == iov[index].iov_len) {
      ++index;
      offset = 0;
    }
  }
  return Status::Ok();
}

Status Socket::SetRecvTimeout(Duration d) { return SetSocketTimeout(fd_, SO_RCVTIMEO, d); }

Status Socket::SetSendTimeout(Duration d) { return SetSocketTimeout(fd_, SO_SNDTIMEO, d); }

Status Socket::SetNoDelay() {
  const int one = 1;
  if (setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one)) != 0) {
    return Status::Internal(Errno("setsockopt(TCP_NODELAY)"));
  }
  return Status::Ok();
}

void Socket::Shutdown() {
  if (valid()) {
    ::shutdown(fd_, SHUT_RDWR);
  }
}

void Socket::Close() {
  if (valid()) {
    ::close(fd_);
    fd_ = -1;
  }
}

Result<Socket> TcpConnect(const NetEndpoint& endpoint, Duration timeout) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::Internal(Errno("socket"));
  }
  Socket sock(fd);
  // Non-blocking connect so the deadline is enforceable; loopback normally
  // completes immediately or fails with ECONNREFUSED.
  const int flags = fcntl(fd, F_GETFL, 0);
  (void)fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  sockaddr_in addr = LoopbackAddr(endpoint);
  int rc = ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  if (rc != 0 && errno != EINPROGRESS) {
    return Status::Unavailable(Errno("connect to " + endpoint.ToString()));
  }
  if (rc != 0) {
    pollfd pfd{fd, POLLOUT, 0};
    const int timeout_ms = timeout > Duration::zero()
        ? static_cast<int>(std::chrono::duration_cast<std::chrono::milliseconds>(timeout).count())
        : -1;
    const int ready = ::poll(&pfd, 1, timeout_ms == 0 ? 1 : timeout_ms);
    if (ready == 0) {
      return Status::Timeout("connect to " + endpoint.ToString() + " timed out");
    }
    if (ready < 0) {
      return Status::Internal(Errno("poll(connect)"));
    }
    int err = 0;
    socklen_t err_len = sizeof(err);
    if (getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &err_len) != 0 || err != 0) {
      errno = err;
      return Status::Unavailable(Errno("connect to " + endpoint.ToString()));
    }
  }
  (void)fcntl(fd, F_SETFL, flags);  // Back to blocking for SendAll/RecvAll.
  (void)sock.SetNoDelay();
  return sock;
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

Result<Listener> Listener::Bind(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::Internal(Errno("socket"));
  }
  Listener listener;
  listener.fd_ = fd;
  const int one = 1;
  (void)setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    return Status::Unavailable(Errno("bind 127.0.0.1:" + std::to_string(port)));
  }
  if (::listen(fd, SOMAXCONN) != 0) {
    return Status::Internal(Errno("listen"));
  }
  socklen_t addr_len = sizeof(addr);
  if (getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &addr_len) != 0) {
    return Status::Internal(Errno("getsockname"));
  }
  listener.port_ = ntohs(addr.sin_port);
  return listener;
}

Result<Socket> Listener::Accept() {
  if (!valid()) {
    return Status::Unavailable("listener closed");
  }
  const int fd = ::accept(fd_, nullptr, nullptr);
  if (fd < 0) {
    // EINVAL is what Linux returns once shutdown() disabled the listener —
    // the clean-exit signal, not an error worth logging.
    if (errno == EINTR) {
      return Accept();
    }
    return Status::Unavailable(Errno("accept"));
  }
  Socket sock(fd);
  (void)sock.SetNoDelay();
  return sock;
}

void Listener::Shutdown() {
  if (valid()) {
    ::shutdown(fd_, SHUT_RDWR);
  }
}

void Listener::Close() {
  if (valid()) {
    ::close(fd_);
    fd_ = -1;
  }
}

}  // namespace net
}  // namespace aft
