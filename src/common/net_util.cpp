#include "common/net_util.hpp"

#include <arpa/inet.h>
#include <cerrno>
#include <cstdint>
#include <cstring>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

namespace dftmsn {
namespace net {
namespace {

[[noreturn]] void throw_errno(const std::string& what) {
  throw NetError(what + ": " + std::strerror(errno));
}

void set_cloexec(int fd) { ::fcntl(fd, F_SETFD, FD_CLOEXEC); }

in_addr_t parse_addr(const std::string& host, const std::string& what) {
  if (host == "localhost") return htonl(INADDR_LOOPBACK);
  in_addr a{};
  if (::inet_pton(AF_INET, host.c_str(), &a) != 1)
    throw NetError(what + ": not a numeric IPv4 address: " + host);
  return a.s_addr;
}

}  // namespace

int listen_tcp(const std::string& bind_addr, int port, int backlog) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw_errno("listen_tcp: socket");
  set_cloexec(fd);
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  try {
    addr.sin_addr.s_addr = parse_addr(bind_addr, "listen_tcp");
  } catch (...) {
    ::close(fd);
    throw;
  }
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const int e = errno;
    ::close(fd);
    errno = e;
    throw_errno("listen_tcp: bind " + bind_addr + ":" + std::to_string(port));
  }
  if (::listen(fd, backlog) != 0) {
    const int e = errno;
    ::close(fd);
    errno = e;
    throw_errno("listen_tcp: listen");
  }
  return fd;
}

int bound_port(int fd) {
  sockaddr_in addr{};
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0)
    throw_errno("bound_port: getsockname");
  return static_cast<int>(ntohs(addr.sin_port));
}

int connect_tcp(const std::string& host, int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw_errno("connect_tcp: socket");
  set_cloexec(fd);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  try {
    addr.sin_addr.s_addr = parse_addr(host, "connect_tcp");
  } catch (...) {
    ::close(fd);
    throw;
  }
  for (;;) {
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0)
      return fd;
    if (errno == EINTR) continue;
    const int e = errno;
    ::close(fd);
    errno = e;
    throw_errno("connect_tcp: connect " + host + ":" + std::to_string(port));
  }
}

int accept_retry(int listen_fd) {
  for (;;) {
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd >= 0) {
      set_cloexec(fd);
      return fd;
    }
    switch (errno) {
      case EINTR:
        continue;
      case EAGAIN:
#if EAGAIN != EWOULDBLOCK
      case EWOULDBLOCK:
#endif
      case ECONNABORTED:
      case EMFILE:
      case ENFILE:
      case ENOBUFS:
      case ENOMEM:
        return -1;  // transient: caller polls again
      default:
        throw_errno("accept");
    }
  }
}

int poll_retry(pollfd* fds, nfds_t nfds, int timeout_ms) {
  for (;;) {
    const int n = ::poll(fds, nfds, timeout_ms);
    if (n >= 0) return n;
    if (errno != EINTR) throw_errno("poll");
  }
}

ssize_t recv_some(int fd, void* buf, std::size_t len) {
  for (;;) {
    const ssize_t n = ::recv(fd, buf, len, 0);
    if (n >= 0 || errno != EINTR) return n;
  }
}

ssize_t send_some(int fd, const void* data, std::size_t len) {
  for (;;) {
    const ssize_t n = ::send(fd, data, len, MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n >= 0 || errno != EINTR) return n;
  }
}

void write_full(int fd, const void* data, std::size_t len) {
  const std::uint8_t* p = static_cast<const std::uint8_t*>(data);
  std::size_t sent = 0;
  while (sent < len) {
    const ssize_t n = ::send(fd, p + sent, len - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        pollfd pw{fd, POLLOUT, 0};
        poll_retry(&pw, 1, 1000);
        continue;
      }
      throw_errno("write_full: send");
    }
    sent += static_cast<std::size_t>(n);
  }
}

}  // namespace net
}  // namespace dftmsn
