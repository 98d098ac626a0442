// EINTR/partial-I/O-hardened socket helpers shared by every TCP
// listener in the tree (the status server and the sweep dispatcher).
// All sockets are opened close-on-exec so spawned workers do not
// inherit listener fds. Errors surface as NetError (std::runtime_error)
// naming the failing call and errno text; transient conditions (EINTR,
// EAGAIN on accept) are retried or reported as "no progress" instead.
#pragma once

#include <poll.h>

#include <cstddef>
#include <stdexcept>
#include <string>

#include <sys/types.h>

namespace dftmsn {
namespace net {

class NetError : public std::runtime_error {
 public:
  explicit NetError(const std::string& what) : std::runtime_error(what) {}
};

/// Opens a TCP listener bound to `bind_addr:port` (numeric IPv4 or
/// "localhost"; port 0 picks an ephemeral port). Returns the listening
/// fd. Throws NetError on failure.
int listen_tcp(const std::string& bind_addr, int port, int backlog);

/// The locally bound port of a socket fd (after listen_tcp with port 0).
int bound_port(int fd);

/// Connects to `host:port` (numeric IPv4 or "localhost"). Returns the
/// connected fd. Throws NetError on failure.
int connect_tcp(const std::string& host, int port);

/// accept(2) with EINTR retry and CLOEXEC on the returned fd. Returns
/// -1 when no connection could be accepted this round (EAGAIN,
/// ECONNABORTED, transient resource exhaustion); throws only on
/// unrecoverable listener errors.
int accept_retry(int listen_fd);

/// poll(2) with EINTR retry. Returns poll's count (>= 0).
int poll_retry(pollfd* fds, nfds_t nfds, int timeout_ms);

/// One recv(2) with EINTR retry. Returns bytes read, 0 on orderly EOF,
/// or -1 with errno set (including EAGAIN/EWOULDBLOCK).
ssize_t recv_some(int fd, void* buf, std::size_t len);

/// One non-blocking send(2) (MSG_NOSIGNAL | MSG_DONTWAIT) with EINTR
/// retry. Returns bytes sent, or -1 with errno set (EAGAIN/EWOULDBLOCK
/// when the socket buffer is full).
ssize_t send_some(int fd, const void* data, std::size_t len);

/// Writes all `len` bytes (MSG_NOSIGNAL, EINTR/short-write retry).
/// Throws NetError if the peer is gone or the socket errors.
void write_full(int fd, const void* data, std::size_t len);

}  // namespace net
}  // namespace dftmsn
