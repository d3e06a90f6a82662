#include "proc/framing.h"

#include <cerrno>
#include <climits>
#include <cmath>
#include <cstring>

#include <poll.h>
#include <unistd.h>
#include <sys/socket.h>

#include "comm/transport.h"
#include "util/error.h"

namespace scd::proc {

namespace {

/// poll()'s timeout for a wait of `timeout_s` seconds: whole milliseconds
/// rounded up, at most INT_MAX (about 24.8 days, which is also what +inf
/// waits). Zero and negative waits do not block.
int poll_timeout_ms(double timeout_s) {
  SCD_REQUIRE(!std::isnan(timeout_s), "read timeout must not be NaN");
  if (timeout_s <= 0.0) return 0;
  const double ms = timeout_s * 1e3;
  return ms >= static_cast<double>(INT_MAX - 1) ? INT_MAX
                                                : static_cast<int>(ms) + 1;
}

}  // namespace

bool write_full(int fd, const void* data, std::size_t len) {
  const char* p = static_cast<const char*>(data);
  while (len > 0) {
    // Sockets take send(MSG_NOSIGNAL); pipes (the status channels) need
    // plain write — SIGPIPE is ignored for the duration of the run.
    ssize_t n = ::send(fd, p, len, MSG_NOSIGNAL);
    if (n < 0 && errno == ENOTSOCK) n = ::write(fd, p, len);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EPIPE || errno == ECONNRESET) return false;
      throw comm::TransportError(std::string("socket send failed: ") +
                                 std::strerror(errno));
    }
    p += n;
    len -= static_cast<std::size_t>(n);
  }
  return true;
}

IoStatus read_full(int fd, void* data, std::size_t len, double timeout_s) {
  char* p = static_cast<char*>(data);
  std::size_t got = 0;
  const int timeout_ms = poll_timeout_ms(timeout_s);
  while (got < len) {
    struct pollfd pfd{fd, POLLIN, 0};
    const int pr = ::poll(&pfd, 1, timeout_ms);
    if (pr < 0) {
      if (errno == EINTR) continue;
      throw comm::TransportError(std::string("poll failed: ") +
                                 std::strerror(errno));
    }
    if (pr == 0) {
      if (got > 0) {
        throw comm::TransportError("socket read timed out mid-frame");
      }
      return IoStatus::kTimeout;
    }
    ssize_t n = ::recv(fd, p + got, len - got, 0);
    if (n < 0 && errno == ENOTSOCK) n = ::read(fd, p + got, len - got);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == ECONNRESET) {
        n = 0;  // a reset peer reads as EOF on a clean frame boundary
      } else {
        throw comm::TransportError(std::string("socket recv failed: ") +
                                   std::strerror(errno));
      }
    }
    if (n == 0) {
      if (got > 0) {
        throw comm::TransportError("peer closed mid-frame");
      }
      return IoStatus::kEof;
    }
    got += static_cast<std::size_t>(n);
  }
  return IoStatus::kOk;
}

void read_full_or_throw(int fd, void* data, std::size_t len, double timeout_s,
                        const std::string& what) {
  switch (read_full(fd, data, len, timeout_s)) {
    case IoStatus::kOk:
      return;
    case IoStatus::kEof:
      throw comm::TransportError(what + ": peer closed the connection");
    case IoStatus::kTimeout:
      throw comm::TransportError(what + ": timed out");
  }
}

}  // namespace scd::proc
