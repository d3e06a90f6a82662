// The frame I/O under ProcTransport and ProcCluster's status pipes, on
// socketpairs and a pipe in one process: clean and mid-frame EOF,
// timeouts with and without a partial frame, writes to a closed peer,
// the plain read/write path a pipe takes, and the conversion of any
// timeout, huge or infinite included, to poll()'s milliseconds.
#include "proc/framing.h"

#include <gtest/gtest.h>

#include <cerrno>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>

#include <sys/socket.h>
#include <unistd.h>

#include "comm/transport.h"
#include "util/error.h"

namespace scd::proc {
namespace {

/// Both ends of a Unix stream socketpair, closed on destruction unless
/// a test closed them first.
struct SocketPair {
  int fd[2] = {-1, -1};
  SocketPair() {
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fd) != 0) {
      ADD_FAILURE() << "socketpair: " << std::strerror(errno);
    }
  }
  ~SocketPair() {
    close(0);
    close(1);
  }
  void close(int end) {
    if (fd[end] >= 0) ::close(fd[end]);
    fd[end] = -1;
  }
};

/// The message of the comm::TransportError `read_full` throws, or "" when
/// it returns instead.
std::string read_error(int fd, std::size_t len, double timeout_s) {
  char buf[64];
  try {
    read_full(fd, buf, len, timeout_s);
  } catch (const comm::TransportError& e) {
    return e.what();
  }
  return "";
}

const FrameHeader kHeader{kFrameMagic, 7, 1234};

TEST(FramingTest, CleanEofReturnsEof) {
  SocketPair pair;
  pair.close(1);
  FrameHeader header;
  EXPECT_EQ(read_full(pair.fd[0], &header, sizeof header, 1.0),
            IoStatus::kEof);
}

TEST(FramingTest, EofAfterPartialHeaderThrows) {
  SocketPair pair;
  ASSERT_TRUE(write_full(pair.fd[1], &kHeader, 5));
  pair.close(1);
  const std::string what = read_error(pair.fd[0], sizeof(FrameHeader), 1.0);
  EXPECT_NE(what.find("peer closed mid-frame"), std::string::npos) << what;
}

TEST(FramingTest, PartialFrameThenSilenceThrowsTimeout) {
  SocketPair pair;
  ASSERT_TRUE(write_full(pair.fd[1], &kHeader, 5));
  const std::string what =
      read_error(pair.fd[0], sizeof(FrameHeader), 0.02);
  EXPECT_NE(what.find("timed out mid-frame"), std::string::npos) << what;
}

TEST(FramingTest, SilenceReturnsTimeout) {
  SocketPair pair;
  FrameHeader header;
  EXPECT_EQ(read_full(pair.fd[0], &header, sizeof header, 0.02),
            IoStatus::kTimeout);
  EXPECT_EQ(read_full(pair.fd[0], &header, sizeof header, 0.0),
            IoStatus::kTimeout);
}

// MSG_NOSIGNAL: a write to a closed peer reports false instead of raising
// SIGPIPE, whose default action would end this test process.
TEST(FramingTest, WriteToClosedPeerReturnsFalse) {
  SocketPair pair;
  pair.close(0);
  EXPECT_FALSE(write_full(pair.fd[1], &kHeader, sizeof kHeader));
}

// A pipe is not a socket: send and recv fail with ENOTSOCK and the frame
// goes through plain write and read, in both directions of the status
// channel's use.
TEST(FramingTest, PipeTakesThePlainReadWritePath) {
  int fd[2];
  ASSERT_EQ(::pipe(fd), 0);
  ASSERT_TRUE(write_full(fd[1], &kHeader, sizeof kHeader));
  FrameHeader header;
  ASSERT_EQ(read_full(fd[0], &header, sizeof header, 1.0), IoStatus::kOk);
  EXPECT_EQ(header.magic, kHeader.magic);
  EXPECT_EQ(header.tag, kHeader.tag);
  EXPECT_EQ(header.payload_bytes, kHeader.payload_bytes);
  ::close(fd[1]);
  EXPECT_EQ(read_full(fd[0], &header, sizeof header, 1.0), IoStatus::kEof);
  ::close(fd[0]);
}

// Timeouts past INT_MAX milliseconds, +inf among them, are capped rather
// than overflowing the int poll() takes; with the frame already waiting
// the read returns at once. NaN is no timeout at all and is refused.
TEST(FramingTest, HugeAndInfiniteTimeoutsReadWaitingData) {
  SocketPair pair;
  for (const double timeout_s :
       {2.2e6, 1e300, std::numeric_limits<double>::infinity(),
        std::numeric_limits<double>::max()}) {
    SCOPED_TRACE(timeout_s);
    ASSERT_TRUE(write_full(pair.fd[1], &kHeader, sizeof kHeader));
    FrameHeader header;
    ASSERT_EQ(read_full(pair.fd[0], &header, sizeof header, timeout_s),
              IoStatus::kOk);
    EXPECT_EQ(header.payload_bytes, kHeader.payload_bytes);
  }
  ASSERT_TRUE(write_full(pair.fd[1], &kHeader, sizeof kHeader));
  FrameHeader header;
  EXPECT_THROW(read_full(pair.fd[0], &header, sizeof header,
                         std::numeric_limits<double>::quiet_NaN()),
               UsageError);
}

}  // namespace
}  // namespace scd::proc
