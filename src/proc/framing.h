// Length-prefixed framing over Unix-domain stream sockets — the
// low-level I/O of ProcTransport and of ProcCluster's status pipes.
//
// Every message is one frame: a fixed 16-byte header followed by the
// payload. Stream sockets guarantee ordering per fd, so per-(from, to)
// FIFO falls out of the kernel; tag matching is layered above by the
// transport. Reads poll with a wall-clock deadline — a peer that stops
// talking surfaces as a typed timeout instead of a hung run — and EOF
// (peer closed or died) is reported distinctly so callers can implement
// the dead-rank drain semantics of the Transport contract.
#pragma once

#include <cstddef>
#include <cstdint>

#include <string>

namespace scd::proc {

inline constexpr std::uint32_t kFrameMagic = 0x53434446;  // "SCDF"

struct FrameHeader {
  std::uint32_t magic = kFrameMagic;
  std::int32_t tag = 0;
  std::uint64_t payload_bytes = 0;
};
static_assert(sizeof(FrameHeader) == 16);

enum class IoStatus {
  kOk,
  kEof,      // orderly close or peer process death
  kTimeout,  // deadline elapsed mid-read
};

/// Write exactly `len` bytes (MSG_NOSIGNAL). Returns false when the peer
/// end is gone (EPIPE/ECONNRESET) — the caller decides whether that is a
/// drop (transport sends to dead ranks vanish) or an error. Throws
/// comm::TransportError on any other failure.
bool write_full(int fd, const void* data, std::size_t len);

/// Read exactly `len` bytes, polling up to `timeout_s` wall seconds for
/// each chunk (rounded up to whole milliseconds and capped at INT_MAX of
/// them, so a huge or infinite timeout waits about 24.8 days; a NaN
/// timeout throws scd::UsageError). kEof is only returned on a clean
/// boundary (no partial frame); a connection that dies mid-frame throws.
IoStatus read_full(int fd, void* data, std::size_t len, double timeout_s);

/// Throwing read for reads where EOF and timeouts are always fatal (a
/// frame payload, a status message). `what` names the channel in the
/// error message.
void read_full_or_throw(int fd, void* data, std::size_t len, double timeout_s,
                        const std::string& what);

}  // namespace scd::proc
