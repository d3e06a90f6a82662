// Backend-neutral transport seam.
//
// The distributed sampler's master and worker loops are written against
// this interface: MPI-style tagged point-to-point messages and the
// failure-aware receive its gathers and stage barriers detect deaths
// with. The sampler joins no collective; barrier, reduce-sum and
// broadcast stay for callers that need static-membership
// synchronization (the transport tests and benches). Two
// implementations exist:
//
//  * sim::SimTransport — threads in one address space, virtual-time cost
//    accounting per the NetworkModel (src/sim/transport.h);
//  * proc::ProcTransport — forked processes over Unix-domain sockets,
//    wall-clock time (src/proc/proc_transport.h).
//
// Contract shared by all backends (the sampler depends on it):
//  * messages with equal (from, to, tag) are never dropped or reordered;
//  * reduce_sum combines contributions in rank order, so the result is
//    bitwise independent of arrival order;
//  * collectives on one channel are called by all its participants in
//    the same program order; participants == 0 means every rank, and a
//    non-zero count P names the *last* P ranks (the worker channel);
//  * after mark_rank_dead(r), messages r sent before dying remain
//    deliverable; once drained, blocking receives from r throw
//    TransportError and recv_bytes_or_dead returns std::nullopt;
//  * a send to a dead rank is not an error; nobody receives it.
#pragma once

#include <cstdint>
#include <cstring>
#include <optional>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "util/error.h"

namespace scd::comm {

/// Typed failure of a transport operation — e.g. a blocking receive
/// whose peer fail-stopped (sim fault injection) or whose process died
/// (proc backend). Distinct from the generic abort Error so recovery
/// code can catch exactly communication faults.
class TransportError : public Error {
 public:
  explicit TransportError(const std::string& what) : Error(what) {}
};

class Transport {
 public:
  virtual ~Transport() = default;

  virtual unsigned num_ranks() const = 0;

  // -- Point-to-point primitives (backend-specific) -----------------------

  /// Post `payload` from `from` to `to` under `tag`. `logical_bytes` is
  /// the modeled wire size — it differs from payload.size() only for
  /// cost-only (phantom) traffic on the simulated backend.
  virtual void send_raw(unsigned from, unsigned to, int tag,
                        std::vector<std::byte> payload,
                        std::uint64_t logical_bytes) = 0;

  /// Blocks until the matching send arrives, returns its payload.
  virtual std::vector<std::byte> recv_raw(unsigned self, unsigned from,
                                          int tag) = 0;

  /// Failure-aware receive: like recv_raw, but when `from` has been
  /// detected dead and no matching message remains it returns
  /// std::nullopt instead of blocking forever — the sampler's
  /// failure detector.
  virtual std::optional<std::vector<std::byte>> recv_bytes_or_dead(
      unsigned self, unsigned from, int tag) = 0;

  // -- Buffer pool --------------------------------------------------------

  /// Take an empty buffer from the pool (capacity from earlier traffic).
  virtual std::vector<std::byte> acquire_buffer() = 0;
  /// Return a consumed payload's storage to the pool.
  virtual void recycle_buffer(std::vector<std::byte>&& buffer) = 0;

  /// Pre-warm hints; backends that do not pool (or pool differently) may
  /// ignore them.
  virtual void reserve_buffers(std::size_t /*count*/,
                               std::size_t /*capacity_bytes*/) {}
  virtual void reserve_collectives(std::size_t /*slots*/,
                                   std::size_t /*reduce_len*/,
                                   std::size_t /*bcast_bytes*/) {}
  virtual void reserve_mailbox(unsigned /*from*/, unsigned /*to*/,
                               int /*tag*/, std::size_t /*depth*/) {}

  // -- Collectives --------------------------------------------------------

  virtual void barrier(unsigned self, unsigned channel = 0,
                       unsigned participants = 0) = 0;

  /// Element-wise sum across the channel's ranks; on return `inout` holds
  /// the total at the root and is unchanged elsewhere. Contributions are
  /// combined in rank order (deterministic regardless of arrival order).
  virtual void reduce_sum(unsigned self, unsigned root,
                          std::span<double> inout, unsigned channel = 0,
                          unsigned participants = 0) = 0;

  /// Root's bytes are copied to every participating rank.
  virtual void broadcast(unsigned self, unsigned root,
                         std::span<std::byte> data, unsigned channel = 0,
                         unsigned participants = 0) = 0;

  // -- Failure surface ----------------------------------------------------

  /// Wake every blocked rank with an error — called when any rank's code
  /// throws, so a failure surfaces instead of deadlocking the cluster.
  virtual void abort_all() = 0;

  /// Declare `rank` fail-stopped (sim: by the fault plan; proc: a rank
  /// announcing its own scripted death before closing its sockets).
  virtual void mark_rank_dead(unsigned rank) = 0;
  virtual bool rank_dead(unsigned rank) const = 0;

  // -- Conveniences layered on the primitives -----------------------------

  /// Typed point-to-point send. T must be trivially copyable.
  template <typename T>
  void send(unsigned from, unsigned to, int tag, std::span<const T> data) {
    static_assert(std::is_trivially_copyable_v<T>);
    std::vector<std::byte> bytes = acquire_buffer();
    bytes.resize(data.size_bytes());
    if (!data.empty()) {
      std::memcpy(bytes.data(), data.data(), data.size_bytes());
    }
    send_raw(from, to, tag, std::move(bytes), data.size_bytes());
  }

  /// Zero-copy send of an already-serialized payload, typically one
  /// obtained from acquire_buffer(). The receiver gets the exact bytes
  /// via recv_bytes and should recycle_buffer() them when done.
  void send_bytes(unsigned from, unsigned to, int tag,
                  std::vector<std::byte>&& payload) {
    const std::uint64_t bytes = payload.size();
    send_raw(from, to, tag, std::move(payload), bytes);
  }

  /// Cost-only send: moves no data, charges time for `logical_bytes`.
  void send_phantom(unsigned from, unsigned to, int tag,
                    std::uint64_t logical_bytes) {
    send_raw(from, to, tag, {}, logical_bytes);
  }

  /// Typed receive; blocks until the matching send arrives.
  template <typename T>
  std::vector<T> recv(unsigned self, unsigned from, int tag) {
    static_assert(std::is_trivially_copyable_v<T>);
    std::vector<std::byte> bytes = recv_raw(self, from, tag);
    SCD_ASSERT(bytes.size() % sizeof(T) == 0, "payload size mismatch");
    std::vector<T> out(bytes.size() / sizeof(T));
    if (!out.empty()) std::memcpy(out.data(), bytes.data(), bytes.size());
    recycle_buffer(std::move(bytes));
    return out;
  }

  std::vector<std::byte> recv_bytes(unsigned self, unsigned from, int tag) {
    return recv_raw(self, from, tag);
  }

  /// Receive a phantom (or typed) message, discarding any payload.
  void recv_discard(unsigned self, unsigned from, int tag) {
    recycle_buffer(recv_raw(self, from, tag));
  }

  template <typename T>
  void broadcast(unsigned self, unsigned root, std::span<T> data,
                 unsigned channel = 0, unsigned participants = 0) {
    static_assert(std::is_trivially_copyable_v<T>);
    broadcast(self, root,
              std::span<std::byte>(reinterpret_cast<std::byte*>(data.data()),
                                   data.size_bytes()),
              channel, participants);
  }
};

}  // namespace scd::comm
