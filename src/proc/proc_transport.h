// Multi-process transport over Unix-domain socket pairs.
//
// One ProcTransport is constructed in the launcher process *before*
// fork: the constructor builds a full socketpair mesh (one full-duplex
// pair per unordered rank pair), every child inherits all ends, and
// attach(self) closes everything that is not self's — after which each
// process holds exactly one fd per peer. Stream sockets give per-fd
// ordering, so the contract's per-(from, to, tag) FIFO reduces to tag
// matching: frames arriving under a different tag than the one a recv
// asked for are parked in a per-peer pending queue and delivered to the
// later recv that wants them, in arrival order.
//
// Liveness is the file descriptor itself. A rank that fail-stops (or is
// SIGKILLed) closes its ends — by mark_rank_dead(self) or by the kernel
// — and peers see EOF *after* draining everything it sent first, which
// is exactly the dead-rank drain semantics the sampler depends on:
// recv_bytes_or_dead returns queued frames until the stream is dry, then
// std::nullopt. Blocking receives additionally carry a wall-clock
// deadline (Options::recv_timeout_s) so a wedged peer surfaces as a
// TransportError instead of a hung CI job.
//
// Collectives are binomial trees over the channel's participant set
// (the LAST `participants` ranks, root = the lowest of them), built on
// the point-to-point frames under reserved high tags. reduce_sum ships
// raw (rank, contribution) records up the tree WITHOUT partial summing;
// the root folds all contributions in ascending rank order into a zeroed
// accumulator — bit-identical to SimTransport's fold, which is one of
// the pillars of sim-vs-proc trajectory equality.
//
// abort_all() posts a poison frame to every peer; any receive that
// encounters one throws, unwinding every blocked rank.
#pragma once

#include <cstddef>
#include <cstdint>

#include <deque>
#include <map>
#include <optional>
#include <span>
#include <vector>

#include "comm/transport.h"

namespace scd::proc {

class ProcTransport final : public comm::Transport {
 public:
  struct Options {
    /// Wall-clock deadline of one blocking receive.
    double recv_timeout_s = 120.0;
  };

  /// Builds the socketpair mesh. Call in the launcher before forking.
  explicit ProcTransport(unsigned num_ranks) : ProcTransport(num_ranks, Options{}) {}
  ProcTransport(unsigned num_ranks, const Options& options);
  ~ProcTransport() override;

  ProcTransport(const ProcTransport&) = delete;
  ProcTransport& operator=(const ProcTransport&) = delete;

  /// Adopt the perspective of `self` in this process: closes every fd
  /// that belongs to another rank. Called once per process, post-fork.
  void attach(unsigned self);
  bool attached() const { return self_ >= 0; }
  unsigned self() const;

  unsigned num_ranks() const override { return num_ranks_; }

  void send_raw(unsigned from, unsigned to, int tag,
                std::vector<std::byte> payload,
                std::uint64_t logical_bytes) override;
  std::vector<std::byte> recv_raw(unsigned self, unsigned from,
                                  int tag) override;
  std::optional<std::vector<std::byte>> recv_bytes_or_dead(
      unsigned self, unsigned from, int tag) override;

  std::vector<std::byte> acquire_buffer() override;
  void recycle_buffer(std::vector<std::byte>&& buffer) override;

  void barrier(unsigned self, unsigned channel = 0,
               unsigned participants = 0) override;
  void reduce_sum(unsigned self, unsigned root, std::span<double> inout,
                  unsigned channel = 0, unsigned participants = 0) override;
  void broadcast(unsigned self, unsigned root, std::span<std::byte> data,
                 unsigned channel = 0, unsigned participants = 0) override;
  using comm::Transport::broadcast;

  void abort_all() override;
  void mark_rank_dead(unsigned rank) override;
  bool rank_dead(unsigned rank) const override;

 private:
  struct Peer {
    int fd = -1;
    bool dead = false;  // EOF observed (or announced via mark_rank_dead)
    /// Frames received while a different tag was wanted, per tag, FIFO.
    std::map<int, std::deque<std::vector<std::byte>>> pending;
  };

  /// Collective topology of (channel, participants): ranks
  /// [num_ranks - P, num_ranks), relative index rel = rank - base,
  /// binomial tree rooted at rel 0.
  struct Tree {
    unsigned base = 0;
    unsigned p = 0;
    unsigned rel = 0;
  };
  Tree tree_for(unsigned self, unsigned participants) const;
  static int coll_tag(unsigned channel, unsigned op);

  /// Read one frame from `from`'s fd and park it under its tag. Returns
  /// false on EOF (marks the peer dead). Throws on timeout or poison.
  bool pump(unsigned from);
  std::optional<std::vector<std::byte>> take_pending(unsigned from, int tag);

  /// Gather concatenated (rank, payload) records from tree children and
  /// forward to the parent; at the root, returns all P records.
  std::vector<std::byte> tree_gather(const Tree& t, int tag,
                                     std::span<const std::byte> own);
  /// Broadcast root's bytes down the tree (empty span = pure release).
  void tree_bcast(const Tree& t, int tag, std::span<std::byte> data);

  unsigned num_ranks_;
  Options options_;
  int self_ = -1;
  bool self_closed_ = false;
  /// Pre-attach: ends_[a][b] = the fd rank a uses to reach rank b.
  std::vector<std::vector<int>> ends_;
  std::vector<Peer> peers_;  // indexed by peer rank; valid after attach
  std::vector<std::vector<std::byte>> pool_;
};

}  // namespace scd::proc
