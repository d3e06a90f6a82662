// MPI-style transport for the virtual-time cluster — the simulated
// implementation of the backend-neutral comm::Transport seam.
//
// Rank code runs on real threads; this class provides point-to-point
// messages and the collectives the algorithm needs (barrier, reduce-sum,
// broadcast) with two effects per operation: real data movement between
// rank address spaces, and virtual-clock synchronization per the
// comm::NetworkModel.
//
// Timing semantics:
//  * send: the sender's NIC serializes its outgoing transfers (a scatter
//    of B bytes to C peers costs the root ~B/bandwidth total, like a real
//    eager-protocol deploy). Posting costs the sender one request
//    overhead; the payload arrives at
//        max(sender_clock, nic_free) + bytes/bw + latency.
//  * recv: blocks (really) until the message exists, then advances the
//    receiver's clock to the arrival time.
//  * collectives: every rank must call them in the same order with the
//    same operation type; completion time is
//        max(entry clocks) + tree_depth * per-hop + skew,
//    charged to all participants.
//
// The transport never drops or reorders messages with equal
// (from, to, tag); the algorithm's stage structure guarantees matching.
//
// Steady-state allocation: payload buffers are pooled
// (acquire_buffer/send_bytes/recv_bytes/recycle_buffer move one buffer
// sender -> mailbox -> receiver -> pool), mailboxes are head-indexed
// rings that keep their capacity, and collective slots are recycled with
// their rank-indexed contribution buffers. After warm-up the messaging
// hot path performs no heap allocation — a requirement of the
// zero-allocation distributed iteration test.
#pragma once

#include <algorithm>
#include <condition_variable>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <vector>

#include "comm/clock.h"
#include "comm/fault_hooks.h"
#include "comm/network_model.h"
#include "comm/transport.h"
#include "trace/recorder.h"
#include "util/error.h"

namespace scd::sim {

/// Sim-era spelling; the type lives with the seam in comm/transport.h.
using TransportError = comm::TransportError;

class SimTransport final : public comm::Transport {
 public:
  /// `clocks` must outlive the transport and have one entry per rank.
  SimTransport(unsigned num_ranks, const comm::NetworkModel& net,
               std::vector<comm::VirtualClock>& clocks);

  unsigned num_ranks() const override { return num_ranks_; }
  const comm::NetworkModel& network() const { return net_; }

  /// Point-to-point primitives (typed/zero-copy/phantom conveniences are
  /// inherited from comm::Transport and layer on these).
  void send_raw(unsigned from, unsigned to, int tag,
                std::vector<std::byte> payload,
                std::uint64_t logical_bytes) override;
  std::vector<std::byte> recv_raw(unsigned self, unsigned from,
                                  int tag) override;

  /// Failure-aware receive: like recv_bytes, but when `from` has been
  /// marked dead and no matching message remains it returns std::nullopt
  /// instead of blocking forever — the sampler's failure detector.
  /// Deterministic because ranks die only at virtual-time points fixed
  /// by the fault plan, after finishing all earlier sends.
  std::optional<std::vector<std::byte>> recv_bytes_or_dead(
      unsigned self, unsigned from, int tag) override;

  /// Take an empty buffer from the pool (capacity from earlier traffic).
  std::vector<std::byte> acquire_buffer() override;
  /// Return a consumed payload's storage to the pool.
  void recycle_buffer(std::vector<std::byte>&& buffer) override;
  /// Pre-warm the pool with `count` buffers of `capacity_bytes` each so
  /// even the first iterations allocate nothing on the messaging path.
  void reserve_buffers(std::size_t count, std::size_t capacity_bytes) override;

  /// Pre-warm the collective slot pool: `slots` recycled slots whose
  /// rank-indexed contribution buffers can hold `reduce_len` doubles and
  /// whose broadcast staging holds `bcast_bytes`. Without this, the slot
  /// pool grows lazily to its high-water mark, and thread scheduling can
  /// first reach that mark arbitrarily late in a run.
  void reserve_collectives(std::size_t slots, std::size_t reduce_len,
                           std::size_t bcast_bytes) override;

  /// Pre-warm one point-to-point mailbox ring to `depth` queued messages
  /// (the map node plus the ring's backing storage).
  void reserve_mailbox(unsigned from, unsigned to, int tag,
                       std::size_t depth) override;

  /// Collectives run on a *channel*: a group of `participants` ranks that
  /// all call the same operation in the same order. participants == 0
  /// means every rank of the cluster. Distinct channels may be in flight
  /// concurrently (the algorithm uses a worker-only barrier channel while
  /// the master is busy elsewhere); within a channel, ordering must match
  /// across its members — violations are detected and throw.
  ///
  /// barrier: rendezvous; clocks advance to max entry + barrier cost.
  void barrier(unsigned self, unsigned channel = 0,
               unsigned participants = 0) override;

  /// Element-wise sum across the channel's ranks; on return `inout` holds
  /// the total at the root and is unchanged elsewhere. Contributions are
  /// combined in rank order (deterministic regardless of arrival order).
  void reduce_sum(unsigned self, unsigned root, std::span<double> inout,
                  unsigned channel = 0, unsigned participants = 0) override;

  /// Root's bytes are copied to every participating rank.
  void broadcast(unsigned self, unsigned root, std::span<std::byte> data,
                 unsigned channel = 0, unsigned participants = 0) override;
  using comm::Transport::broadcast;  // the typed span<T> overload

  double clock_now(unsigned rank) const { return clocks_[rank].now(); }
  comm::VirtualClock& clock(unsigned rank) { return clocks_[rank]; }

  /// Wake every blocked rank with an error — called when any rank's code
  /// throws, so a failure surfaces instead of deadlocking the cluster.
  void abort_all() override;

  /// Install (or clear, with nullptr) the fault-injection hooks. With no
  /// hooks the messaging path is the unmodified happy path behind a
  /// single null check. on_send is invoked under the transport lock, in
  /// the sender's program order.
  void install_fault_hooks(comm::FaultHooks* hooks) { fault_ = hooks; }

  /// Install (or clear, with nullptr) a trace recorder. Sends count
  /// bytes/messages on the sender's lane; receives record the message
  /// edge (post time -> arrival) on the receiver's lane; collectives
  /// record finish, the gating rank, and its entry time on every
  /// participant's lane. The recorder only samples clocks — modeled
  /// times are identical with or without it.
  void install_trace(trace::TraceRecorder* recorder) { trace_ = recorder; }
  trace::TraceRecorder* trace_recorder() const { return trace_; }

  /// Declare `rank` fail-stopped: wakes its waiting receivers. Messages
  /// it sent before dying stay deliverable; once drained, blocking
  /// receives from it throw TransportError and recv_bytes_or_dead
  /// returns std::nullopt.
  void mark_rank_dead(unsigned rank) override;
  bool rank_dead(unsigned rank) const override;

 private:
  struct Message {
    double arrival_s = 0.0;
    double sent_s = 0.0;  // sender's clock at post, for trace edges
    std::uint64_t logical_bytes = 0;
    std::vector<std::byte> payload;
  };

  /// FIFO that reuses its storage: pops advance a head index, and the
  /// backing vector resets (keeping capacity) when it drains or compacts
  /// in place when a push would otherwise grow past consumed slots — the
  /// pipelined sampler keeps a deploy permanently in flight, so the queue
  /// may never be empty at push time. Unlike a deque, the steady
  /// push/pop cycle never reallocates.
  struct MessageQueue {
    std::vector<Message> items;
    std::size_t head = 0;

    bool empty() const { return head == items.size(); }
    void push(Message&& msg) {
      if (empty()) {
        items.clear();
        head = 0;
      } else if (head > 0 && items.size() == items.capacity()) {
        std::move(items.begin() + static_cast<std::ptrdiff_t>(head),
                  items.end(), items.begin());
        items.resize(items.size() - head);
        head = 0;
      }
      items.push_back(std::move(msg));
    }
    Message pop() {
      Message msg = std::move(items[head]);
      ++head;
      if (empty()) {
        items.clear();
        head = 0;
      }
      return msg;
    }
  };

  enum class CollOp { kBarrier, kReduce, kBroadcast };

  static constexpr unsigned kNoGatingRank = ~0u;

  struct CollSlot {
    CollOp op{};
    unsigned root = 0;
    unsigned participants = 0;
    std::uint64_t payload_bytes = 0;
    unsigned arrived = 0;
    unsigned departed = 0;
    double max_entry = 0.0;
    unsigned gating_rank = kNoGatingRank;  // last-in rank (ties: lowest)
    bool complete = false;
    double finish = 0.0;
    /// Reduce contributions indexed by rank (has_input marks presence),
    /// summed in rank order at completion so the result is arrival-order
    /// independent. Buffers keep their capacity across recycled uses.
    std::vector<std::vector<double>> reduce_inputs;
    std::vector<std::uint8_t> has_input;
    std::vector<double> reduce_acc;
    std::vector<std::byte> bcast_data;
  };

  static std::uint64_t mailbox_key(unsigned from, unsigned to, int tag) {
    // Field widths: from gets bits [40, 64), to gets [16, 40), tag gets
    // [0, 16). Overflow would silently alias two mailboxes and corrupt
    // matching, so fail loudly instead.
    SCD_ASSERT(from < (1u << 24) && to < (1u << 24),
               "mailbox rank exceeds 24-bit field");
    SCD_ASSERT(tag >= 0 && tag < (1 << 16), "mailbox tag exceeds 16 bits");
    return (static_cast<std::uint64_t>(from) << 40) |
           (static_cast<std::uint64_t>(to) << 16) |
           static_cast<std::uint64_t>(static_cast<std::uint16_t>(tag));
  }

  /// Shared collective rendezvous. Reduce ranks contribute and (at the
  /// root) collect through `reduce_inout`; broadcast ranks publish (root)
  /// or receive (others) through `bcast_inout`. The slot is recycled to
  /// the free pool by the last rank to depart.
  void run_collective(unsigned self, unsigned channel, unsigned participants,
                      CollOp op, unsigned root, std::span<double> reduce_inout,
                      std::span<std::byte> bcast_inout);

  unsigned num_ranks_;
  comm::NetworkModel net_;
  std::vector<comm::VirtualClock>& clocks_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::map<std::uint64_t, MessageQueue> mailboxes_;
  std::vector<double> nic_free_s_;  // per-rank outbound NIC availability
  std::vector<std::shared_ptr<CollSlot>> open_collectives_;  // by channel
  std::vector<std::shared_ptr<CollSlot>> free_slots_;
  std::vector<std::vector<std::byte>> buffer_pool_;
  std::vector<std::uint8_t> dead_;  // per-rank fail-stop flags
  comm::FaultHooks* fault_ = nullptr;
  trace::TraceRecorder* trace_ = nullptr;
  bool aborted_ = false;
};

}  // namespace scd::sim
