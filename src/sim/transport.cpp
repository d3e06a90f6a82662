#include "sim/transport.h"

#include <algorithm>

namespace scd::sim {

SimTransport::SimTransport(unsigned num_ranks, const comm::NetworkModel& net,
                           std::vector<comm::VirtualClock>& clocks)
    : num_ranks_(num_ranks), net_(net), clocks_(clocks) {
  SCD_REQUIRE(num_ranks >= 1, "transport needs at least one rank");
  SCD_REQUIRE(clocks.size() >= num_ranks, "one clock per rank required");
  net_.validate();
  nic_free_s_.assign(num_ranks, 0.0);
  dead_.assign(num_ranks, 0);
}

std::vector<std::byte> SimTransport::acquire_buffer() {
  std::lock_guard<std::mutex> lock(mu_);
  if (buffer_pool_.empty()) return {};
  std::vector<std::byte> buffer = std::move(buffer_pool_.back());
  buffer_pool_.pop_back();
  buffer.clear();
  return buffer;
}

void SimTransport::recycle_buffer(std::vector<std::byte>&& buffer) {
  if (buffer.capacity() == 0) return;  // nothing worth pooling
  std::lock_guard<std::mutex> lock(mu_);
  buffer_pool_.push_back(std::move(buffer));
}

void SimTransport::reserve_buffers(std::size_t count,
                                   std::size_t capacity_bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  buffer_pool_.reserve(buffer_pool_.size() + count);
  for (std::size_t i = 0; i < count; ++i) {
    std::vector<std::byte> buffer;
    buffer.reserve(capacity_bytes);
    buffer_pool_.push_back(std::move(buffer));
  }
}

void SimTransport::reserve_collectives(std::size_t slots,
                                       std::size_t reduce_len,
                                       std::size_t bcast_bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  free_slots_.reserve(free_slots_.size() + slots);
  for (std::size_t i = 0; i < slots; ++i) {
    auto slot = std::make_shared<CollSlot>();
    slot->reduce_inputs.resize(num_ranks_);
    for (std::vector<double>& input : slot->reduce_inputs) {
      input.reserve(reduce_len);
    }
    slot->has_input.assign(num_ranks_, 0);
    slot->reduce_acc.reserve(reduce_len);
    slot->bcast_data.reserve(bcast_bytes);
    free_slots_.push_back(std::move(slot));
  }
}

void SimTransport::reserve_mailbox(unsigned from, unsigned to, int tag,
                                   std::size_t depth) {
  SCD_REQUIRE(from < num_ranks_ && to < num_ranks_, "rank out of range");
  std::lock_guard<std::mutex> lock(mu_);
  mailboxes_[mailbox_key(from, to, tag)].items.reserve(depth);
}

void SimTransport::send_raw(unsigned from, unsigned to, int tag,
                            std::vector<std::byte> payload,
                            std::uint64_t logical_bytes) {
  SCD_REQUIRE(from < num_ranks_ && to < num_ranks_, "rank out of range");
  const double wire_s =
      static_cast<double>(logical_bytes) / net_.bandwidth_Bps;
  {
    std::lock_guard<std::mutex> lock(mu_);
    // Posting costs the sender a request overhead; the wire transfer
    // occupies the sender's NIC, serializing back-to-back sends.
    clocks_[from].advance(net_.dkv_request_overhead_s);
    double extra_delay_s = 0.0;
    if (fault_ != nullptr) {
      const comm::SendFaults faults =
          fault_->on_send(from, to, clocks_[from].now());
      // Each lost transmission occupies the NIC for the full payload,
      // then the sender waits out an exponential-backoff timeout and
      // re-posts. Delivery always happens eventually — the plan caps
      // drop_prob below 1 — so protocols above see delay, not loss.
      for (unsigned a = 0; a < faults.dropped_attempts; ++a) {
        const double start =
            std::max(clocks_[from].now(), nic_free_s_[from]);
        nic_free_s_[from] = start + wire_s;
        clocks_[from].advance_to(start + wire_s);
        clocks_[from].advance(fault_->retry_backoff_s() *
                              static_cast<double>(1u << std::min(a, 10u)));
        clocks_[from].advance(net_.dkv_request_overhead_s);
      }
      // A duplicated transmission pays the wire twice but is delivered
      // once (receiver-side sequence numbers drop the copy).
      for (unsigned d = 0; d < faults.duplicates; ++d) {
        const double start =
            std::max(clocks_[from].now(), nic_free_s_[from]);
        nic_free_s_[from] = start + wire_s;
      }
      extra_delay_s = faults.extra_delay_s;
    }
    const double start = std::max(clocks_[from].now(), nic_free_s_[from]);
    nic_free_s_[from] = start + wire_s;
    const double arrival = start + wire_s + net_.latency_s + extra_delay_s;
    const double sent = clocks_[from].now();
    if (trace_ != nullptr) {
      trace::MetricsRegistry& metrics = trace_->metrics();
      metrics.count(trace::Metric::kMessagesSent, from);
      metrics.count(trace::Metric::kBytesSent, from, logical_bytes);
      metrics.observe(trace_->message_bytes_histogram(), from,
                      static_cast<double>(logical_bytes));
    }
    mailboxes_[mailbox_key(from, to, tag)].push(
        Message{arrival, sent, logical_bytes, std::move(payload)});
  }
  cv_.notify_all();
}

std::vector<std::byte> SimTransport::recv_raw(unsigned self, unsigned from,
                                              int tag) {
  SCD_REQUIRE(self < num_ranks_ && from < num_ranks_, "rank out of range");
  std::unique_lock<std::mutex> lock(mu_);
  auto& queue = mailboxes_[mailbox_key(from, self, tag)];
  cv_.wait(lock,
           [&] { return aborted_ || !queue.empty() || dead_[from] != 0; });
  if (aborted_) throw Error("transport aborted while receiving");
  if (queue.empty()) {
    // Only reachable when `from` fail-stopped with nothing in flight.
    throw TransportError("receive from dead rank " + std::to_string(from));
  }
  Message msg = queue.pop();
  const double wait_from = clocks_[self].now();
  clocks_[self].advance_to(msg.arrival_s);
  if (trace_ != nullptr) {
    trace_->record_recv(self, from, msg.sent_s, msg.arrival_s, wait_from,
                        msg.logical_bytes);
    trace::MetricsRegistry& metrics = trace_->metrics();
    metrics.count(trace::Metric::kMessagesReceived, self);
    metrics.count(trace::Metric::kBytesReceived, self, msg.logical_bytes);
  }
  return std::move(msg.payload);
}

std::optional<std::vector<std::byte>> SimTransport::recv_bytes_or_dead(
    unsigned self, unsigned from, int tag) {
  SCD_REQUIRE(self < num_ranks_ && from < num_ranks_, "rank out of range");
  std::unique_lock<std::mutex> lock(mu_);
  auto& queue = mailboxes_[mailbox_key(from, self, tag)];
  cv_.wait(lock,
           [&] { return aborted_ || !queue.empty() || dead_[from] != 0; });
  if (aborted_) throw Error("transport aborted while receiving");
  if (queue.empty()) return std::nullopt;  // dead, fully drained
  Message msg = queue.pop();
  const double wait_from = clocks_[self].now();
  clocks_[self].advance_to(msg.arrival_s);
  if (trace_ != nullptr) {
    trace_->record_recv(self, from, msg.sent_s, msg.arrival_s, wait_from,
                        msg.logical_bytes);
    trace::MetricsRegistry& metrics = trace_->metrics();
    metrics.count(trace::Metric::kMessagesReceived, self);
    metrics.count(trace::Metric::kBytesReceived, self, msg.logical_bytes);
  }
  return std::move(msg.payload);
}

void SimTransport::mark_rank_dead(unsigned rank) {
  SCD_REQUIRE(rank < num_ranks_, "rank out of range");
  {
    std::lock_guard<std::mutex> lock(mu_);
    dead_[rank] = 1;
  }
  cv_.notify_all();
}

bool SimTransport::rank_dead(unsigned rank) const {
  SCD_REQUIRE(rank < num_ranks_, "rank out of range");
  std::lock_guard<std::mutex> lock(mu_);
  return dead_[rank] != 0;
}

void SimTransport::run_collective(unsigned self, unsigned channel,
                                  unsigned participants, CollOp op,
                                  unsigned root,
                                  std::span<double> reduce_inout,
                                  std::span<std::byte> bcast_inout) {
  SCD_REQUIRE(self < num_ranks_ && root < num_ranks_, "rank out of range");
  if (participants == 0) participants = num_ranks_;
  const std::uint64_t payload_bytes = op == CollOp::kReduce
                                          ? reduce_inout.size_bytes()
                                          : bcast_inout.size_bytes();
  std::unique_lock<std::mutex> lock(mu_);
  if (channel >= open_collectives_.size()) {
    open_collectives_.resize(channel + 1);
  }
  if (!open_collectives_[channel]) {
    std::shared_ptr<CollSlot> fresh;
    if (!free_slots_.empty()) {
      fresh = std::move(free_slots_.back());
      free_slots_.pop_back();
    } else {
      fresh = std::make_shared<CollSlot>();
    }
    fresh->op = op;
    fresh->root = root;
    fresh->participants = participants;
    fresh->payload_bytes = payload_bytes;
    open_collectives_[channel] = std::move(fresh);
  }
  std::shared_ptr<CollSlot> slot = open_collectives_[channel];
  SCD_REQUIRE(slot->op == op && slot->root == root &&
                  slot->participants == participants &&
                  slot->payload_bytes == payload_bytes,
              "mismatched collective: ranks disagree on op/root/size");
  const double entry = clocks_[self].now();
  // Track the last rank in (ties broken toward the lowest rank so the
  // record is independent of thread arrival order) — the trace's
  // collective edge points at it.
  if (entry > slot->max_entry ||
      (entry == slot->max_entry && self < slot->gating_rank)) {
    slot->max_entry = entry;
    slot->gating_rank = self;
  }
  if (op == CollOp::kReduce) {
    if (slot->reduce_inputs.size() < num_ranks_) {
      slot->reduce_inputs.resize(num_ranks_);
      slot->has_input.assign(num_ranks_, 0);
    }
    SCD_REQUIRE(!slot->has_input[self], "rank joined the same reduce twice");
    slot->has_input[self] = 1;
    slot->reduce_inputs[self].assign(reduce_inout.begin(),
                                     reduce_inout.end());
  } else if (op == CollOp::kBroadcast && self == root) {
    slot->bcast_data.assign(bcast_inout.begin(), bcast_inout.end());
  }
  if (++slot->arrived == participants) {
    slot->finish =
        slot->max_entry + net_.collective_time(participants, payload_bytes);
    if (slot->op == CollOp::kReduce) {
      // Deterministic rank-order fold, independent of arrival order.
      slot->reduce_acc.assign(reduce_inout.size(), 0.0);
      for (unsigned rank = 0; rank < num_ranks_; ++rank) {
        if (!slot->has_input[rank]) continue;
        const std::vector<double>& contribution = slot->reduce_inputs[rank];
        SCD_REQUIRE(contribution.size() == reduce_inout.size(),
                    "reduce length mismatch across ranks");
        for (std::size_t i = 0; i < contribution.size(); ++i) {
          slot->reduce_acc[i] += contribution[i];
        }
      }
    }
    slot->complete = true;
    open_collectives_[channel].reset();  // next one opens fresh
    cv_.notify_all();
  } else {
    cv_.wait(lock, [&] { return aborted_ || slot->complete; });
    if (aborted_ && !slot->complete) {
      throw Error("transport aborted during collective");
    }
  }
  clocks_[self].advance_to(slot->finish);
  // Collect results before departing — the last rank out recycles the
  // slot, after which its buffers may be reused by another collective.
  if (op == CollOp::kReduce && self == root) {
    SCD_REQUIRE(slot->reduce_acc.size() == reduce_inout.size(),
                "reduce length mismatch across ranks");
    std::copy(slot->reduce_acc.begin(), slot->reduce_acc.end(),
              reduce_inout.begin());
  }
  if (op == CollOp::kBroadcast && self != root && !bcast_inout.empty()) {
    SCD_REQUIRE(slot->bcast_data.size() == bcast_inout.size(),
                "broadcast length mismatch across ranks");
    std::copy(slot->bcast_data.begin(), slot->bcast_data.end(),
              bcast_inout.begin());
  }
  if (trace_ != nullptr) {
    trace_->record_collective(self, slot->finish, entry, slot->max_entry,
                              slot->gating_rank, payload_bytes);
    trace_->metrics().count(trace::Metric::kCollectives, self);
  }
  if (++slot->departed == slot->participants) {
    slot->arrived = 0;
    slot->departed = 0;
    slot->max_entry = 0.0;
    slot->gating_rank = kNoGatingRank;
    slot->complete = false;
    slot->finish = 0.0;
    slot->bcast_data.clear();
    std::fill(slot->has_input.begin(), slot->has_input.end(),
              static_cast<std::uint8_t>(0));
    free_slots_.push_back(std::move(slot));
  }
}

void SimTransport::abort_all() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    aborted_ = true;
  }
  cv_.notify_all();
}

void SimTransport::barrier(unsigned self, unsigned channel,
                           unsigned participants) {
  run_collective(self, channel, participants, CollOp::kBarrier, 0, {}, {});
}

void SimTransport::reduce_sum(unsigned self, unsigned root,
                              std::span<double> inout, unsigned channel,
                              unsigned participants) {
  run_collective(self, channel, participants, CollOp::kReduce, root, inout,
                 {});
}

void SimTransport::broadcast(unsigned self, unsigned root,
                             std::span<std::byte> data, unsigned channel,
                             unsigned participants) {
  run_collective(self, channel, participants, CollOp::kBroadcast, root, {},
                 data);
}

}  // namespace scd::sim
