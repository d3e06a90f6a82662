// Per-rank virtual-time span tracer.
//
// A TraceRecorder holds one lane per simulated rank. Rank code opens
// RAII ScopedSpan scopes keyed by Stage; the span records [t0, t1] in
// virtual seconds when it closes. Alongside spans, lanes collect the
// events the critical-path analyzer needs to stitch a cross-rank DAG:
// message receives (with the sender's post time) and collective
// completions (with the gating rank and its entry time).
//
// Threading contract: lane `r` is written only by rank `r`'s thread —
// the recorder itself takes no locks. Transport instrumentation honors
// this by booking sends to the sender's lane and receives to the
// receiver's lane, each from that rank's own thread (the transport lock
// orders the underlying container accesses for the analyzer's later
// single-threaded read).
//
// Disabled path: every instrumentation site holds a TraceRecorder* that
// is null by default; a ScopedSpan over a null recorder reads no clock
// and writes nothing, so untraced runs execute the identical sequence of
// clock operations — bit-identical virtual times — at the cost of one
// predictable branch per site. Enabled path: reserve() pre-sizes every
// lane so steady-state recording is allocation-free.
//
// The recorder never advances any clock; it only samples them. Tracing
// therefore cannot change modeled time, enabled or not.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "trace/metrics.h"
#include "trace/stage.h"

namespace scd::trace {

/// One closed span on a lane: rank code spent [begin_s, end_s] in
/// `stage`. `iteration` carries the sampler's iteration index (or 0)
/// for exporter labels.
struct SpanEvent {
  Stage stage{};
  double begin_s = 0.0;
  double end_s = 0.0;
  std::uint64_t iteration = 0;
};

/// A completed point-to-point receive on this lane. `sent_s` is the
/// sender's clock when the message was posted; the interval
/// [sent_s, arrival_s] is the message's time in flight (wire + latency
/// + NIC queueing). `wait_from_s` is the receiver's clock before the
/// receive — the receive gated progress only if arrival_s > wait_from_s.
struct RecvEvent {
  unsigned from = 0;
  double sent_s = 0.0;
  double arrival_s = 0.0;
  double wait_from_s = 0.0;
  std::uint64_t bytes = 0;
};

/// A collective this lane departed from. All participants finished at
/// `finish_s`; the last rank in was `gating_rank`, entering at
/// `max_entry_s`. `entry_s` is this lane's own entry time.
struct CollectiveEvent {
  double finish_s = 0.0;
  double entry_s = 0.0;
  double max_entry_s = 0.0;
  unsigned gating_rank = 0;
  std::uint64_t bytes = 0;
};

class TraceRecorder {
 public:
  explicit TraceRecorder(unsigned num_ranks);

  unsigned num_lanes() const { return num_ranks_; }
  MetricsRegistry& metrics() { return metrics_; }
  const MetricsRegistry& metrics() const { return metrics_; }

  /// Built-in histogram of point-to-point message payload sizes.
  MetricsRegistry::HistogramId message_bytes_histogram() const {
    return message_bytes_hist_;
  }

  /// Pre-size every lane so recording allocates nothing until a lane
  /// outgrows the reservation.
  void reserve(std::size_t spans_per_lane, std::size_t events_per_lane);
  /// Pre-size one lane's spans and receives, for a run whose lanes see
  /// different traffic and join no collectives.
  void reserve_lane(unsigned lane, std::size_t spans, std::size_t recvs);

  /// Drop all recorded data (lane names and reservations survive).
  void clear();

  void set_lane_name(unsigned lane, std::string name);
  const std::string& lane_name(unsigned lane) const {
    return lane_names_[lane];
  }

  void record_span(unsigned lane, Stage stage, double begin_s, double end_s,
                   std::uint64_t iteration = 0) {
    lanes_[lane].spans.push_back(SpanEvent{stage, begin_s, end_s, iteration});
  }
  void record_recv(unsigned lane, unsigned from, double sent_s,
                   double arrival_s, double wait_from_s,
                   std::uint64_t bytes) {
    lanes_[lane].recvs.push_back(
        RecvEvent{from, sent_s, arrival_s, wait_from_s, bytes});
  }
  void record_collective(unsigned lane, double finish_s, double entry_s,
                         double max_entry_s, unsigned gating_rank,
                         std::uint64_t bytes) {
    lanes_[lane].collectives.push_back(
        CollectiveEvent{finish_s, entry_s, max_entry_s, gating_rank, bytes});
  }

  const std::vector<SpanEvent>& spans(unsigned lane) const {
    return lanes_[lane].spans;
  }
  const std::vector<RecvEvent>& recvs(unsigned lane) const {
    return lanes_[lane].recvs;
  }
  const std::vector<CollectiveEvent>& collectives(unsigned lane) const {
    return lanes_[lane].collectives;
  }

  std::size_t total_spans() const;
  /// Latest span end across all lanes — the traced run's horizon.
  double max_time() const;

  /// Per-stage/per-lane rollup: for each stage with any spans, the span
  /// count, summed seconds, and the lane holding the largest per-lane
  /// total (the stage's critical rank).
  Table summary_table() const;

 private:
  struct Lane {
    std::vector<SpanEvent> spans;
    std::vector<RecvEvent> recvs;
    std::vector<CollectiveEvent> collectives;
  };

  unsigned num_ranks_;
  std::vector<Lane> lanes_;
  std::vector<std::string> lane_names_;
  MetricsRegistry metrics_;
  MetricsRegistry::HistogramId message_bytes_hist_;
};

/// RAII span scope. ClockT needs `double now() const` — comm::VirtualClock
/// fits; the template keeps trace/ independent of sim/. Null recorder:
/// both constructor and destructor reduce to a branch.
template <typename ClockT>
class ScopedSpan {
 public:
  ScopedSpan(TraceRecorder* recorder, unsigned lane, Stage stage,
             const ClockT& clock, std::uint64_t iteration = 0)
      : recorder_(recorder), clock_(&clock), lane_(lane), stage_(stage),
        iteration_(iteration),
        begin_s_(recorder != nullptr ? clock.now() : 0.0) {}

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  ~ScopedSpan() {
    if (recorder_ != nullptr) {
      recorder_->record_span(lane_, stage_, begin_s_, clock_->now(),
                             iteration_);
    }
  }

 private:
  TraceRecorder* recorder_;
  const ClockT* clock_;
  unsigned lane_;
  Stage stage_;
  std::uint64_t iteration_;
  double begin_s_;
};

}  // namespace scd::trace
