#include "trace/recorder.h"

#include <algorithm>
#include <array>

#include "util/error.h"

namespace scd::trace {

const char* stage_name(Stage s) {
  switch (s) {
    case Stage::kDrawMinibatch: return "draw_minibatch";
    case Stage::kDeployMinibatch: return "deploy_minibatch";
    case Stage::kSampleNeighbors: return "sample_neighbors";
    case Stage::kLoadPi: return "load_pi";
    case Stage::kUpdatePhi: return "update_phi";
    case Stage::kUpdatePi: return "update_pi";
    case Stage::kUpdateBetaTheta: return "update_beta_theta";
    case Stage::kPerplexity: return "perplexity";
    case Stage::kBarrierWait: return "barrier_wait";
    case Stage::kSetup: return "setup";
    case Stage::kRecovery: return "recovery";
    case Stage::kNetwork: return "network";
    case Stage::kCollective: return "collective";
    case Stage::kUntracked: return "untracked";
    case Stage::kCount: break;
  }
  return "?";
}

TraceRecorder::TraceRecorder(unsigned num_ranks)
    : num_ranks_(num_ranks), lanes_(num_ranks), metrics_(num_ranks),
      message_bytes_hist_(metrics_.add_histogram("message_bytes")) {
  SCD_REQUIRE(num_ranks >= 1, "trace recorder needs at least one lane");
  lane_names_.resize(num_ranks);
  for (unsigned r = 0; r < num_ranks; ++r) {
    lane_names_[r] = "rank " + std::to_string(r);
  }
}

void TraceRecorder::reserve(std::size_t spans_per_lane,
                            std::size_t events_per_lane) {
  for (unsigned lane = 0; lane < num_ranks_; ++lane) {
    reserve_lane(lane, spans_per_lane, events_per_lane);
    lanes_[lane].collectives.reserve(events_per_lane);
  }
}

void TraceRecorder::reserve_lane(unsigned lane, std::size_t spans,
                                 std::size_t recvs) {
  lanes_[lane].spans.reserve(spans);
  lanes_[lane].recvs.reserve(recvs);
}

void TraceRecorder::clear() {
  for (Lane& lane : lanes_) {
    lane.spans.clear();
    lane.recvs.clear();
    lane.collectives.clear();
  }
  metrics_.clear();
}

void TraceRecorder::set_lane_name(unsigned lane, std::string name) {
  lane_names_[lane] = std::move(name);
}

std::size_t TraceRecorder::total_spans() const {
  std::size_t total = 0;
  for (const Lane& lane : lanes_) total += lane.spans.size();
  return total;
}

double TraceRecorder::max_time() const {
  double best = 0.0;
  for (const Lane& lane : lanes_) {
    for (const SpanEvent& s : lane.spans) best = std::max(best, s.end_s);
  }
  return best;
}

Table TraceRecorder::summary_table() const {
  struct StageRoll {
    std::uint64_t count = 0;
    double seconds = 0.0;
    double max_lane_s = 0.0;
    unsigned max_lane = 0;
  };
  std::array<StageRoll, kNumStages> rolls{};
  std::array<double, kNumStages> lane_s{};
  for (unsigned lane = 0; lane < num_ranks_; ++lane) {
    lane_s.fill(0.0);
    for (const SpanEvent& s : lanes_[lane].spans) {
      const std::size_t idx = static_cast<std::size_t>(s.stage);
      rolls[idx].count++;
      rolls[idx].seconds += s.end_s - s.begin_s;
      lane_s[idx] += s.end_s - s.begin_s;
    }
    for (std::size_t idx = 0; idx < kNumStages; ++idx) {
      if (lane_s[idx] > rolls[idx].max_lane_s) {
        rolls[idx].max_lane_s = lane_s[idx];
        rolls[idx].max_lane = lane;
      }
    }
  }
  Table out({"stage", "spans", "total_s", "max_rank_s", "max_rank"});
  for (std::size_t idx = 0; idx < kNumStages; ++idx) {
    if (rolls[idx].count == 0) continue;
    out.add_row({std::string(stage_name(static_cast<Stage>(idx))),
                 static_cast<std::int64_t>(rolls[idx].count),
                 rolls[idx].seconds, rolls[idx].max_lane_s,
                 static_cast<std::int64_t>(rolls[idx].max_lane)});
  }
  return out;
}

}  // namespace scd::trace
