#include "sim/cluster.h"

#include <algorithm>
#include <exception>
#include <mutex>
#include <thread>

#include "dkv/sim_rdma_dkv.h"
#include "util/error.h"

namespace scd::sim {

RankContext::RankContext(unsigned rank, SimCluster& cluster)
    : rank_(rank), cluster_(cluster) {}

unsigned RankContext::num_ranks() const { return cluster_.num_ranks(); }
SimTransport& RankContext::transport() { return cluster_.transport(); }
comm::VirtualClock& RankContext::clock() { return cluster_.clock(rank_); }
const comm::NetworkModel& RankContext::network() const {
  return cluster_.network();
}
const ComputeModel& RankContext::compute() const {
  return cluster_.compute_model();
}
comm::PhaseStats& RankContext::stats() { return cluster_.stats(rank_); }

double RankContext::now() const { return cluster_.clock(rank_).now(); }
void RankContext::advance(double seconds) { clock().advance(seconds); }
void RankContext::advance_to(double t) { clock().advance_to(t); }

void RankContext::book(comm::Phase p, double seconds) {
  stats().add(p, seconds);
}

void RankContext::charge(comm::Phase p, double seconds) {
  // Straggler windows from an installed fault plan dilate this rank's
  // compute; the factor is 1 (and the branch never taken) otherwise.
  if (const comm::FaultHooks* hooks = cluster_.fault_hooks()) {
    seconds *= hooks->compute_factor(rank_, clock().now());
  }
  clock().advance(seconds);
  stats().add(p, seconds);
}

void RankContext::timed_barrier(unsigned channel, unsigned participants) {
  const double before = clock().now();
  transport().barrier(rank_, channel, participants);
  stats().add(comm::Phase::kBarrierWait, clock().now() - before);
}

SimCluster::SimCluster(const Config& config) : config_(config) {
  SCD_REQUIRE(config.num_ranks >= 1, "cluster needs at least one rank");
  config_.network.validate();
  config_.compute.validate();
  clocks_.resize(config.num_ranks);
  stats_.resize(config.num_ranks);
  transport_ = std::make_unique<SimTransport>(config.num_ranks,
                                              config_.network, clocks_);
}

void SimCluster::run(const std::function<void(RankContext&)>& fn) {
  if (config_.num_ranks == 1) {
    RankContext ctx(0, *this);
    fn(ctx);
    return;
  }
  std::mutex error_mu;
  std::exception_ptr first_error;
  std::vector<std::thread> threads;
  threads.reserve(config_.num_ranks);
  for (unsigned r = 0; r < config_.num_ranks; ++r) {
    threads.emplace_back([this, r, &fn, &error_mu, &first_error] {
      try {
        RankContext ctx(r, *this);
        fn(ctx);
      } catch (...) {
        {
          std::lock_guard<std::mutex> lock(error_mu);
          if (!first_error) first_error = std::current_exception();
        }
        // Unblock peers stuck in recv/collectives so the run terminates.
        transport_->abort_all();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  if (first_error) std::rethrow_exception(first_error);
}

void SimCluster::run(const std::function<void(comm::Context&)>& fn) {
  run(std::function<void(RankContext&)>(
      [&fn](RankContext& ctx) { fn(ctx); }));
}

std::unique_ptr<dkv::ShardedDkv> SimCluster::make_store(
    const comm::StoreConfig& config) {
  SCD_REQUIRE(config_.num_ranks >= 2,
              "a sharded store needs at least one worker rank");
  return std::make_unique<dkv::SimRdmaDkv>(
      config.num_rows, config.row_width, config_.num_ranks - 1,
      config_.network, config_.compute, config.phantom, config.codec,
      config.sparse_eps);
}

double SimCluster::max_clock() const {
  double best = 0.0;
  for (const comm::VirtualClock& c : clocks_) best = std::max(best, c.now());
  return best;
}

comm::PhaseStats SimCluster::max_stats() const {
  comm::PhaseStats out;
  for (const comm::PhaseStats& s : stats_) out.max_with(s);
  return out;
}

void SimCluster::reset() {
  for (comm::VirtualClock& c : clocks_) c.reset();
  for (comm::PhaseStats& s : stats_) s.clear();
  // Transport NIC state is timing-only; rebuild for a clean slate.
  transport_ = std::make_unique<SimTransport>(config_.num_ranks,
                                              config_.network, clocks_);
  transport_->install_fault_hooks(fault_);
  transport_->install_trace(trace_);
}

void SimCluster::install_fault_hooks(comm::FaultHooks* hooks) {
  fault_ = hooks;
  transport_->install_fault_hooks(hooks);
}

void SimCluster::install_trace(trace::TraceRecorder* recorder) {
  SCD_REQUIRE(recorder == nullptr ||
                  recorder->num_lanes() >= config_.num_ranks,
              "trace recorder needs a lane per rank");
  trace_ = recorder;
  transport_->install_trace(recorder);
}

}  // namespace scd::sim
