// SPMD runner for the virtual-time cluster — the simulated
// implementation of the backend-neutral comm::Cluster/Context seam.
//
// SimCluster owns the clocks, transport, and per-rank phase statistics,
// and executes a rank function on one real thread per simulated node.
// Computation inside the rank function is real; RankContext::charge_* is
// how the function reports what that computation *would have cost* on the
// modeled node, in modeled-kernel terms.
#pragma once

#include <functional>
#include <vector>

#include "comm/clock.h"
#include "comm/cluster.h"
#include "comm/context.h"
#include "comm/fault_hooks.h"
#include "comm/network_model.h"
#include "comm/phase_stats.h"
#include "comm/trace_span.h"
#include "sim/compute_model.h"
#include "sim/transport.h"

namespace scd::sim {

class SimCluster;

/// Handed to each rank's function; the sole interface rank code needs.
class RankContext final : public comm::Context {
 public:
  RankContext(unsigned rank, SimCluster& cluster);

  unsigned rank() const override { return rank_; }
  unsigned num_ranks() const override;
  bool simulated() const override { return true; }

  SimTransport& transport() override;
  comm::VirtualClock& clock();
  const comm::NetworkModel& network() const override;
  const ComputeModel& compute() const override;
  comm::PhaseStats& stats() override;

  double now() const override;
  void advance(double seconds) override;
  void advance_to(double t) override;

  /// Book already-elapsed virtual time without advancing the clock (the
  /// clock moved through the transport or an explicit advance).
  void book(comm::Phase p, double seconds) override;

  /// Advance this rank's clock by `seconds` and book it to phase `p`.
  void charge(comm::Phase p, double seconds) override;

  /// Enter a barrier, separately booking productive arrival vs idle wait.
  void timed_barrier(unsigned channel = 0, unsigned participants = 0) override;

  /// The cluster's trace recorder, or nullptr when tracing is off.
  trace::TraceRecorder* trace() const override;

  /// Open an RAII span on this rank's lane; a no-op scope when tracing
  /// is off. Defined after SimCluster below.
  comm::TraceSpan trace_span(trace::Stage s,
                             std::uint64_t iteration = 0) override;
  using comm::Context::trace_span;  // the Phase overload

 private:
  unsigned rank_;
  SimCluster& cluster_;
};

class SimCluster final : public comm::Cluster {
 public:
  struct Config {
    unsigned num_ranks = 1;
    comm::NetworkModel network{};
    ComputeModel compute{};
  };

  explicit SimCluster(const Config& config);

  unsigned num_ranks() const override { return config_.num_ranks; }
  bool simulated() const override { return true; }
  const Config& config() const { return config_; }

  /// Run `fn` as rank 0..num_ranks-1, each on its own thread. Blocks until
  /// all complete; rethrows the first exception after aborting the rest.
  void run(const std::function<void(RankContext&)>& fn);
  void run(const std::function<void(comm::Context&)>& fn) override;

  /// Largest clock across ranks — the wall-clock of the simulated run.
  double max_clock() const override;

  const comm::PhaseStats& stats(unsigned rank) const override {
    return stats_[rank];
  }
  comm::PhaseStats& stats(unsigned rank) { return stats_[rank]; }

  /// Critical-path view: per-phase max over ranks.
  comm::PhaseStats max_stats() const override;

  /// Reset clocks and stats for a fresh measurement on the same cluster.
  void reset();

  SimTransport& transport() override { return *transport_; }
  comm::VirtualClock& clock(unsigned rank) { return clocks_[rank]; }
  const std::vector<comm::VirtualClock>& clocks() const { return clocks_; }
  const std::vector<comm::VirtualClock>* rank_clocks() const override {
    return &clocks_;
  }
  const comm::NetworkModel& network() const override { return config_.network; }
  const ComputeModel& compute_model() const override {
    return config_.compute;
  }

  /// Build a SimRdmaDkv priced by this cluster's models.
  std::unique_ptr<dkv::ShardedDkv> make_store(
      const comm::StoreConfig& config) override;

  /// Install (or clear, with nullptr) fault-injection hooks on the
  /// cluster and its transport. Survives reset(). The hooks must outlive
  /// the installation; pass nullptr before destroying them.
  void install_fault_hooks(comm::FaultHooks* hooks) override;
  comm::FaultHooks* fault_hooks() const { return fault_; }

  /// Install (or clear, with nullptr) a trace recorder on the cluster
  /// and its transport. Survives reset(). The recorder must outlive the
  /// installation and have at least num_ranks() lanes.
  void install_trace(trace::TraceRecorder* recorder) override;
  trace::TraceRecorder* trace_recorder() const { return trace_; }

 private:
  Config config_;
  std::vector<comm::VirtualClock> clocks_;
  std::vector<comm::PhaseStats> stats_;
  std::unique_ptr<SimTransport> transport_;
  comm::FaultHooks* fault_ = nullptr;
  trace::TraceRecorder* trace_ = nullptr;
};

inline trace::TraceRecorder* RankContext::trace() const {
  return cluster_.trace_recorder();
}

inline comm::TraceSpan RankContext::trace_span(trace::Stage s,
                                         std::uint64_t iteration) {
  return comm::TraceSpan(cluster_.trace_recorder(), rank_, s,
                   cluster_.clock(rank_), iteration);
}

}  // namespace scd::sim
