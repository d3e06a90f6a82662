// One autotuner probe: a short, deterministic cost-only run of the
// distributed sampler at a candidate configuration, with the trace
// recorder installed so the probe comes back *attributed* — per-stage
// critical-path buckets and the metrics snapshot, not just a scalar
// time. The pruner reasons over those shares; the report writer prints
// them.
//
// Probes are seeded and virtual-time only: the same (workload, config)
// always produces bit-identical ProbeResults, which makes `scd tune`
// output byte-stable (the acceptance test diffs two full runs).
#pragma once

#include <array>
#include <cstdint>
#include <string>

#include "comm/network_model.h"
#include "sim/compute_model.h"
#include "trace/stage.h"
#include "tune/search_space.h"

namespace scd::tune {

/// The fixed (non-tuned) problem a tuning session optimizes for.
struct TuneWorkload {
  std::uint64_t num_vertices = 1'000'000;
  double avg_degree = 32.0;
  std::uint32_t num_communities = 1024;
  std::uint32_t num_neighbors = 32;
  /// Iterations per probe. Small: a probe is meant to cost milliseconds
  /// of real time; the steady-state per-iteration cost converges after
  /// the first pipelined iteration.
  std::uint64_t probe_iterations = 6;
  std::uint64_t seed = 1;
  /// Statistical saturation scale for the objective (below). Half of the
  /// per-iteration progress credit is reached at M = sat_vertices.
  double sat_vertices = 8192.0;
  comm::NetworkModel network{};
  sim::ComputeModel compute{};

  void validate() const;
};

/// Diminishing-returns credit for a minibatch of M vertices: M/(M+sat),
/// in (0, 1). Crude stand-in for the statistical efficiency of a bigger
/// minibatch (SG-MCMC mixing improves sublinearly in M); it exists so
/// "biggest M always wins" is not baked into the objective. Replace with
/// a measured mixing curve if one is ever calibrated.
double progress(double minibatch_vertices, double sat_vertices);

/// Everything one probe learned about one configuration.
struct ProbeResult {
  TuneConfig config{};
  /// Total virtual seconds of the probe run (all iterations).
  double virtual_s = 0.0;
  double per_iteration_s = 0.0;
  /// What the tuner minimizes: per-iteration virtual seconds divided by
  /// the progress() credit of the configured minibatch size.
  double objective = 0.0;
  /// Critical-path seconds per stage; sums to virtual_s.
  std::array<double, trace::kNumStages> on_path_s{};
  /// The kUpdatePhi span covers the overlapped load+compute pipeline;
  /// these split its on-path share by the PhaseStats load/compute ratio.
  double phi_load_s = 0.0;
  double phi_compute_s = 0.0;
  /// Fraction of virtual_s the chain spent moving or waiting on data
  /// (deploy, network, collectives, barriers, pi loads) vs computing.
  /// The two need not sum to 1: setup/untracked time belongs to neither.
  double comm_share = 0.0;
  double compute_share = 0.0;
  /// MetricsRegistry::to_json() snapshot of the probe.
  std::string metrics_json;

  double on_path(trace::Stage s) const {
    return on_path_s[static_cast<std::size_t>(s)];
  }
  /// Stage's share of total virtual time, in [0, 1].
  double share(trace::Stage s) const {
    return virtual_s > 0.0 ? on_path(s) / virtual_s : 0.0;
  }
};

/// Run one probe. Deterministic; safe to call from anywhere (builds its
/// own cluster and recorder).
ProbeResult run_probe(const TuneWorkload& workload, const TuneConfig& config);

}  // namespace scd::tune
