// Analytic model of one DAS5 compute node (dual 8-core Xeon E5-2630v3,
// 2.4 GHz) and of the algorithm's kernel costs on it.
//
// Kernel constants are expressed in cycles per innermost-loop unit and
// were originally calibrated so that the modeled Table III stage times
// land near the published ones (see bench_phase_breakdown). They are
// deliberately coarse: the evaluation's conclusions rest on ratios, and
// the ratios are set by loop trip counts, which the simulator takes from
// the real algorithm structure.
//
// The defaults now reflect the fused kernels (core/kernels_simd.h): the
// pre-fusion constants were divided by the measured fused-vs-scalar
// cpu-time ratios from BENCH_kernels.json at K = 1024 (pair likelihood
// ~5.2x, phi gradient ~3.6x, theta ratio ~1.8x). seed_scalar_node()
// preserves the pre-fusion calibration for comparisons against the
// scalar baseline.
#pragma once

#include <cstdint>

#include "util/error.h"

namespace scd::comm {

struct ComputeModel {
  /// Core clock of the modeled node.
  double clock_hz = 2.4e9;

  /// Worker threads used per node (the paper uses all 16 cores).
  unsigned threads_per_node = 16;

  /// Parallel efficiency of the OpenMP sections (memory-bound kernels do
  /// not scale perfectly across 16 cores).
  double thread_efficiency = 0.85;

  /// Local memory bandwidth for in-node row loads (vertical-scaling mode
  /// reads pi from RAM instead of the network).
  double mem_bandwidth_Bps = 40e9;

  // -- Kernel constants (cycles per unit) ---------------------------------
  /// update_phi: one (vertex, neighbor, community) unit of Eqns 5-6.
  /// Pre-fusion 28.0; fused gradient kernel measured ~3.6x faster.
  double phi_unit_cycles = 8.0;
  /// update_beta: one (pair, community) unit of Eqns 3-4.
  /// Pre-fusion 25.0; fused theta-ratio kernel measured ~1.8x faster.
  double beta_unit_cycles = 14.0;
  /// update_pi: one (vertex, community) normalisation unit (unchanged by
  /// kernel fusion — it is a plain normalisation sweep).
  double pi_unit_cycles = 6.0;
  /// perplexity: one (held-out pair, community) unit of Eqn 7.
  /// Pre-fusion 14.0; fused pair likelihood measured ~5.2x faster.
  double perplexity_unit_cycles = 2.7;
  /// neighbor sampling: one drawn neighbor (RNG + binary search).
  double neighbor_unit_cycles = 40.0;
  /// master's serial theta/beta refresh, per (community, i) entry.
  double theta_unit_cycles = 60.0;
  /// Master-side minibatch drawing, per minibatch vertex (RNG, hash
  /// probes, adjacency gathering). Calibrated against the 45.6 ms
  /// draw/deploy row of Table III (M = 16384).
  double draw_cost_per_vertex_s = 2.5e-6;

  /// Seconds for `units` kernel units on one node using its thread pool.
  double kernel_time(double units, double cycles_per_unit) const {
    const double cycles = units * cycles_per_unit;
    const double effective =
        clock_hz * static_cast<double>(threads_per_node) * thread_efficiency;
    return cycles / effective;
  }

  /// Seconds for a *serial* section (e.g. the master's K-step beta
  /// normalisation).
  double serial_time(double units, double cycles_per_unit) const {
    return units * cycles_per_unit / clock_hz;
  }

  /// Seconds to stream `bytes` from local memory.
  double local_bytes_time(std::uint64_t bytes) const {
    return static_cast<double>(bytes) / mem_bandwidth_Bps;
  }

  void validate() const {
    SCD_REQUIRE(clock_hz > 0 && threads_per_node >= 1, "invalid compute model");
    SCD_REQUIRE(thread_efficiency > 0 && thread_efficiency <= 1.0,
                "thread_efficiency must be in (0, 1]");
  }
};

/// The 40-core, 2.0 GHz E7-4850 HPC Cloud machine of Section IV-D.
inline ComputeModel hpc_cloud_node(unsigned cores = 40) {
  ComputeModel m;
  m.clock_hz = 2.0e9;
  m.threads_per_node = cores;
  // 40-core NUMA box: slightly worse scaling than a 16-core node.
  m.thread_efficiency = 0.75;
  m.mem_bandwidth_Bps = 60e9;
  return m;
}

/// One 16-core DAS5 node (the default model).
inline ComputeModel das5_node(unsigned threads = 16) {
  ComputeModel m;
  m.threads_per_node = threads;
  return m;
}

/// A DAS5 node running the pre-fusion scalar kernels: the original
/// Table III calibration, kept for before/after comparisons against the
/// fused-kernel defaults above.
inline ComputeModel seed_scalar_node(unsigned threads = 16) {
  ComputeModel m;
  m.threads_per_node = threads;
  m.phi_unit_cycles = 28.0;
  m.beta_unit_cycles = 25.0;
  m.perplexity_unit_cycles = 14.0;
  return m;
}

}  // namespace scd::comm
