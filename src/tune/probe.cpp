#include "tune/probe.h"

#include <cmath>

#include "core/distributed_sampler.h"
#include "core/hyper.h"
#include "sim/cluster.h"
#include "trace/critical_path.h"
#include "trace/recorder.h"
#include "util/error.h"

namespace scd::tune {

void TuneWorkload::validate() const {
  SCD_REQUIRE(num_vertices >= 2, "tune workload: need >= 2 vertices");
  SCD_REQUIRE(std::isfinite(avg_degree) && avg_degree > 0.0 &&
                  avg_degree <= static_cast<double>(num_vertices - 1),
              "tune workload: avg_degree must be finite and in (0, N - 1]");
  SCD_REQUIRE(num_communities >= 1, "tune workload: need >= 1 community");
  SCD_REQUIRE(num_neighbors >= 1, "tune workload: need >= 1 neighbor");
  SCD_REQUIRE(probe_iterations >= 1, "tune workload: need >= 1 iteration");
  SCD_REQUIRE(std::isfinite(sat_vertices) && sat_vertices > 0.0,
              "tune workload: sat_vertices must be finite and > 0");
  network.validate();
  compute.validate();
}

double progress(double minibatch_vertices, double sat_vertices) {
  return minibatch_vertices / (minibatch_vertices + sat_vertices);
}

ProbeResult run_probe(const TuneWorkload& workload,
                      const TuneConfig& config) {
  workload.validate();
  SCD_REQUIRE(config.workers >= 1, "probe: need >= 1 worker");

  sim::SimCluster::Config cc;
  cc.num_ranks = config.workers + 1;
  cc.network = workload.network;
  cc.compute = workload.compute;
  cc.compute.threads_per_node = config.threads_per_node;
  sim::SimCluster cluster(cc);

  core::Hyper hyper;
  hyper.num_communities = workload.num_communities;

  core::PhantomWorkload phantom;
  phantom.num_vertices = workload.num_vertices;
  phantom.avg_degree = workload.avg_degree;
  phantom.minibatch_vertices = config.minibatch_vertices;
  phantom.minibatch_pairs = config.minibatch_vertices / 2;
  phantom.heldout_pairs = 0;  // probes never evaluate perplexity

  trace::TraceRecorder recorder(cc.num_ranks);
  core::DistributedOptions options;
  options.base.num_neighbors = workload.num_neighbors;
  options.base.eval_interval = 0;
  options.base.seed = workload.seed;
  options.pipeline = config.pipeline;
  options.pi_codec = config.pi_codec;
  if (config.sparse_eps > 0.0) {
    // Sparsity > 0 lifts the dense value codec to its sparse variant.
    options.pi_codec = quant::sparse_codec_for(config.pi_codec);
    options.sparse_eps = static_cast<float>(config.sparse_eps);
  }
  options.trace = &recorder;

  core::DistributedSampler sampler(cluster, phantom, hyper, options);
  const core::DistributedResult run = sampler.run(workload.probe_iterations);
  const trace::CriticalPathReport path =
      trace::analyze_critical_path(recorder);

  ProbeResult r;
  r.config = config;
  r.virtual_s = run.virtual_seconds;
  r.per_iteration_s = run.avg_iteration_seconds;
  r.objective =
      r.per_iteration_s /
      progress(static_cast<double>(config.minibatch_vertices),
               workload.sat_vertices);
  r.on_path_s = path.on_path_s;

  // The kUpdatePhi span wraps the whole pi-load/compute pipeline (the
  // two overlap under double buffering, so no span can separate them);
  // PhaseStats still books the un-overlapped load and compute totals, so
  // their ratio splits the on-path share.
  const double load = run.critical_path.get(comm::Phase::kLoadPi);
  const double comp = run.critical_path.get(comm::Phase::kUpdatePhi);
  const double phi_on_path = r.on_path(trace::Stage::kUpdatePhi) +
                             r.on_path(trace::Stage::kLoadPi);
  const double load_frac = load + comp > 0.0 ? load / (load + comp) : 0.0;
  r.phi_load_s = phi_on_path * load_frac;
  r.phi_compute_s = phi_on_path - r.phi_load_s;

  const double total = r.virtual_s > 0.0 ? r.virtual_s : 1.0;
  r.comm_share = (r.on_path(trace::Stage::kDeployMinibatch) +
                  r.on_path(trace::Stage::kNetwork) +
                  r.on_path(trace::Stage::kCollective) +
                  r.on_path(trace::Stage::kBarrierWait) + r.phi_load_s) /
                 total;
  // update_beta's embedded pair-row loads are classified as compute here:
  // the kUpdateBetaTheta span does not separate them, and the pruner
  // only needs the coarse compute-vs-comm split to pick directions.
  r.compute_share = (r.on_path(trace::Stage::kDrawMinibatch) +
                     r.on_path(trace::Stage::kSampleNeighbors) +
                     r.phi_compute_s +
                     r.on_path(trace::Stage::kUpdatePi) +
                     r.on_path(trace::Stage::kUpdateBetaTheta) +
                     r.on_path(trace::Stage::kPerplexity)) /
                    total;

  r.metrics_json = recorder.metrics().to_json();
  return r;
}

}  // namespace scd::tune
