#include "tune/pruner.h"

#include <cstdio>

namespace scd::tune {

namespace {

std::string pct(double share) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.1f%%", share * 100.0);
  return buf;
}

PruneDecision make(Dim dim, bool upward, const char* rule,
                   const char* share_name, double share, double threshold,
                   std::string why) {
  PruneDecision d;
  d.dim = dim;
  d.upward = upward;
  d.rule = rule;
  d.cited_share_name = share_name;
  d.cited_share = share;
  d.threshold = threshold;
  d.why = std::move(why);
  return d;
}

}  // namespace

std::vector<PruneDecision> prune_directions(const ProbeResult& probe) {
  const PruneRules& rules = kPruneRules;
  std::vector<PruneDecision> out;
  const double total = probe.virtual_s > 0.0 ? probe.virtual_s : 1.0;

  // 1. Synchronization dominates: every extra worker adds collective
  // fan-in and barrier skew, so larger cluster sizes cannot win.
  const double sync_share = probe.share(trace::Stage::kCollective) +
                            probe.share(trace::Stage::kBarrierWait) +
                            probe.share(trace::Stage::kNetwork);
  if (sync_share >= rules.sync_bound) {
    out.push_back(make(
        Dim::kWorkers, true, "sync-bound-workers-up", "sync_share",
        sync_share, rules.sync_bound,
        "collectives+barriers+network hold " + pct(sync_share) +
            " of the critical path (>= " + pct(rules.sync_bound) +
            "): more workers only deepen synchronization — not trying"
            " larger cluster sizes"));
  }

  // 2. Per-worker stages dominate: the path runs through work that
  // shrinks ~1/W, so fewer workers cannot win.
  const double worker_share = (probe.phi_load_s + probe.phi_compute_s) / total +
                              probe.share(trace::Stage::kSampleNeighbors) +
                              probe.share(trace::Stage::kUpdatePi) +
                              probe.share(trace::Stage::kUpdateBetaTheta);
  if (worker_share >= rules.worker_bound) {
    out.push_back(make(
        Dim::kWorkers, false, "worker-bound-workers-down", "worker_share",
        worker_share, rules.worker_bound,
        "per-worker stages hold " + pct(worker_share) +
            " of the critical path (>= " + pct(rules.worker_bound) +
            "): that work shrinks with cluster size — not trying fewer"
            " workers"));
  }

  // 3. Compute-bound: kernels own the path, so weaker nodes cannot win.
  if (probe.compute_share >= rules.compute_bound) {
    out.push_back(make(
        Dim::kThreadsPerNode, false, "compute-bound-threads-down",
        "compute_share", probe.compute_share, rules.compute_bound,
        "compute stages hold " + pct(probe.compute_share) +
            " of the critical path (>= " + pct(rules.compute_bound) +
            "): kernels scale with threads — not trying fewer"
            " threads/node"));
  }

  // 4. Communication-bound: kernels are nowhere on the path, so faster
  // nodes cannot win either.
  if (probe.compute_share <= rules.comm_bound) {
    out.push_back(make(
        Dim::kThreadsPerNode, true, "comm-bound-threads-up",
        "compute_share", probe.compute_share, rules.comm_bound,
        "compute stages hold only " + pct(probe.compute_share) +
            " of the critical path (<= " + pct(rules.comm_bound) +
            "): kernels are not the bottleneck — not trying more"
            " threads/node"));
  }

  // 5. Pipelining hides draw/deploy/pi-loads behind compute; if those
  // are already negligible there is nothing to hide.
  const double hideable = probe.share(trace::Stage::kDrawMinibatch) +
                          probe.share(trace::Stage::kDeployMinibatch) +
                          probe.phi_load_s / total;
  if (!probe.config.pipeline && hideable <= rules.hideable_floor) {
    out.push_back(make(
        Dim::kPipeline, true, "nothing-to-hide-pipeline-on",
        "hideable_share", hideable, rules.hideable_floor,
        "draw+deploy+pi-load hold only " + pct(hideable) +
            " of the critical path (<= " + pct(rules.hideable_floor) +
            "): pipelining has nothing to hide — not trying it"));
  }

  return out;
}

}  // namespace scd::tune
