// Attribution-based pruning: turn a probe's critical-path shares into
// "never move dimension D in direction X" decisions.
//
// This is where observability becomes the search heuristic. Each rule
// reads a named share out of the ProbeResult (a critical-path stage
// share or the comm/compute split), compares it to a threshold, and —
// when it fires — rules out every candidate on one side of the current
// point along one dimension. Every decision records the share it cited,
// so the "why" report can trace each pruned direction back to the
// attribution that justified it (an acceptance criterion, not a
// nicety).
#pragma once

#include <string>
#include <vector>

#include "tune/probe.h"
#include "tune/search_space.h"

namespace scd::tune {

/// One pruned direction: along `dim`, candidates above (upward) or
/// below (!upward) the current index are ruled out.
struct PruneDecision {
  Dim dim{};
  bool upward = true;
  /// Stable rule identifier, e.g. "sync-bound-workers-up".
  std::string rule;
  /// The share the rule read, e.g. "sync_share" or "compute_share".
  std::string cited_share_name;
  double cited_share = 0.0;
  double threshold = 0.0;
  /// Human sentence: what was measured, against what threshold, and
  /// what it rules out.
  std::string why;
};

/// The rules' thresholds. They are deliberately conservative — a rule
/// should only fire when the attribution is unambiguous, because a
/// wrong prune costs optimality while a missing prune only costs probes.
struct PruneRules {
  double sync_bound = 0.60;      // collective+barrier+network share
  double worker_bound = 0.50;    // per-worker stage share
  double compute_bound = 0.60;   // compute_share
  double comm_bound = 0.10;      // compute_share floor
  double hideable_floor = 0.05;  // draw+deploy+load share
};

inline constexpr PruneRules kPruneRules{};

/// Evaluate every rule against `probe` at kPruneRules; decisions come
/// back in fixed rule order (deterministic, like everything else in the
/// tuner).
std::vector<PruneDecision> prune_directions(const ProbeResult& probe);

}  // namespace scd::tune
