// The search loop: deterministic greedy coordinate descent over the
// grid, with attribution-based pruning cutting candidate directions
// before they are probed.
//
// Each round starts by asking the pruner what the current best probe's
// critical path rules out, then sweeps the dimensions in enum order,
// probing every unpruned candidate along one dimension while the others
// stay fixed, and moving to the best point found. Probes are memoized
// by grid index, so revisits are free; the loop ends when a full round
// makes no move (or after kMaxRounds). Everything — sweep order,
// tie-breaks (lowest index wins), probe costs — is deterministic, so
// tune() is bit-stable for a fixed workload and space.
#pragma once

#include <cstdint>
#include <vector>

#include "tune/probe.h"
#include "tune/pruner.h"
#include "tune/search_space.h"

namespace scd::tune {

/// A pruning decision stamped with the round whose best-probe
/// attribution produced it.
struct PruneRecord {
  std::uint64_t round = 0;
  PruneDecision decision;
};

struct TuneResult {
  SearchSpace space;
  /// The winning probe (lowest objective seen).
  ProbeResult best;
  ConfigIndex best_index{};
  /// Every distinct probe executed, in execution order. probes.front()
  /// is the starting configuration (index all-zeros), so
  /// probes.front().objective / best.objective is the tuned speedup.
  std::vector<ProbeResult> probes;
  /// Every pruning decision taken, in order.
  std::vector<PruneRecord> prunes;
  std::uint64_t grid_size = 0;
  std::uint64_t rounds = 0;

  double probe_fraction() const {
    return grid_size > 0
               ? static_cast<double>(probes.size()) /
                     static_cast<double>(grid_size)
               : 0.0;
  }
};

/// Hard stop on coordinate-descent rounds; convergence (a moveless
/// round) usually ends the search in 2-3.
inline constexpr std::uint64_t kMaxRounds = 8;

/// Search `space` for the configuration minimizing ProbeResult::objective
/// on `workload`, starting from index all-zeros (by convention the
/// default / mis-configured corner of the grid).
TuneResult tune(const TuneWorkload& workload, const SearchSpace& space);

}  // namespace scd::tune
