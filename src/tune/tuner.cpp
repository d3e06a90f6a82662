#include "tune/tuner.h"

#include <map>

namespace scd::tune {

namespace {

/// Is candidate index `j` along `dim` ruled out relative to the current
/// index `cur_j` by any of this round's decisions?
bool is_pruned(const std::vector<PruneDecision>& decisions, Dim dim,
               std::size_t j, std::size_t cur_j) {
  for (const PruneDecision& d : decisions) {
    if (d.dim != dim) continue;
    if (d.upward ? j > cur_j : j < cur_j) return true;
  }
  return false;
}

}  // namespace

TuneResult tune(const TuneWorkload& workload, const SearchSpace& space) {
  space.validate();
  workload.validate();

  TuneResult result;
  result.space = space;
  result.grid_size = space.grid_size();

  // Memoized probe execution: one run per distinct grid index, ever.
  std::map<ConfigIndex, std::size_t> memo;
  std::vector<ConfigIndex> probe_indices;
  auto probe_pos = [&](const ConfigIndex& index) -> std::size_t {
    auto it = memo.find(index);
    if (it == memo.end()) {
      result.probes.push_back(run_probe(workload, space.materialize(index)));
      probe_indices.push_back(index);
      it = memo.emplace(index, result.probes.size() - 1).first;
    }
    return it->second;
  };

  // Start at the all-zeros corner — by convention the grid lists the
  // incumbent/default value first in every dimension.
  ConfigIndex cur{};
  std::size_t cur_pos = probe_pos(cur);

  for (std::uint64_t round = 1; round <= kMaxRounds; ++round) {
    result.rounds = round;
    // One attribution read per round, taken at the round's starting
    // point; its decisions prune candidates for every sweep below.
    const std::vector<PruneDecision> decisions =
        prune_directions(result.probes[cur_pos]);
    for (const PruneDecision& d : decisions) {
      result.prunes.push_back(PruneRecord{round, d});
    }

    bool moved = false;
    for (std::size_t di = 0; di < kNumDims; ++di) {
      const Dim dim = static_cast<Dim>(di);
      const std::size_t n = space.dim(dim).size();
      if (n <= 1) continue;
      std::size_t best_j = cur[di];
      double best_objective = result.probes[cur_pos].objective;
      for (std::size_t j = 0; j < n; ++j) {
        if (j == cur[di] || is_pruned(decisions, dim, j, cur[di])) continue;
        ConfigIndex candidate = cur;
        candidate[di] = j;
        const std::size_t pos = probe_pos(candidate);
        // Strict improvement only: ties keep the lower index (probed
        // first), so sweeps are order-independent of float noise.
        if (result.probes[pos].objective < best_objective) {
          best_objective = result.probes[pos].objective;
          best_j = j;
        }
      }
      if (best_j != cur[di]) {
        cur[di] = best_j;
        cur_pos = probe_pos(cur);
        moved = true;
      }
    }
    if (!moved) break;
  }

  // The descent endpoint is the minimum of everything probed, but take
  // the argmin explicitly so the invariant cannot silently rot.
  std::size_t best_pos = 0;
  for (std::size_t i = 1; i < result.probes.size(); ++i) {
    if (result.probes[i].objective < result.probes[best_pos].objective) {
      best_pos = i;
    }
  }
  result.best = result.probes[best_pos];
  result.best_index = probe_indices[best_pos];
  return result;
}

}  // namespace scd::tune
