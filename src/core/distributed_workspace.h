// Persistent per-rank buffers for the distributed sampler's steady
// state, mirroring IterationWorkspace for the in-process samplers: the
// master's deploy shares and reduce targets, the workers' neighbor
// sets, staged phi rows, DKV key/row buffers and dedup index. Each loop
// constructs its workspace once, sized to conservative bounds, and the
// iterations then run without heap allocation (verified by
// tests/core/zero_alloc_test.cpp), so modeled times measure the
// algorithm, not the allocator.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/deploy_share.h"
#include "core/phi_kernel.h"
#include "dkv/key_index.h"
#include "graph/minibatch.h"

namespace scd::core {

/// Master-side buffers: minibatch draw target + scratch, one reusable
/// DeployShare per worker, and the gathered sums.
struct MasterWorkspace {
  graph::Minibatch mb;
  graph::MinibatchScratch mb_scratch;
  std::vector<DeployShare> shares;  // one per worker
  std::vector<double> ratios;       // [link | nonlink], 2k
  std::vector<double> grad;         // theta gradient, 2k
  std::vector<double> eval_acc;     // [sum log avg, pair count]

  MasterWorkspace(std::uint32_t k, unsigned workers)
      : shares(workers),
        ratios(std::size_t{k} * 2, 0.0),
        grad(std::size_t{k} * 2, 0.0),
        eval_acc(2, 0.0) {}

  /// Real mode: pre-size the minibatch buffers and every worker share to
  /// its slice bound so the deploy path never reallocates.
  void reserve_real(const graph::Graph& graph,
                    const graph::MinibatchSampler& minibatch) {
    const std::size_t max_pairs = minibatch.max_pairs_bound();
    const std::size_t max_vertices = minibatch.max_vertices_bound();
    mb.pairs.reserve(max_pairs);
    mb.vertices.reserve(max_vertices);
    if (minibatch.options().strategy ==
        graph::MinibatchStrategy::kRandomPair) {
      mb_scratch.chosen.reset(max_pairs);
    } else {
      mb_scratch.marks.reserve(graph.num_vertices());
    }
    const std::size_t workers = shares.size();
    const std::size_t share_vertices = max_vertices / workers + 1;
    const std::size_t share_adjacency =
        std::min<std::size_t>(share_vertices * graph.max_degree(),
                              2 * graph.num_edges());
    const std::size_t share_pairs = max_pairs / workers + 1;
    for (DeployShare& share : shares) {
      share.reserve(share_vertices, share_adjacency, share_pairs);
    }
  }
};

/// Worker-side buffers for one rank's stages: deploy share, neighbor
/// sets, staged [pi | phi_sum] rows, DKV key/row buffers with the dedup
/// index, and the kernel scratch.
struct WorkerWorkspace {
  DeployShare share;
  std::vector<graph::NeighborSet> neighbor_sets;
  graph::NeighborScratch nbr_scratch;
  std::vector<float> staged;        // n_local x row_width
  std::vector<std::uint64_t> keys;  // row references of the current stage
  /// Fetched distinct rows, kept in the DKV's wire codec —
  /// value_bytes() per row; the enc kernels dequantize in-register.
  std::vector<std::byte> rows_enc;
  dkv::KeyIndex key_index;
  PhiScratch scratch;
  std::vector<double> ratios;    // [link | nonlink], 2k
  std::vector<double> eval_acc;  // [sum log avg, pair count]

  explicit WorkerWorkspace(std::uint32_t k)
      : scratch(k), ratios(std::size_t{k} * 2, 0.0), eval_acc(2, 0.0) {}

  /// Real mode: pre-size for this worker's slice bounds. `set_bound` is
  /// the largest neighbor set a vertex can draw (max_degree + n for
  /// link-aware sets), `stage_refs_bound` the most row references any
  /// single read stage can issue, `value_bytes` the store's encoded
  /// row size, `num_vertices` the graph's N.
  void reserve_real(std::size_t share_vertices, std::size_t share_adjacency,
                    std::size_t share_pairs, std::size_t row_width,
                    std::size_t value_bytes, std::size_t set_bound,
                    std::size_t stage_refs_bound, std::size_t num_neighbors,
                    graph::Vertex num_vertices) {
    share.reserve(share_vertices, share_adjacency, share_pairs);
    staged.reserve(share_vertices * row_width);
    keys.reserve(stage_refs_bound);
    rows_enc.reserve(stage_refs_bound * value_bytes);
    key_index.reserve(stage_refs_bound);
    nbr_scratch.raw.reserve(num_neighbors);
    nbr_scratch.marks.reserve(num_vertices);
    ensure_neighbor_sets(share_vertices, set_bound);
  }

  /// Grow-only: make sure `n` sets exist, each with capacity for
  /// `set_bound` samples, so refilling them draws no allocations.
  void ensure_neighbor_sets(std::size_t n, std::size_t set_bound) {
    const std::size_t old_size = neighbor_sets.size();
    if (n <= old_size) return;
    neighbor_sets.resize(n);
    for (std::size_t i = old_size; i < n; ++i) {
      neighbor_sets[i].samples.reserve(set_bound);
    }
  }
};

}  // namespace scd::core
