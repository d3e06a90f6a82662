// Reusable ParallelSampler buffers for the steady-state iteration path.
//
// Everything one_iteration touches repeatedly — the minibatch and its
// dedup scratch, the staged phi rows, the theta ratio partials and
// gradient, and the per-thread kernel scratch — lives here, sized to
// conservative upper bounds at construction. After construction the
// sampler's one_iteration performs no heap allocation at all (verified
// by tests/core/zero_alloc_test.cpp with a counting allocator), so the
// iteration cost is pure compute + the paper's parallel structure, with
// no allocator noise in timings.
#pragma once

#include <cstdint>
#include <vector>

#include "core/phi_kernel.h"
#include "graph/graph.h"
#include "graph/minibatch.h"
#include "threading/thread_pool.h"

namespace scd::core {

/// Number of fixed accumulation blocks for the parallel theta-ratio
/// reduction. Block boundaries depend only on the pair count — never on
/// the thread count — and blocks are folded serially in index order, so
/// the theta update (and hence the whole trajectory) is bit-identical
/// for any number of threads.
inline constexpr std::size_t kThetaBlocks = 64;

/// Round a double count up to a whole cache line (64 B = 8 doubles) so
/// adjacent per-block partial slices never false-share.
inline constexpr std::size_t padded_doubles(std::size_t n) {
  return (n + 7) / 8 * 8;
}

/// Per-thread scratch: the phi kernel buffers plus a reusable neighbor
/// set and its draw scratch. Padded to a cache line because its vector
/// headers are rewritten for every vertex a thread runs.
struct alignas(threading::kCacheLineBytes) ThreadSlot {
  PhiScratch phi;
  graph::NeighborSet set;
  graph::NeighborScratch nbr;
  /// The first minibatch index whose phi step diverged on this thread in
  /// the current iteration, or ~0 for none.
  std::uint64_t first_diverged = ~std::uint64_t{0};

  explicit ThreadSlot(std::uint32_t k) : phi(k) {}
};

struct IterationWorkspace {
  graph::Minibatch mb;
  graph::MinibatchScratch mb_scratch;
  /// Staged [pi | phi_sum] rows, mb.vertices.size() x row_width.
  std::vector<float> staged;
  /// Folded theta ratios: [link | nonlink], each k wide.
  std::vector<double> ratios;
  /// Assembled theta gradient, 2k wide.
  std::vector<double> theta_grad;
  /// Doubles per theta partial slice: 2k, padded to a cache line.
  std::size_t theta_stride;
  /// kThetaBlocks partial slices of `theta_stride` doubles each (layout
  /// as `ratios`).
  std::vector<double> theta_partials;
  std::vector<ThreadSlot> slots;

  IterationWorkspace(const graph::Graph& graph,
                     const graph::MinibatchSampler& minibatch,
                     std::uint32_t k, std::size_t row_width,
                     unsigned num_threads, std::size_t num_neighbors)
      : ratios(std::size_t{k} * 2, 0.0),
        theta_grad(std::size_t{k} * 2, 0.0),
        theta_stride(padded_doubles(std::size_t{k} * 2)),
        theta_partials(kThetaBlocks * theta_stride, 0.0) {
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
    staged.reserve(max_vertices * row_width);
    const std::size_t max_neighbors =
        static_cast<std::size_t>(graph.max_degree()) + num_neighbors;
    slots.reserve(num_threads);
    for (unsigned t = 0; t < num_threads; ++t) {
      ThreadSlot& slot = slots.emplace_back(k);
      slot.set.samples.reserve(max_neighbors);
      slot.nbr.raw.reserve(num_neighbors);
      slot.nbr.marks.reserve(graph.num_vertices());
    }
  }
};

}  // namespace scd::core
