// Minibatch construction for the SG-MCMC sampler.
//
// Two strategies from the underlying algorithm paper [16]:
//
//  * kRandomPair — E_n is a uniform sample of vertex pairs from E (all
//    pairs), h(E_n) = |pairs| / |E_n|. Simple, higher-variance.
//
//  * kStratifiedRandomNode — pick a vertex a uniformly. With probability
//    1/2 the minibatch is all of a's *link* edges with h = N; otherwise it
//    is a 1/m sample of a's non-link pairs with h = N*m. This estimator is
//    unbiased for the full-graph gradient sum (see tests) and gives far
//    lower variance on sparse graphs — it is the strategy behind the
//    paper's headline runs.
//
// Held-out pairs are excluded from minibatches (they would leak the test
// set into training). Neighbor sampling (V_n, Eqn 5) is uniform over
// V \ {a}; held-out exclusion is deliberately skipped there because a
// worker in the distributed design only owns the adjacency of its
// minibatch vertices — matching the paper's data distribution — and the
// induced bias is O(|E_h| / N^2).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.h"
#include "graph/heldout.h"
#include "random/xoshiro.h"

namespace scd::graph {

struct MinibatchPair {
  Vertex a = 0;
  Vertex b = 0;
  bool link = false;
};

struct Minibatch {
  std::vector<MinibatchPair> pairs;
  /// h(E_n): multiplier scaling the minibatch gradient sum to the full
  /// graph (Eqn 3).
  double scale = 1.0;
  /// Unique vertices of the minibatch, sorted — the set Algorithm 1
  /// iterates for the phi updates; M = vertices.size().
  std::vector<Vertex> vertices;
};

enum class MinibatchStrategy { kRandomPair, kStratifiedRandomNode };

/// One bit per vertex for the rejection loops of the anchored draws
/// (stratified non-links, link-aware neighbors): a draw sets the bits of
/// the anchor's links, tests and sets one bit per candidate, and before
/// returning zeroes the words it touched, so the map is all clear
/// between draws and a draw costs O(links + candidates), not O(N).
/// Grow-only: reserve(N) once up front, or the first draw sizes it.
class VertexBitmap {
 public:
  void reserve(Vertex num_vertices) {
    const std::size_t words = (std::size_t{num_vertices} + 63) / 64;
    if (words_.size() < words) words_.resize(words, 0);
  }
  bool test(Vertex v) const { return (words_[v >> 6] >> (v & 63)) & 1; }
  void set(Vertex v) { words_[v >> 6] |= std::uint64_t{1} << (v & 63); }
  /// Zero the whole word holding v's bit.
  void clear_word(Vertex v) { words_[v >> 6] = 0; }
  std::span<const std::uint64_t> words() const { return words_; }

 private:
  std::vector<std::uint64_t> words_;
};

/// Reusable scratch for MinibatchSampler::draw_into. Construct once, pass
/// to every draw; no steady-state allocation after the first few draws
/// warm its capacity.
struct MinibatchScratch {
  /// Dedup set of the random-pair draw.
  EdgeSet chosen{16};
  /// The anchor's links and drawn non-links of the stratified draw.
  VertexBitmap marks;
};

class MinibatchSampler {
 public:
  struct Options {
    MinibatchStrategy strategy = MinibatchStrategy::kStratifiedRandomNode;
    /// kRandomPair: number of pairs per minibatch.
    std::size_t num_pairs = 32;
    /// kStratifiedRandomNode: number of non-link partitions m.
    std::size_t nonlink_partitions = 16;
  };

  /// `heldout` may be null (no exclusions). The graph must be the
  /// *training* graph.
  MinibatchSampler(const Graph& training, const HeldOutSplit* heldout,
                   Options options);

  Minibatch draw(rng::Xoshiro256& rng) const;

  /// Allocation-free draw: refills `mb` (clearing previous contents,
  /// reusing vector/EdgeSet capacity) using `scratch` for dedup state.
  /// Identical output and rng consumption to draw().
  void draw_into(rng::Xoshiro256& rng, Minibatch& mb,
                 MinibatchScratch& scratch) const;

  /// Upper bound on pairs a draw can produce — for reserving Minibatch
  /// capacity up front so draw_into never reallocates. Stratified-node
  /// minibatches are bounded by max(max_degree, ceil((N-1)/m)).
  std::size_t max_pairs_bound() const;

  /// Capacity bound for Minibatch::vertices: finalization stages both
  /// endpoints of every pair before dedup, so 2 * max_pairs_bound().
  std::size_t max_vertices_bound() const;

  const Options& options() const { return options_; }

 private:
  void draw_random_pair_into(rng::Xoshiro256& rng, Minibatch& mb,
                             MinibatchScratch& scratch) const;
  void draw_stratified_node_into(rng::Xoshiro256& rng, Minibatch& mb,
                                 MinibatchScratch& scratch) const;
  bool excluded(Vertex a, Vertex b) const {
    return heldout_ != nullptr && heldout_->is_held_out(a, b);
  }

  const Graph& graph_;
  const HeldOutSplit* heldout_;
  Options options_;
};

/// One sampled neighbor b for a minibatch vertex a, with the training-set
/// link indicator y_ab.
struct NeighborSample {
  Vertex b = 0;
  bool link = false;
};

/// Draw `count` distinct neighbors for `a` uniformly from V \ {a}.
/// `adj_a` is a's sorted training adjacency (the only graph data a
/// distributed worker owns for a).
std::vector<NeighborSample> sample_neighbors(rng::Xoshiro256& rng,
                                             Vertex num_vertices, Vertex a,
                                             std::span<const Vertex> adj_a,
                                             std::size_t count);

/// How the neighbor set V_n of Eqn 5 is formed. kUniform is Eqn 5
/// verbatim (|V_n| nodes uniform from V \ {a}, whole sum scaled N/|V_n|);
/// kLinkAware takes all of a's links exactly plus a scaled uniform
/// non-link sample — also unbiased, with the link term's variance
/// removed, which sparse graphs need in practice (see core/options.h).
enum class NeighborMode { kUniform, kLinkAware };

/// A drawn neighbor set with its gradient weighting: the full-graph
/// neighbor sum is estimated by
///   sum_{i < exact_prefix} g_i + sampled_scale * sum_{i >= exact_prefix} g_i.
struct NeighborSet {
  std::vector<NeighborSample> samples;
  std::size_t exact_prefix = 0;
  double sampled_scale = 1.0;
};

/// Link-aware neighbor set: all links of a (exact prefix) followed by
/// `count` distinct uniform non-links with scale (N-1-deg)/count.
NeighborSet sample_neighbors_link_aware(rng::Xoshiro256& rng,
                                        Vertex num_vertices, Vertex a,
                                        std::span<const Vertex> adj_a,
                                        std::size_t count);

/// Mode dispatch: kUniform wraps sample_neighbors with exact_prefix = 0
/// and sampled_scale = N/count.
NeighborSet draw_neighbor_set(rng::Xoshiro256& rng, NeighborMode mode,
                              Vertex num_vertices, Vertex a,
                              std::span<const Vertex> adj_a,
                              std::size_t count);

/// Reusable per-thread scratch for draw_neighbor_set_into.
struct NeighborScratch {
  /// Raw Floyd draws for the uniform mode.
  std::vector<std::uint64_t> raw;
  /// The vertex's links and drawn non-links, for the link-aware
  /// rejection loop.
  VertexBitmap marks;
};

/// Allocation-free form of draw_neighbor_set: refills `set` reusing its
/// capacity. Identical output and rng consumption. Reserve
/// set.samples.capacity() >= max_degree + count once to make subsequent
/// calls allocation-free.
void draw_neighbor_set_into(rng::Xoshiro256& rng, NeighborMode mode,
                            Vertex num_vertices, Vertex a,
                            std::span<const Vertex> adj_a, std::size_t count,
                            NeighborSet& set, NeighborScratch& scratch);

}  // namespace scd::graph
