#include "graph/minibatch.h"

#include <algorithm>

#include "random/sampling.h"
#include "util/error.h"

namespace scd::graph {

namespace {

void sort_unique_vertices(Minibatch& mb) {
  std::sort(mb.vertices.begin(), mb.vertices.end());
  mb.vertices.erase(std::unique(mb.vertices.begin(), mb.vertices.end()),
                    mb.vertices.end());
}

void finalize_vertices(Minibatch& mb) {
  mb.vertices.clear();
  mb.vertices.reserve(mb.pairs.size() * 2);
  for (const MinibatchPair& p : mb.pairs) {
    mb.vertices.push_back(p.a);
    mb.vertices.push_back(p.b);
  }
  sort_unique_vertices(mb);
}

/// finalize_vertices for pairs that all share the anchor `a`.
void finalize_anchored_vertices(Minibatch& mb, Vertex a) {
  mb.vertices.clear();
  if (mb.pairs.empty()) return;
  mb.vertices.reserve(mb.pairs.size() + 1);
  mb.vertices.push_back(a);
  for (const MinibatchPair& p : mb.pairs) mb.vertices.push_back(p.b);
  sort_unique_vertices(mb);
}

}  // namespace

MinibatchSampler::MinibatchSampler(const Graph& training,
                                   const HeldOutSplit* heldout,
                                   Options options)
    : graph_(training), heldout_(heldout), options_(options) {
  SCD_REQUIRE(training.num_vertices() >= 2, "graph too small");
  if (options_.strategy == MinibatchStrategy::kRandomPair) {
    SCD_REQUIRE(options_.num_pairs >= 1, "minibatch needs >= 1 pair");
  } else {
    SCD_REQUIRE(options_.nonlink_partitions >= 1,
                "need >= 1 non-link partition");
  }
}

std::size_t MinibatchSampler::max_pairs_bound() const {
  if (options_.strategy == MinibatchStrategy::kRandomPair) {
    return options_.num_pairs;
  }
  const std::uint64_t n = graph_.num_vertices();
  const std::uint64_t m = options_.nonlink_partitions;
  // Non-link stratum wants ceil(num_nonlinks / m) <= ceil((n - 1) / m);
  // link stratum is bounded by the maximum degree.
  const std::uint64_t nonlink_want = (n - 1 + m - 1) / m;
  return static_cast<std::size_t>(
      std::max<std::uint64_t>(graph_.max_degree(), nonlink_want));
}

std::size_t MinibatchSampler::max_vertices_bound() const {
  return 2 * max_pairs_bound();
}

Minibatch MinibatchSampler::draw(rng::Xoshiro256& rng) const {
  Minibatch mb;
  MinibatchScratch scratch;
  draw_into(rng, mb, scratch);
  return mb;
}

void MinibatchSampler::draw_into(rng::Xoshiro256& rng, Minibatch& mb,
                                 MinibatchScratch& scratch) const {
  mb.pairs.clear();
  mb.vertices.clear();
  mb.scale = 1.0;
  if (options_.strategy == MinibatchStrategy::kRandomPair) {
    draw_random_pair_into(rng, mb, scratch);
  } else {
    draw_stratified_node_into(rng, mb, scratch);
  }
}

void MinibatchSampler::draw_random_pair_into(rng::Xoshiro256& rng,
                                             Minibatch& mb,
                                             MinibatchScratch& scratch) const {
  const Vertex n = graph_.num_vertices();
  mb.pairs.reserve(options_.num_pairs);
  EdgeSet& chosen = scratch.chosen;
  chosen.reset(options_.num_pairs);
  while (mb.pairs.size() < options_.num_pairs) {
    const auto [a64, b64] = rng::sample_distinct_pair(rng, n);
    const auto a = static_cast<Vertex>(a64);
    const auto b = static_cast<Vertex>(b64);
    if (excluded(a, b) || chosen.contains(a, b)) continue;
    chosen.insert(a, b);
    mb.pairs.push_back({a, b, graph_.has_edge(a, b)});
  }
  // Population is all pairs minus reserved held-out pairs.
  const double population =
      static_cast<double>(graph_.num_pairs()) -
      (heldout_ ? static_cast<double>(heldout_->pairs().size()) : 0.0);
  mb.scale = population / static_cast<double>(mb.pairs.size());
  finalize_vertices(mb);
}

void MinibatchSampler::draw_stratified_node_into(
    rng::Xoshiro256& rng, Minibatch& mb, MinibatchScratch& scratch) const {
  const Vertex n = graph_.num_vertices();
  const double nd = static_cast<double>(n);
  const auto a = static_cast<Vertex>(rng.next_below(n));

  if (rng.next_double() < 0.5) {
    // Link stratum: all training links of a. h = N.
    const auto nbrs = graph_.neighbors(a);
    mb.pairs.reserve(nbrs.size());
    for (Vertex b : nbrs) mb.pairs.push_back({a, b, true});
    mb.scale = nd;
  } else {
    // Non-link stratum: a ~1/m sample of a's non-link pairs. h = N * m.
    const std::size_t m = options_.nonlink_partitions;
    const std::uint64_t num_nonlinks =
        static_cast<std::uint64_t>(n) - 1 - graph_.degree(a);
    if (num_nonlinks == 0) {
      // a is connected to everyone (complete-graph corner): the stratum
      // is empty and contributes nothing this iteration.
      mb.scale = 0.0;
      return;
    }
    const std::size_t want = static_cast<std::size_t>(
        std::max<std::uint64_t>(1, (num_nonlinks + m - 1) / m));
    mb.pairs.reserve(want);
    // Rejection against links / held-out / duplicates; acceptance is high
    // because the graph is sparse. Links and accepted candidates are the
    // set bits of `marks`.
    VertexBitmap& marks = scratch.marks;
    marks.reserve(n);
    const auto nbrs = graph_.neighbors(a);
    for (Vertex b : nbrs) marks.set(b);
    std::size_t attempts = 0;
    const std::size_t max_attempts = 64 * want + 1024;
    while (mb.pairs.size() < want && attempts++ < max_attempts) {
      auto b = static_cast<Vertex>(rng.next_below(n - 1));
      if (b >= a) ++b;
      if (marks.test(b) || excluded(a, b)) continue;
      marks.set(b);
      mb.pairs.push_back({a, b, false});
    }
    for (Vertex b : nbrs) marks.clear_word(b);
    for (const MinibatchPair& p : mb.pairs) marks.clear_word(p.b);
    SCD_ASSERT(!mb.pairs.empty(), "non-link stratum came up empty");
    // Scale by the true inverse inclusion fraction rather than the nominal
    // m: keeps the estimator unbiased when `want` was clipped.
    mb.scale = nd * static_cast<double>(num_nonlinks) /
               static_cast<double>(mb.pairs.size());
  }
  finalize_anchored_vertices(mb, a);
}

namespace {

/// Shared body of the link-aware neighbor draw; fills `set` using
/// `marks` for the link and duplicate rejections.
void link_aware_into(rng::Xoshiro256& rng, Vertex num_vertices, Vertex a,
                     std::span<const Vertex> adj_a, std::size_t count,
                     NeighborSet& set, VertexBitmap& marks) {
  const std::uint64_t num_nonlinks =
      static_cast<std::uint64_t>(num_vertices) - 1 - adj_a.size();
  // A near-complete vertex may have fewer non-links than requested;
  // clamp rather than fail (the scale below stays exact).
  count = std::min<std::size_t>(count, num_nonlinks);
  set.samples.clear();
  set.exact_prefix = adj_a.size();
  set.samples.reserve(adj_a.size() + count);
  marks.reserve(num_vertices);
  for (Vertex b : adj_a) {
    marks.set(b);
    set.samples.push_back({b, true});
  }
  // Rejection against self, links, and duplicates: acceptance is high on
  // sparse graphs, and count <= num_nonlinks guarantees termination.
  while (set.samples.size() < set.exact_prefix + count) {
    auto b = static_cast<Vertex>(rng.next_below(num_vertices - 1));
    if (b >= a) ++b;
    if (marks.test(b)) continue;
    marks.set(b);
    set.samples.push_back({b, false});
  }
  for (const NeighborSample& s : set.samples) marks.clear_word(s.b);
  set.sampled_scale = count > 0 ? static_cast<double>(num_nonlinks) /
                                      static_cast<double>(count)
                                : 0.0;
}

}  // namespace

NeighborSet sample_neighbors_link_aware(rng::Xoshiro256& rng,
                                        Vertex num_vertices, Vertex a,
                                        std::span<const Vertex> adj_a,
                                        std::size_t count) {
  NeighborSet set;
  VertexBitmap marks;
  link_aware_into(rng, num_vertices, a, adj_a, count, set, marks);
  return set;
}

void draw_neighbor_set_into(rng::Xoshiro256& rng, NeighborMode mode,
                            Vertex num_vertices, Vertex a,
                            std::span<const Vertex> adj_a, std::size_t count,
                            NeighborSet& set, NeighborScratch& scratch) {
  if (mode == NeighborMode::kLinkAware) {
    link_aware_into(rng, num_vertices, a, adj_a, count, set, scratch.marks);
    return;
  }
  SCD_REQUIRE(count <= num_vertices - 1,
              "neighbor sample larger than V \\ {a}");
  rng::sample_without_replacement_excluding_into(rng, num_vertices, count, a,
                                                 scratch.raw);
  set.samples.clear();
  set.samples.reserve(count);
  for (std::uint64_t b64 : scratch.raw) {
    const auto b = static_cast<Vertex>(b64);
    const bool link = std::binary_search(adj_a.begin(), adj_a.end(), b);
    set.samples.push_back({b, link});
  }
  set.exact_prefix = 0;
  set.sampled_scale =
      static_cast<double>(num_vertices) / static_cast<double>(count);
}

NeighborSet draw_neighbor_set(rng::Xoshiro256& rng, NeighborMode mode,
                              Vertex num_vertices, Vertex a,
                              std::span<const Vertex> adj_a,
                              std::size_t count) {
  NeighborSet set;
  NeighborScratch scratch;
  draw_neighbor_set_into(rng, mode, num_vertices, a, adj_a, count, set,
                         scratch);
  return set;
}

std::vector<NeighborSample> sample_neighbors(rng::Xoshiro256& rng,
                                             Vertex num_vertices, Vertex a,
                                             std::span<const Vertex> adj_a,
                                             std::size_t count) {
  SCD_REQUIRE(count <= num_vertices - 1,
              "neighbor sample larger than V \\ {a}");
  const auto raw = rng::sample_without_replacement_excluding(
      rng, num_vertices, count, a);
  std::vector<NeighborSample> out;
  out.reserve(count);
  for (std::uint64_t b64 : raw) {
    const auto b = static_cast<Vertex>(b64);
    const bool link = std::binary_search(adj_a.begin(), adj_a.end(), b);
    out.push_back({b, link});
  }
  return out;
}

}  // namespace scd::graph
