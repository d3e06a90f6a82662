#include "graph/minibatch.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

#include "graph/builder.h"
#include "graph/edge_set.h"
#include "graph/generator.h"
#include "util/error.h"

namespace scd::graph {
namespace {

GeneratedGraph make_graph(std::uint64_t seed = 9) {
  rng::Xoshiro256 rng(seed);
  PlantedConfig config;
  config.num_vertices = 150;
  config.num_communities = 5;
  config.beta_lo = 0.15;
  config.beta_hi = 0.3;
  config.delta = 2e-3;
  return generate_planted(rng, config);
}

/// An arbitrary *symmetric* per-pair test function. Symmetry matters:
/// stratified node sampling visits each pair from either endpoint, so it
/// estimates the symmetrized sum — which equals the plain sum exactly
/// when g(a,b) = g(b,a), as the theta gradient of Eqn 4 is.
double test_fn(Vertex a, Vertex b, bool link) {
  return 0.3 + 0.01 * (a + b) + 1e-4 * double(a) * double(b) +
         (link ? 5.0 : 0.0);
}

/// Full-graph target: sum over all non-held-out pairs.
double full_sum(const Graph& g, const HeldOutSplit* heldout) {
  double total = 0.0;
  for (Vertex a = 0; a < g.num_vertices(); ++a) {
    for (Vertex b = a + 1; b < g.num_vertices(); ++b) {
      if (heldout != nullptr && heldout->is_held_out(a, b)) continue;
      total += test_fn(a, b, g.has_edge(a, b));
    }
  }
  return total;
}

class MinibatchUnbiasednessTest
    : public ::testing::TestWithParam<MinibatchStrategy> {};

TEST_P(MinibatchUnbiasednessTest, ScaledSumMatchesFullGraphInExpectation) {
  const GeneratedGraph gen = make_graph();
  MinibatchSampler::Options options;
  options.strategy = GetParam();
  options.num_pairs = 24;
  options.nonlink_partitions = 8;
  const MinibatchSampler sampler(gen.graph, nullptr, options);
  const double target = full_sum(gen.graph, nullptr);

  rng::Xoshiro256 rng(123);
  double acc = 0.0;
  constexpr int kDraws = 60000;
  for (int d = 0; d < kDraws; ++d) {
    const Minibatch mb = sampler.draw(rng);
    double s = 0.0;
    for (const MinibatchPair& p : mb.pairs) {
      s += test_fn(p.a, p.b, p.link);
    }
    acc += mb.scale * s;
  }
  const double estimate = acc / kDraws;
  EXPECT_NEAR(estimate / target, 1.0, 0.03)
      << "estimate=" << estimate << " target=" << target;
}

INSTANTIATE_TEST_SUITE_P(Strategies, MinibatchUnbiasednessTest,
                         ::testing::Values(
                             MinibatchStrategy::kRandomPair,
                             MinibatchStrategy::kStratifiedRandomNode));

TEST(MinibatchTest, RandomPairHasRequestedSizeAndUniquePairs) {
  const GeneratedGraph gen = make_graph();
  MinibatchSampler::Options options;
  options.strategy = MinibatchStrategy::kRandomPair;
  options.num_pairs = 40;
  const MinibatchSampler sampler(gen.graph, nullptr, options);
  rng::Xoshiro256 rng(5);
  for (int d = 0; d < 50; ++d) {
    const Minibatch mb = sampler.draw(rng);
    ASSERT_EQ(mb.pairs.size(), 40u);
    EdgeSet seen;
    for (const MinibatchPair& p : mb.pairs) {
      ASSERT_TRUE(seen.insert(p.a, p.b));
      ASSERT_EQ(p.link, gen.graph.has_edge(p.a, p.b));
    }
  }
}

TEST(MinibatchTest, VerticesAreSortedUniqueUnionOfPairs) {
  const GeneratedGraph gen = make_graph();
  MinibatchSampler::Options options;
  options.strategy = MinibatchStrategy::kRandomPair;
  options.num_pairs = 16;
  const MinibatchSampler sampler(gen.graph, nullptr, options);
  rng::Xoshiro256 rng(6);
  const Minibatch mb = sampler.draw(rng);
  EXPECT_TRUE(std::is_sorted(mb.vertices.begin(), mb.vertices.end()));
  EXPECT_EQ(std::adjacent_find(mb.vertices.begin(), mb.vertices.end()),
            mb.vertices.end());
  for (const MinibatchPair& p : mb.pairs) {
    EXPECT_TRUE(std::binary_search(mb.vertices.begin(), mb.vertices.end(),
                                   p.a));
    EXPECT_TRUE(std::binary_search(mb.vertices.begin(), mb.vertices.end(),
                                   p.b));
  }
}

TEST(MinibatchTest, StratifiedLinkStratumContainsExactlyTheLinks) {
  const GeneratedGraph gen = make_graph();
  MinibatchSampler::Options options;
  options.strategy = MinibatchStrategy::kStratifiedRandomNode;
  const MinibatchSampler sampler(gen.graph, nullptr, options);
  rng::Xoshiro256 rng(7);
  const auto n = static_cast<double>(gen.graph.num_vertices());
  bool saw_link_stratum = false;
  for (int d = 0; d < 100 && !saw_link_stratum; ++d) {
    const Minibatch mb = sampler.draw(rng);
    if (!mb.pairs.empty() && mb.pairs.front().link) {
      saw_link_stratum = true;
      const Vertex a = mb.pairs.front().a;
      EXPECT_EQ(mb.pairs.size(), gen.graph.degree(a));
      EXPECT_DOUBLE_EQ(mb.scale, n);
      for (const MinibatchPair& p : mb.pairs) {
        EXPECT_EQ(p.a, a);
        EXPECT_TRUE(p.link);
      }
    }
  }
  EXPECT_TRUE(saw_link_stratum);
}

TEST(MinibatchTest, HeldOutPairsNeverSampled) {
  const GeneratedGraph gen = make_graph();
  rng::Xoshiro256 hrng(77);
  const HeldOutSplit split(hrng, gen.graph, 120);
  MinibatchSampler::Options options;
  options.strategy = MinibatchStrategy::kRandomPair;
  options.num_pairs = 32;
  const MinibatchSampler sampler(split.training(), &split, options);
  rng::Xoshiro256 rng(8);
  for (int d = 0; d < 300; ++d) {
    const Minibatch mb = sampler.draw(rng);
    for (const MinibatchPair& p : mb.pairs) {
      ASSERT_FALSE(split.is_held_out(p.a, p.b));
    }
  }
}

TEST(NeighborSamplingTest, DistinctExcludesSelfAndFlagsLinks) {
  const GeneratedGraph gen = make_graph();
  rng::Xoshiro256 rng(9);
  const Vertex a = 3;
  const auto adj = gen.graph.neighbors(a);
  for (int d = 0; d < 100; ++d) {
    const auto samples = sample_neighbors(
        rng, gen.graph.num_vertices(), a, adj, 20);
    ASSERT_EQ(samples.size(), 20u);
    std::set<Vertex> seen;
    for (const NeighborSample& s : samples) {
      ASSERT_NE(s.b, a);
      ASSERT_TRUE(seen.insert(s.b).second);
      ASSERT_EQ(s.link, gen.graph.has_edge(a, s.b));
    }
  }
}

TEST(NeighborSamplingTest, OverdrawThrows) {
  const GeneratedGraph gen = make_graph();
  rng::Xoshiro256 rng(10);
  EXPECT_THROW(sample_neighbors(rng, 5, 0, {}, 5), scd::UsageError);
}


TEST(NeighborSamplingTest, LinkAwareSetStructure) {
  const GeneratedGraph gen = make_graph();
  rng::Xoshiro256 rng(11);
  const Vertex a = 5;
  const auto adj = gen.graph.neighbors(a);
  const NeighborSet set = sample_neighbors_link_aware(
      rng, gen.graph.num_vertices(), a, adj, 20);
  ASSERT_EQ(set.exact_prefix, adj.size());
  ASSERT_EQ(set.samples.size(), adj.size() + 20);
  // Prefix holds exactly the links, in adjacency order.
  for (std::size_t i = 0; i < set.exact_prefix; ++i) {
    EXPECT_EQ(set.samples[i].b, adj[i]);
    EXPECT_TRUE(set.samples[i].link);
  }
  // Tail holds distinct non-links, never self.
  std::set<Vertex> seen;
  for (std::size_t i = set.exact_prefix; i < set.samples.size(); ++i) {
    EXPECT_FALSE(set.samples[i].link);
    EXPECT_NE(set.samples[i].b, a);
    EXPECT_FALSE(gen.graph.has_edge(a, set.samples[i].b));
    EXPECT_TRUE(seen.insert(set.samples[i].b).second);
  }
  const double expected_scale =
      double(gen.graph.num_vertices() - 1 - adj.size()) / 20.0;
  EXPECT_DOUBLE_EQ(set.sampled_scale, expected_scale);
}

TEST(NeighborSamplingTest, DrawNeighborSetDispatchesModes) {
  const GeneratedGraph gen = make_graph();
  rng::Xoshiro256 rng(12);
  const Vertex a = 9;
  const auto adj = gen.graph.neighbors(a);
  const NeighborSet uniform = draw_neighbor_set(
      rng, NeighborMode::kUniform, gen.graph.num_vertices(), a, adj, 10);
  EXPECT_EQ(uniform.exact_prefix, 0u);
  EXPECT_EQ(uniform.samples.size(), 10u);
  EXPECT_DOUBLE_EQ(uniform.sampled_scale,
                   double(gen.graph.num_vertices()) / 10.0);
  const NeighborSet aware = draw_neighbor_set(
      rng, NeighborMode::kLinkAware, gen.graph.num_vertices(), a, adj, 10);
  EXPECT_EQ(aware.exact_prefix, adj.size());
}

// Property: for any per-neighbor function g, both neighbor-set modes
// estimate sum over b != a of g(b, y_ab) without bias.
class NeighborEstimatorTest : public ::testing::TestWithParam<NeighborMode> {
};

TEST_P(NeighborEstimatorTest, UnbiasedForArbitraryG) {
  const GeneratedGraph gen = make_graph();
  const Vertex a = 3;
  const auto adj = gen.graph.neighbors(a);
  auto g_fn = [](Vertex b, bool link) {
    return 0.01 * b + (link ? 3.0 : -0.5);
  };
  double target = 0.0;
  for (Vertex b = 0; b < gen.graph.num_vertices(); ++b) {
    if (b != a) target += g_fn(b, gen.graph.has_edge(a, b));
  }
  rng::Xoshiro256 rng(13);
  double acc = 0.0;
  constexpr int kDraws = 40000;
  for (int d = 0; d < kDraws; ++d) {
    const NeighborSet set = draw_neighbor_set(
        rng, GetParam(), gen.graph.num_vertices(), a, adj, 12);
    double exact = 0.0;
    double sampled = 0.0;
    for (std::size_t i = 0; i < set.samples.size(); ++i) {
      const double g = g_fn(set.samples[i].b, set.samples[i].link);
      (i < set.exact_prefix ? exact : sampled) += g;
    }
    acc += exact + set.sampled_scale * sampled;
  }
  EXPECT_NEAR(acc / kDraws / target, 1.0, 0.03);
}

INSTANTIATE_TEST_SUITE_P(Modes, NeighborEstimatorTest,
                         ::testing::Values(NeighborMode::kUniform,
                                           NeighborMode::kLinkAware));

TEST(NeighborSamplingTest, LinkAwareClampsForNearCompleteVertices) {
  // Vertex 0 is connected to all but one peer: only one non-link exists.
  GraphBuilder b(6);
  for (Vertex v = 1; v < 5; ++v) b.add_edge(0, v);
  const Graph g = std::move(b).build();
  rng::Xoshiro256 rng(3);
  const NeighborSet set = sample_neighbors_link_aware(
      rng, g.num_vertices(), 0, g.neighbors(0), 20);
  EXPECT_EQ(set.exact_prefix, 4u);
  EXPECT_EQ(set.samples.size(), 5u);  // 4 links + the single non-link
  EXPECT_EQ(set.samples.back().b, 5u);
  EXPECT_DOUBLE_EQ(set.sampled_scale, 1.0);
}

// -- anchor distribution --------------------------------------------------
// The stratified draw's anchor is rng.next_below(N) and its stratum a fair
// coin: over many draws every vertex anchors ~draws/N minibatches and half
// of the non-empty minibatches are link strata.

TEST(MinibatchTest, StratifiedAnchorIsUniformAndStratumCoinIsFair) {
  const GeneratedGraph g = make_graph();
  MinibatchSampler::Options opt;
  opt.strategy = MinibatchStrategy::kStratifiedRandomNode;
  const MinibatchSampler sampler(g.graph, nullptr, opt);
  const auto n = g.graph.num_vertices();

  const int draws = 40000;
  int links = 0;
  std::vector<int> anchor_counts(n, 0);
  rng::Xoshiro256 rng(123);
  for (int i = 0; i < draws; ++i) {
    const Minibatch mb = sampler.draw(rng);
    if (!mb.pairs.empty()) {
      anchor_counts[mb.pairs[0].a]++;
      if (mb.pairs[0].link) links++;
    }
  }
  // Stratum coin is fair.
  EXPECT_NEAR(static_cast<double>(links) / draws, 0.5, 0.02);
  // Anchors are uniform: every vertex within ~5 sigma of draws/n.
  const double expect = static_cast<double>(draws) / n;
  const double sigma = std::sqrt(expect * (1.0 - 1.0 / n));
  for (Vertex v = 0; v < n; ++v) {
    EXPECT_NEAR(anchor_counts[v], expect, 5.0 * sigma) << "vertex " << v;
  }
}

// -- bitmap draws against the EdgeSet rejection loops ----------------------
// The link-aware neighbor draw and the stratified non-link draw reject
// candidates against a vertex bitmap. The oracles below are the
// binary_search + EdgeSet loops the bitmaps replaced, kept here verbatim:
// the same candidates must be rejected in the same order, so every
// output and the post-draw rng state must match exactly.

NeighborSet reference_link_aware(rng::Xoshiro256& rng, Vertex num_vertices,
                                 Vertex a, std::span<const Vertex> adj_a,
                                 std::size_t count) {
  NeighborSet set;
  const std::uint64_t num_nonlinks =
      static_cast<std::uint64_t>(num_vertices) - 1 - adj_a.size();
  count = std::min<std::size_t>(count, num_nonlinks);
  set.exact_prefix = adj_a.size();
  for (Vertex b : adj_a) set.samples.push_back({b, true});
  EdgeSet chosen(count);
  while (set.samples.size() < set.exact_prefix + count) {
    auto b = static_cast<Vertex>(rng.next_below(num_vertices - 1));
    if (b >= a) ++b;
    if (std::binary_search(adj_a.begin(), adj_a.end(), b) ||
        chosen.contains(a, b)) {
      continue;
    }
    chosen.insert(a, b);
    set.samples.push_back({b, false});
  }
  set.sampled_scale = count > 0 ? static_cast<double>(num_nonlinks) /
                                      static_cast<double>(count)
                                : 0.0;
  return set;
}

bool all_clear(const VertexBitmap& marks) {
  const auto words = marks.words();
  return std::all_of(words.begin(), words.end(),
                     [](std::uint64_t w) { return w == 0; });
}

/// A planted graph of average degree about 10 plus one hub, vertex
/// `hub`, linked to every vertex but the last three: it has fewer
/// non-links than most draws request.
Graph graph_with_hub(Vertex n, Vertex hub, std::uint64_t seed) {
  rng::Xoshiro256 rng(seed);
  PlantedConfig config;
  config.num_vertices = n;
  config.num_communities = 4;
  config.beta_lo = 15.0 / n;
  config.beta_hi = 37.5 / n;
  config.delta = 0.45 / n;
  const GeneratedGraph gen = generate_planted(rng, config);
  GraphBuilder builder(n);
  for (Vertex u = 0; u < n; ++u) {
    for (Vertex v : gen.graph.neighbors(u)) {
      if (u < v && u != hub && v != hub) builder.add_edge(u, v);
    }
  }
  for (Vertex v = 0; v + 3 < n; ++v) {
    if (v != hub) builder.add_edge(hub, v);
  }
  return std::move(builder).build();
}

TEST(NeighborSamplingTest, LinkAwareBitmapDrawMatchesEdgeSetOracle) {
  // N = 150, 97 and 1000 are not multiples of 64; 64 is. One scratch
  // serves every graph, so the bitmap is reused across different N both
  // ways; at N = 1000 a draw touches only some of the 16 words.
  const Graph graphs[] = {graph_with_hub(150, 7, 21),
                          graph_with_hub(97, 0, 22),
                          graph_with_hub(1000, 500, 25),
                          graph_with_hub(64, 63, 23),
                          graph_with_hub(150, 149, 24)};
  NeighborScratch scratch;
  NeighborSet set;
  std::size_t cases = 0;
  std::size_t clamped = 0;
  for (const Graph& g : graphs) {
    const Vertex n = g.num_vertices();
    const Vertex vertices[] = {0, 1, 7, n / 2, n - 4, n - 1};
    for (Vertex a : vertices) {
      for (std::uint64_t seed = 1; seed <= 48; ++seed) {
        const std::size_t count = 1 + seed % 3 * 20;  // 1, 21, 41
        rng::Xoshiro256 rng_ref(seed * 1000 + a);
        rng::Xoshiro256 rng_new = rng_ref;
        const NeighborSet ref =
            reference_link_aware(rng_ref, n, a, g.neighbors(a), count);
        draw_neighbor_set_into(rng_new, NeighborMode::kLinkAware, n, a,
                               g.neighbors(a), count, set, scratch);
        ASSERT_EQ(set.samples.size(), ref.samples.size())
            << "N=" << n << " a=" << a << " seed=" << seed;
        for (std::size_t i = 0; i < ref.samples.size(); ++i) {
          ASSERT_EQ(set.samples[i].b, ref.samples[i].b) << "i=" << i;
          ASSERT_EQ(set.samples[i].link, ref.samples[i].link) << "i=" << i;
        }
        ASSERT_EQ(set.exact_prefix, ref.exact_prefix);
        ASSERT_EQ(set.sampled_scale, ref.sampled_scale);
        ASSERT_TRUE(rng_new == rng_ref);
        ASSERT_TRUE(all_clear(scratch.marks));
        clamped += ref.samples.size() < ref.exact_prefix + count;
        ++cases;
      }
    }
  }
  EXPECT_GE(cases, 1000u);
  EXPECT_GT(clamped, 0u);  // the hubs hit the count clamp
}

/// The stratified draw as it was written against Graph::has_edge and an
/// EdgeSet, with the vertex list built from both endpoints of every pair.
/// `excluded_hits` counts candidates rejected only as held-out.
Minibatch reference_stratified(const Graph& g, const HeldOutSplit& split,
                               std::size_t m, rng::Xoshiro256& rng,
                               std::size_t& excluded_hits) {
  Minibatch mb;
  const Vertex n = g.num_vertices();
  const double nd = static_cast<double>(n);
  const auto a = static_cast<Vertex>(rng.next_below(n));
  if (rng.next_double() < 0.5) {
    for (Vertex b : g.neighbors(a)) mb.pairs.push_back({a, b, true});
    mb.scale = nd;
  } else {
    const std::uint64_t num_nonlinks =
        static_cast<std::uint64_t>(n) - 1 - g.degree(a);
    if (num_nonlinks == 0) {
      mb.scale = 0.0;
      return mb;
    }
    const std::size_t want = static_cast<std::size_t>(
        std::max<std::uint64_t>(1, (num_nonlinks + m - 1) / m));
    EdgeSet chosen(want);
    std::size_t attempts = 0;
    const std::size_t max_attempts = 64 * want + 1024;
    while (mb.pairs.size() < want && attempts++ < max_attempts) {
      auto b = static_cast<Vertex>(rng.next_below(n - 1));
      if (b >= a) ++b;
      if (g.has_edge(a, b) || chosen.contains(a, b)) continue;
      if (split.is_held_out(a, b)) {
        ++excluded_hits;
        continue;
      }
      chosen.insert(a, b);
      mb.pairs.push_back({a, b, false});
    }
    mb.scale = nd * static_cast<double>(num_nonlinks) /
               static_cast<double>(mb.pairs.size());
  }
  for (const MinibatchPair& p : mb.pairs) {
    mb.vertices.push_back(p.a);
    mb.vertices.push_back(p.b);
  }
  std::sort(mb.vertices.begin(), mb.vertices.end());
  mb.vertices.erase(std::unique(mb.vertices.begin(), mb.vertices.end()),
                    mb.vertices.end());
  return mb;
}

TEST(MinibatchTest, StratifiedBitmapDrawMatchesEdgeSetOracle) {
  const GeneratedGraph gen = make_graph();
  rng::Xoshiro256 hrng(77);
  const HeldOutSplit split(hrng, gen.graph, 2000);
  MinibatchSampler::Options options;
  options.strategy = MinibatchStrategy::kStratifiedRandomNode;
  options.nonlink_partitions = 2;  // large non-link strata
  const MinibatchSampler sampler(split.training(), &split, options);
  Minibatch mb;
  MinibatchScratch scratch;
  std::size_t excluded_hits = 0;
  for (std::uint64_t seed = 1; seed <= 600; ++seed) {
    rng::Xoshiro256 rng_ref(seed);
    rng::Xoshiro256 rng_new(seed);
    const Minibatch ref = reference_stratified(
        split.training(), split, options.nonlink_partitions, rng_ref,
        excluded_hits);
    sampler.draw_into(rng_new, mb, scratch);
    ASSERT_EQ(mb.pairs.size(), ref.pairs.size()) << "seed " << seed;
    for (std::size_t i = 0; i < ref.pairs.size(); ++i) {
      ASSERT_EQ(mb.pairs[i].a, ref.pairs[i].a) << "seed " << seed;
      ASSERT_EQ(mb.pairs[i].b, ref.pairs[i].b) << "seed " << seed;
      ASSERT_EQ(mb.pairs[i].link, ref.pairs[i].link) << "seed " << seed;
    }
    ASSERT_EQ(mb.scale, ref.scale) << "seed " << seed;
    ASSERT_EQ(mb.vertices, ref.vertices) << "seed " << seed;
    ASSERT_TRUE(rng_new == rng_ref) << "seed " << seed;
    ASSERT_TRUE(all_clear(scratch.marks)) << "seed " << seed;
  }
  EXPECT_GT(excluded_hits, 0u);  // held-out rejections were exercised
}

}  // namespace
}  // namespace scd::graph
