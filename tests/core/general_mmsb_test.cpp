#include "core/general_mmsb.h"

#include <gtest/gtest.h>

#include <cmath>

#include "core/general_sampler.h"
#include "core/grads.h"
#include "graph/builder.h"
#include "graph/metrics.h"
#include "random/distributions.h"
#include "tests/core/test_fixtures.h"

namespace scd::core {
namespace {

constexpr std::uint32_t kK = 4;

std::vector<float> random_row(rng::Xoshiro256& rng) {
  std::vector<double> pi(kK);
  rng::sample_dirichlet(rng, 0.6, pi);
  std::vector<float> row(kK + 1);
  for (std::uint32_t i = 0; i < kK; ++i) {
    row[i] = static_cast<float>(pi[i]);
  }
  row[kK] = static_cast<float>(1.0 + rng.next_double());
  return row;
}

TEST(BlockMatrixTest, IndexingCoversUpperTriangleOnce) {
  BlockMatrix blocks(5);
  EXPECT_EQ(blocks.num_blocks(), 15u);
  std::set<std::uint32_t> seen;
  for (std::uint32_t k = 0; k < 5; ++k) {
    for (std::uint32_t l = k; l < 5; ++l) {
      const std::uint32_t idx = blocks.block_index(k, l);
      EXPECT_LT(idx, 15u);
      EXPECT_TRUE(seen.insert(idx).second) << k << "," << l;
      EXPECT_EQ(idx, blocks.block_index(l, k)) << "symmetry";
    }
  }
}

TEST(BlockMatrixTest, BDerivedFromThetaAndClamped) {
  BlockMatrix blocks(2);
  blocks.set_theta(blocks.block_index(0, 1), 0, 1.0);
  blocks.set_theta(blocks.block_index(0, 1), 1, 3.0);
  blocks.refresh_b();
  EXPECT_NEAR(blocks.b(0, 1), 0.75, 1e-6);
  EXPECT_EQ(blocks.b(0, 1), blocks.b(1, 0));
}

// With B_kk = beta_k and B_{k != l} = delta, the general model IS the
// a-MMSB: likelihood and phi gradients must coincide.
TEST(GeneralMmsbTest, ReducesToAssortativeSpecialCase) {
  rng::Xoshiro256 rng(7);
  const double delta = 0.013;
  std::vector<float> beta(kK);
  for (float& b : beta) {
    b = static_cast<float>(0.1 + 0.8 * rng.next_double());
  }
  BlockMatrix blocks(kK);
  for (std::uint32_t k = 0; k < kK; ++k) {
    for (std::uint32_t l = k; l < kK; ++l) {
      const double value = (k == l) ? beta[k] : delta;
      const std::uint32_t idx = blocks.block_index(k, l);
      // theta = (1 - B, B) gives exactly B back.
      blocks.set_theta(idx, 0, 1.0 - value);
      blocks.set_theta(idx, 1, value);
    }
  }
  blocks.refresh_b();
  GeneralLikelihoodTerms general_terms;
  general_terms.refresh(blocks);
  LikelihoodTerms ammsb_terms;
  ammsb_terms.refresh(beta, delta);

  for (int trial = 0; trial < 10; ++trial) {
    const auto row_a = random_row(rng);
    const auto row_b = random_row(rng);
    for (bool y : {false, true}) {
      EXPECT_NEAR(
          general_pair_likelihood(row_a, row_b, general_terms, blocks, y),
          pair_likelihood(row_a, row_b, ammsb_terms, y), 1e-6);
      std::vector<double> g1(kK, 0.0);
      std::vector<double> g2(kK, 0.0);
      general_accumulate_phi_grad(row_a, row_b, general_terms, blocks, y,
                                  g1);
      accumulate_phi_grad(row_a, row_b, ammsb_terms, y, g2);
      for (std::uint32_t k = 0; k < kK; ++k) {
        EXPECT_NEAR(g1[k], g2[k], 1e-4 * std::max(1.0, std::abs(g2[k])));
      }
    }
  }
}

// Finite-difference check of the theta gradient through B = t1/(t0+t1).
TEST(GeneralMmsbTest, ThetaGradMatchesFiniteDifference) {
  rng::Xoshiro256 rng(21);
  BlockMatrix blocks(kK);
  for (std::uint32_t b = 0; b < blocks.num_blocks(); ++b) {
    blocks.set_theta(b, 0, 0.5 + 2.0 * rng.next_double());
    blocks.set_theta(b, 1, 0.5 + 2.0 * rng.next_double());
  }
  blocks.refresh_b();
  const auto row_a = random_row(rng);
  const auto row_b = random_row(rng);

  auto log_z = [&](const BlockMatrix& m, bool y) {
    GeneralLikelihoodTerms t;
    t.refresh(m);
    return std::log(general_pair_likelihood(row_a, row_b, t, m, y));
  };

  for (bool y : {false, true}) {
    GeneralLikelihoodTerms terms;
    terms.refresh(blocks);
    std::vector<double> ratio_link(blocks.num_blocks(), 0.0);
    std::vector<double> ratio_nonlink(blocks.num_blocks(), 0.0);
    general_accumulate_theta_ratio(row_a, row_b, terms, blocks, y,
                                   y ? std::span<double>(ratio_link)
                                     : std::span<double>(ratio_nonlink));
    std::vector<double> grad(blocks.num_blocks() * 2, 0.0);
    general_theta_grad_from_ratios(ratio_link, ratio_nonlink, blocks,
                                   grad);
    for (std::uint32_t b = 0; b < blocks.num_blocks(); ++b) {
      for (unsigned i = 0; i < 2; ++i) {
        const double h = 1e-6 * blocks.theta(b, i);
        BlockMatrix up = blocks;
        up.set_theta(b, i, blocks.theta(b, i) + h);
        up.refresh_b();
        BlockMatrix down = blocks;
        down.set_theta(b, i, blocks.theta(b, i) - h);
        down.refresh_b();
        const double numeric =
            (log_z(up, y) - log_z(down, y)) / (2 * h);
        EXPECT_NEAR(grad[b * 2 + i], numeric,
                    2e-2 * std::max(0.5, std::abs(numeric)))
            << "block " << b << " i " << i << " y " << y;
      }
    }
  }
}

/// Near-bipartite graph: two groups, links almost only across.
graph::Graph make_bipartite(graph::Vertex n, double p_cross,
                            double p_within, std::uint64_t seed) {
  rng::Xoshiro256 rng(seed);
  graph::GraphBuilder builder(n);
  for (graph::Vertex a = 0; a < n; ++a) {
    for (graph::Vertex b = a + 1; b < n; ++b) {
      const bool same_group = (a < n / 2) == (b < n / 2);
      if (rng.next_double() < (same_group ? p_within : p_cross)) {
        builder.add_edge(a, b);
      }
    }
  }
  return std::move(builder).build();
}

// The payoff of the extension: disassortative (bipartite-like) structure
// is invisible to a-MMSB (its only cross-community probability is the
// shared delta) but representable by the general model. Joint (B, pi)
// learning from a diffuse start is a hard saddle (see general_sampler.h),
// so the recovery test isolates the phi machinery: with B fixed at the
// true block strengths, full-pass phi updates must split the graph into
// its two groups.
TEST(GeneralMmsbTest, RecoversDisassortativeGroupsGivenBlockStrengths) {
  const graph::Graph g = make_bipartite(300, 0.15, 0.005, 99);
  constexpr std::uint32_t kTwo = 2;

  BlockMatrix blocks(kTwo);
  auto set_b = [&](std::uint32_t k, std::uint32_t l, double value) {
    const std::uint32_t idx = blocks.block_index(k, l);
    blocks.set_theta(idx, 0, (1.0 - value) * 100.0);
    blocks.set_theta(idx, 1, value * 100.0);
  };
  set_b(0, 0, 0.005);
  set_b(1, 1, 0.005);
  set_b(0, 1, 0.15);
  blocks.refresh_b();
  GeneralLikelihoodTerms terms;
  terms.refresh(blocks);

  PiMatrix pi(300, kTwo);
  pi.init_random(5);
  const double alpha = 0.2;
  const double eps = 0.05;
  std::vector<double> g_exact(kTwo);
  std::vector<double> g_sampled(kTwo);
  for (std::uint64_t pass = 0; pass < 250; ++pass) {
    std::vector<float> staged(300 * pi.row_width());
    for (graph::Vertex a = 0; a < 300; ++a) {
      rng::Xoshiro256 nbr_rng = derive_rng(1, rng_label::kNeighbors, pass, a);
      const graph::NeighborSet set = graph::draw_neighbor_set(
          nbr_rng, graph::NeighborMode::kLinkAware, 300, a,
          g.neighbors(a), 16);
      std::fill(g_exact.begin(), g_exact.end(), 0.0);
      std::fill(g_sampled.begin(), g_sampled.end(), 0.0);
      for (std::size_t i = 0; i < set.samples.size(); ++i) {
        general_accumulate_phi_grad(
            pi.row(a), pi.row(set.samples[i].b), terms, blocks,
            set.samples[i].link,
            i < set.exact_prefix ? std::span<double>(g_exact)
                                 : std::span<double>(g_sampled));
      }
      for (std::uint32_t k = 0; k < kTwo; ++k) {
        g_exact[k] += set.sampled_scale * g_sampled[k];
      }
      std::span<float> out(staged.data() + a * pi.row_width(),
                           pi.row_width());
      std::copy(pi.row(a).begin(), pi.row(a).end(), out.begin());
      update_phi_row(1, pass, a, out, g_exact, 1.0, eps, alpha);
    }
    for (graph::Vertex a = 0; a < 300; ++a) {
      std::span<const float> src(staged.data() + a * pi.row_width(),
                                 pi.row_width());
      std::copy(src.begin(), src.end(), pi.row(a).begin());
    }
  }

  std::vector<std::uint32_t> truth(300);
  std::vector<std::uint32_t> predicted(300);
  for (graph::Vertex v = 0; v < 300; ++v) {
    truth[v] = v < 150 ? 0 : 1;
    predicted[v] = pi.pi(v, 0) > pi.pi(v, 1) ? 0 : 1;
  }
  EXPECT_GT(graph::nmi(truth, predicted), 0.7)
      << "phi updates failed to split the bipartite groups";
}

TEST(GeneralSamplerTest, WarmStartAndFreezeAreHonored) {
  const graph::Graph g = make_bipartite(120, 0.2, 0.01, 3);
  rng::Xoshiro256 split_rng(1);
  const graph::HeldOutSplit split(split_rng, g, 60);
  Hyper hyper;
  hyper.num_communities = 2;
  hyper.delta = suggested_delta(g.density());
  SamplerOptions options;
  options.neighbor_mode = NeighborMode::kLinkAware;
  options.num_neighbors = 8;
  options.eval_interval = 0;
  options.seed = 4;

  GeneralSequentialSampler sampler(split.training(), &split, hyper,
                                   options);
  BlockMatrix warm(2);
  warm.set_theta(warm.block_index(0, 1), 0, 7.0);
  warm.set_theta(warm.block_index(0, 1), 1, 3.0);
  warm.refresh_b();
  sampler.warm_start_blocks(warm);
  EXPECT_NEAR(sampler.blocks().b(0, 1), 0.3, 1e-6);

  sampler.freeze_blocks_for(50);
  sampler.run(50);
  // Frozen: B is exactly the warm-start value.
  EXPECT_NEAR(sampler.blocks().b(0, 1), 0.3, 1e-6);
  sampler.run(50);
  // Unfrozen: B moved.
  EXPECT_NE(sampler.blocks().b(0, 1), 0.3f);

  // Warm start after training is a usage error.
  EXPECT_THROW(sampler.warm_start_blocks(warm), scd::UsageError);
}

TEST(GeneralSamplerTest, StateStaysValid) {
  auto f = testing::small_planted_fixture(31, 100, 3, 50);
  GeneralSequentialSampler sampler(f.split->training(), f.split.get(),
                                   f.hyper, f.options);
  sampler.run(100);
  for (std::uint32_t v = 0; v < sampler.pi().num_vertices(); ++v) {
    double sum = 0.0;
    for (std::uint32_t k = 0; k < 3; ++k) {
      ASSERT_GE(sampler.pi().pi(v, k), 0.0f);
      sum += sampler.pi().pi(v, k);
    }
    ASSERT_NEAR(sum, 1.0, 1e-4);
  }
  for (std::uint32_t b = 0; b < sampler.blocks().num_blocks(); ++b) {
    ASSERT_GT(sampler.blocks().theta(b, 0), 0.0);
    ASSERT_GT(sampler.blocks().theta(b, 1), 0.0);
  }
}

// One planted graph's final/initial perplexity ratio after 1500
// iterations spreads widely with the noise stream (sd about 0.10 over
// 200 fixtures, mean 0.78, a few above 1), so the bound is held by the
// mean over twelve fixtures rather than by any single one.
TEST(GeneralSamplerTest, AssortativeGraphsAlsoConverge) {
  double ratio_sum = 0.0;
  constexpr int kFixtures = 12;
  for (int i = 0; i < kFixtures; ++i) {
    auto f = testing::small_planted_fixture(41 + static_cast<std::uint64_t>(i));
    f.options.eval_interval = 0;
    GeneralSequentialSampler sampler(f.split->training(), f.split.get(),
                                     f.hyper, f.options);
    const double initial = sampler.evaluate_perplexity();
    sampler.run(1500);
    ratio_sum += sampler.evaluate_perplexity() / initial;
  }
  EXPECT_LT(ratio_sum / kFixtures, 0.85);
}

}  // namespace
}  // namespace scd::core
