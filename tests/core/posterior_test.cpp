// Statistical validation of the SG-MCMC chain against a closed-form
// posterior.
//
// With K = 1 the model collapses: pi_a = 1 for every vertex, z_ab = z_ba
// always, and the likelihood of the whole graph is
// beta^|links| (1-beta)^|non-links|. Under the Beta(eta0, eta1) prior the
// exact posterior is Beta(eta0 + links, eta1 + nonlinks). The SGRLD chain
// with minibatch gradients should therefore spend its time near the
// posterior mean — a rare end-to-end check that the stochastic updates
// target the right distribution, not merely a downhill direction.
#include <gtest/gtest.h>

#include <cmath>

#include "core/parallel_sampler.h"
#include "graph/generator.h"

namespace scd::core {
namespace {

TEST(PosteriorTest, K1BetaChainTracksExactPosteriorMean) {
  // An Erdos-Renyi graph: with K = 1 the "community strength" beta is
  // just the edge density.
  rng::Xoshiro256 gen_rng(5);
  graph::PlantedConfig config;
  config.num_vertices = 120;
  config.num_communities = 1;
  config.p_two_memberships = 0.0;
  config.p_three_memberships = 0.0;
  config.beta_lo = 0.18;
  config.beta_hi = 0.22;
  config.delta = 1e-9;  // all structure in the single community
  const graph::GeneratedGraph g = graph::generate_planted(gen_rng, config);

  Hyper hyper;
  hyper.num_communities = 1;
  hyper.eta0 = 1.0;
  hyper.eta1 = 1.0;
  hyper.delta = 1e-6;
  SamplerOptions options;
  options.minibatch.strategy =
      graph::MinibatchStrategy::kStratifiedRandomNode;
  options.minibatch.nonlink_partitions = 4;
  options.num_neighbors = 16;
  options.eval_interval = 0;
  options.step.a = 0.01;
  options.step.b = 2048.0;
  options.seed = 77;
  // Only the preconditioned (Patterson-Teh) drift targets the exact
  // posterior; the paper's literal Eqn 3 biases beta toward 1/2 — see
  // core::GradientForm and the companion test below.
  options.gradient_form = GradientForm::kPreconditioned;

  ParallelSampler sampler(g.graph, nullptr, hyper, options, 1);
  sampler.run(2000);  // burn-in

  // Time-average beta over a long window.
  double avg_beta = 0.0;
  constexpr int kWindows = 400;
  for (int w = 0; w < kWindows; ++w) {
    sampler.run(10);
    avg_beta += sampler.global().beta(0);
  }
  avg_beta /= kWindows;

  const double links = static_cast<double>(g.graph.num_edges());
  const double nonlinks =
      static_cast<double>(g.graph.num_pairs()) - links;
  const double posterior_mean =
      (hyper.eta0 + links) / (hyper.eta0 + hyper.eta1 + links + nonlinks);

  // The chain keeps a finite step size (bias) and the minibatch gradient
  // is itself noisy, so expect agreement within ~20% relative.
  EXPECT_NEAR(avg_beta, posterior_mean, 0.2 * posterior_mean)
      << "links=" << links << " posterior mean=" << posterior_mean;
  // And the density is ~0.2, so this is a non-trivial target.
  EXPECT_GT(posterior_mean, 0.1);
  EXPECT_LT(posterior_mean, 0.3);
}

TEST(PosteriorTest, RawEqn3FormIsBiasedUpward) {
  // Companion documentation-test: the literal Eqn 3 drift equilibrates
  // theta at O(sqrt(counts)), which pulls beta toward 1/2 — here the
  // density is ~0.2, so the chain settles well above the posterior mean.
  rng::Xoshiro256 gen_rng(5);
  graph::PlantedConfig config;
  config.num_vertices = 120;
  config.num_communities = 1;
  config.p_two_memberships = 0.0;
  config.p_three_memberships = 0.0;
  config.beta_lo = 0.18;
  config.beta_hi = 0.22;
  config.delta = 1e-9;
  const graph::GeneratedGraph g = graph::generate_planted(gen_rng, config);

  Hyper hyper;
  hyper.num_communities = 1;
  hyper.delta = 1e-6;
  SamplerOptions options;
  options.minibatch.nonlink_partitions = 4;
  options.num_neighbors = 16;
  options.eval_interval = 0;
  options.step.a = 0.01;
  options.step.b = 2048.0;
  options.seed = 77;
  options.gradient_form = GradientForm::kRawEqn3;

  ParallelSampler sampler(g.graph, nullptr, hyper, options, 1);
  sampler.run(2000);
  double avg_beta = 0.0;
  constexpr int kWindows = 200;
  for (int w = 0; w < kWindows; ++w) {
    sampler.run(10);
    avg_beta += sampler.global().beta(0);
  }
  avg_beta /= kWindows;
  const double density = g.graph.density();
  EXPECT_GT(avg_beta, 1.5 * density) << "expected the documented bias";
}

}  // namespace
}  // namespace scd::core
