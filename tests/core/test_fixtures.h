// Shared fixtures for the sampler integration tests: a small planted
// graph with a held-out split, and default hyper/options tuned so a few
// hundred iterations converge visibly.
#pragma once

#include <bit>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/hyper.h"
#include "core/options.h"
#include "core/state.h"
#include "graph/generator.h"
#include "graph/heldout.h"

namespace scd::core::testing {

struct Fixture {
  graph::GeneratedGraph generated;
  std::unique_ptr<graph::HeldOutSplit> split;
  Hyper hyper;
  SamplerOptions options;
};

/// Easy recovery setting: strong communities, light overlap.
inline Fixture small_planted_fixture(std::uint64_t seed = 4242,
                                     graph::Vertex n = 200,
                                     std::uint32_t k = 4,
                                     std::size_t heldout_pairs = 100) {
  Fixture f;
  rng::Xoshiro256 gen_rng(seed);
  graph::PlantedConfig config;
  config.num_vertices = n;
  config.num_communities = k;
  config.p_two_memberships = 0.2;
  config.p_three_memberships = 0.0;
  config.beta_lo = 0.25;
  config.beta_hi = 0.4;
  config.delta = 2e-3;
  f.generated = graph::generate_planted(gen_rng, config);

  rng::Xoshiro256 split_rng(seed + 1);
  f.split = std::make_unique<graph::HeldOutSplit>(
      split_rng, f.generated.graph, heldout_pairs);

  f.hyper.num_communities = k;
  f.hyper.delta =
      suggested_delta(f.generated.graph.density());
  f.options.minibatch.strategy =
      graph::MinibatchStrategy::kStratifiedRandomNode;
  f.options.minibatch.nonlink_partitions = 8;
  f.options.num_neighbors = 24;
  f.options.eval_interval = 50;
  f.options.step.a = 0.05;
  f.options.step.b = 512.0;
  f.options.step.c = 0.55;
  f.options.seed = seed + 2;
  return f;
}

/// Every float of `pi`, row after row, as its bit pattern: EXPECT_EQ on
/// two of these is byte equality of the matrices.
inline std::vector<std::uint32_t> pi_bits(const PiMatrix& pi) {
  std::vector<std::uint32_t> bits;
  bits.reserve(pi.flat().size());
  for (const float x : pi.flat()) {
    bits.push_back(std::bit_cast<std::uint32_t>(x));
  }
  return bits;
}

}  // namespace scd::core::testing
