// Robustness edge cases: degenerate graphs and extreme configurations
// must run without crashing or corrupting state.
#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "core/parallel_sampler.h"
#include "graph/builder.h"
#include "graph/heldout.h"

namespace scd::core {
namespace {

SamplerOptions tiny_options() {
  SamplerOptions options;
  options.minibatch.nonlink_partitions = 2;
  options.num_neighbors = 2;
  options.eval_interval = 0;
  options.seed = 3;
  return options;
}

TEST(EdgeCasesTest, IsolatedVerticesSurviveTraining) {
  // Vertices 6..9 have no edges: the stratified link stratum for them is
  // an empty minibatch, and they can still appear in neighbor sets.
  graph::GraphBuilder builder(10);
  builder.add_edge(0, 1);
  builder.add_edge(1, 2);
  builder.add_edge(2, 3);
  builder.add_edge(3, 4);
  builder.add_edge(4, 5);
  builder.add_edge(5, 0);
  const graph::Graph g = std::move(builder).build();

  Hyper hyper;
  hyper.num_communities = 2;
  hyper.delta = 0.01;
  ParallelSampler sampler(g, nullptr, hyper, tiny_options(), 1);
  EXPECT_NO_THROW(sampler.run(200));
  for (std::uint32_t v = 0; v < 10; ++v) {
    double sum = 0.0;
    for (std::uint32_t k = 0; k < 2; ++k) sum += sampler.pi().pi(v, k);
    EXPECT_NEAR(sum, 1.0, 1e-4);
  }
}

TEST(EdgeCasesTest, SingleCommunityRuns) {
  graph::GraphBuilder builder(6);
  for (graph::Vertex v = 0; v < 5; ++v) builder.add_edge(v, v + 1);
  const graph::Graph g = std::move(builder).build();
  Hyper hyper;
  hyper.num_communities = 1;
  hyper.delta = 0.01;
  ParallelSampler sampler(g, nullptr, hyper, tiny_options(), 1);
  EXPECT_NO_THROW(sampler.run(100));
  for (std::uint32_t v = 0; v < 6; ++v) {
    EXPECT_NEAR(sampler.pi().pi(v, 0), 1.0, 1e-5);
  }
}

TEST(EdgeCasesTest, TinyTriangleGraph) {
  graph::GraphBuilder builder(3);
  builder.add_edge(0, 1);
  builder.add_edge(1, 2);
  builder.add_edge(0, 2);
  const graph::Graph g = std::move(builder).build();
  Hyper hyper;
  hyper.num_communities = 2;
  hyper.delta = 0.05;
  SamplerOptions options = tiny_options();
  options.num_neighbors = 1;  // only 2 candidates exist
  ParallelSampler sampler(g, nullptr, hyper, options, 1);
  EXPECT_NO_THROW(sampler.run(50));
}

TEST(EdgeCasesTest, EvalEveryIterationWorks) {
  graph::GraphBuilder builder(30);
  rng::Xoshiro256 rng(1);
  for (int i = 0; i < 80; ++i) {
    const auto a = static_cast<graph::Vertex>(rng.next_below(30));
    auto b = static_cast<graph::Vertex>(rng.next_below(29));
    if (b >= a) ++b;
    builder.add_edge(a, b);
  }
  const graph::Graph full = std::move(builder).build();
  rng::Xoshiro256 split_rng(2);
  const graph::HeldOutSplit split(split_rng, full, 10);
  Hyper hyper;
  hyper.num_communities = 3;
  hyper.delta = 0.01;
  SamplerOptions options = tiny_options();
  options.eval_interval = 1;
  ParallelSampler sampler(split.training(), &split, hyper, options, 1);
  sampler.run(20);
  EXPECT_EQ(sampler.history().size(), 20u);
  for (const HistoryPoint& p : sampler.history()) {
    EXPECT_TRUE(std::isfinite(p.perplexity));
    EXPECT_GT(p.perplexity, 0.0);
  }
}

TEST(EdgeCasesTest, MoreThreadsThanMinibatchVertices) {
  graph::GraphBuilder builder(12);
  for (graph::Vertex v = 0; v < 11; ++v) builder.add_edge(v, v + 1);
  const graph::Graph g = std::move(builder).build();
  Hyper hyper;
  hyper.num_communities = 2;
  hyper.delta = 0.01;
  ParallelSampler sampler(g, nullptr, hyper, tiny_options(), 8);
  EXPECT_NO_THROW(sampler.run(100));
}

TEST(EdgeCasesTest, LargeKOnSmallGraph) {
  graph::GraphBuilder builder(20);
  for (graph::Vertex v = 0; v < 19; ++v) builder.add_edge(v, v + 1);
  const graph::Graph g = std::move(builder).build();
  Hyper hyper;
  hyper.num_communities = 64;  // far more communities than structure
  hyper.delta = 0.01;
  ParallelSampler sampler(g, nullptr, hyper, tiny_options(), 1);
  EXPECT_NO_THROW(sampler.run(50));
  for (std::uint32_t v = 0; v < 20; ++v) {
    EXPECT_GT(sampler.pi().phi_sum(v), 0.0f);
  }
}

// A finite step size too large for the model overflows a phi row within a
// few iterations. The sampler refuses the step with a UsageError that
// names the iteration and the first diverging vertex in minibatch order,
// the same at 1 and 3 threads, where the next gradient kernel used to
// abort the process.
TEST(EdgeCasesTest, DivergingStepIsRefusedNamingTheIteration) {
  graph::GraphBuilder builder(40);
  for (graph::Vertex v = 0; v < 40; ++v) {
    builder.add_edge(v, (v + 1) % 40);
    builder.add_edge(v, (v + 7) % 40);
  }
  const graph::Graph g = std::move(builder).build();
  Hyper hyper;
  hyper.num_communities = 4;
  hyper.delta = 0.01;
  for (const double a : {1e308, 1e30}) {
    SamplerOptions options = tiny_options();
    options.step.a = a;
    std::string messages[2];
    for (const unsigned threads : {1u, 3u}) {
      ParallelSampler sampler(g, nullptr, hyper, options, threads);
      try {
        sampler.run(50);
        ADD_FAILURE() << "a=" << a << ": diverging step accepted";
      } catch (const scd::UsageError& e) {
        messages[threads == 1 ? 0 : 1] = e.what();
      }
      // The refused step committed nothing: every row is still usable.
      for (graph::Vertex v = 0; v < 40; ++v) {
        EXPECT_TRUE(std::isfinite(sampler.pi().row(v)[4]) &&
                    sampler.pi().row(v)[4] > 0.0f)
            << "vertex " << v;
      }
    }
    SCOPED_TRACE(messages[0]);
    EXPECT_EQ(messages[0], messages[1]);
    EXPECT_EQ(messages[0].rfind("iteration ", 0), 0u);
    EXPECT_NE(messages[0].find("diverged at the phi row of vertex"),
              std::string::npos);
  }
}

}  // namespace
}  // namespace scd::core
