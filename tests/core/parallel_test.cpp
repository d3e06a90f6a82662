#include "core/parallel_sampler.h"

#include <gtest/gtest.h>

#include <bit>

#include "tests/core/test_fixtures.h"

namespace scd::core {
namespace {

using testing::small_planted_fixture;

class ParallelEquivalenceTest : public ::testing::TestWithParam<unsigned> {};

// Thread-count independence is the engine's contract: a vertex's phi step
// depends only on (seed, iteration, vertex), and the theta ratios fold
// over fixed blocks in block order, so any thread count reproduces the
// single-thread trajectory bit for bit — pi bytes, beta and the
// perplexity history. At T = 1 the reference is a second single-thread
// run, so the case checks run-to-run determinism.
TEST_P(ParallelEquivalenceTest, MatchesSequentialTrajectory) {
  auto f = small_planted_fixture(31415, 150, 4, 80);
  f.options.eval_interval = 20;
  ParallelSampler one(f.split->training(), f.split.get(), f.hyper,
                      f.options, 1);
  ParallelSampler par(f.split->training(), f.split.get(), f.hyper,
                      f.options, GetParam());
  one.run(100);
  par.run(100);

  ASSERT_EQ(one.history().size(), par.history().size());
  for (std::size_t i = 0; i < one.history().size(); ++i) {
    EXPECT_EQ(one.history()[i].iteration, par.history()[i].iteration);
    EXPECT_EQ(par.history()[i].perplexity, one.history()[i].perplexity);
  }
  for (std::uint32_t k = 0; k < f.hyper.num_communities; ++k) {
    EXPECT_EQ(par.global().beta(k), one.global().beta(k));
  }
  const PiMatrix& p1 = one.pi();
  const PiMatrix& pt = par.pi();
  for (std::uint32_t v = 0; v < p1.num_vertices(); ++v) {
    const auto a = p1.row(v);
    const auto b = pt.row(v);
    for (std::size_t i = 0; i < a.size(); ++i) {
      ASSERT_EQ(std::bit_cast<std::uint32_t>(b[i]),
                std::bit_cast<std::uint32_t>(a[i]))
          << "v=" << v << " slot " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, ParallelEquivalenceTest,
                         ::testing::Values(1u, 2u, 4u, 7u));

// Training behaviour, at one thread and at several.
class ParallelSamplerThreadsTest
    : public ::testing::TestWithParam<unsigned> {};

TEST_P(ParallelSamplerThreadsTest, PerplexityDropsOnPlantedGraph) {
  auto f = small_planted_fixture();
  ParallelSampler sampler(f.split->training(), f.split.get(), f.hyper,
                          f.options, GetParam());
  const double initial = sampler.evaluate_perplexity();
  // Note Eqn 7 averages probabilities over ALL samples collected so far,
  // so the reported perplexity lags the current state early in training.
  sampler.run(2000);
  ASSERT_FALSE(sampler.history().empty());
  const double final_perp = sampler.history().back().perplexity;
  EXPECT_LT(final_perp, 0.85 * initial)
      << "initial=" << initial << " final=" << final_perp;
  // The oracle perplexity of this planted setting is ~1.9; the sampler
  // should be well on its way there.
  EXPECT_LT(final_perp, 2.6);
}

TEST_P(ParallelSamplerThreadsTest, StateStaysOnSimplexThroughoutTraining) {
  auto f = small_planted_fixture(777, 120, 3, 60);
  ParallelSampler sampler(f.split->training(), f.split.get(), f.hyper,
                          f.options, GetParam());
  for (int round = 0; round < 5; ++round) {
    sampler.run(40);
    const PiMatrix& pi = sampler.pi();
    for (std::uint32_t v = 0; v < pi.num_vertices(); ++v) {
      double sum = 0.0;
      for (std::uint32_t k = 0; k < pi.num_communities(); ++k) {
        ASSERT_GE(pi.pi(v, k), 0.0f);
        sum += pi.pi(v, k);
      }
      ASSERT_NEAR(sum, 1.0, 1e-4) << "vertex " << v;
      ASSERT_GT(pi.phi_sum(v), 0.0f);
    }
    for (std::uint32_t k = 0; k < f.hyper.num_communities; ++k) {
      ASSERT_GT(sampler.global().beta(k), 0.0f);
      ASSERT_LT(sampler.global().beta(k), 1.0f);
      ASSERT_GT(sampler.global().theta(k, 0), 0.0);
      ASSERT_GT(sampler.global().theta(k, 1), 0.0);
    }
  }
}

TEST_P(ParallelSamplerThreadsTest, FullyDeterministicAcrossRuns) {
  auto f1 = small_planted_fixture(99);
  auto f2 = small_planted_fixture(99);
  ParallelSampler a(f1.split->training(), f1.split.get(), f1.hyper,
                    f1.options, GetParam());
  ParallelSampler b(f2.split->training(), f2.split.get(), f2.hyper,
                    f2.options, GetParam());
  a.run(120);
  b.run(120);
  ASSERT_EQ(a.history().size(), b.history().size());
  for (std::size_t i = 0; i < a.history().size(); ++i) {
    EXPECT_DOUBLE_EQ(a.history()[i].perplexity, b.history()[i].perplexity);
  }
  for (std::uint32_t k = 0; k < f1.hyper.num_communities; ++k) {
    EXPECT_EQ(a.global().beta(k), b.global().beta(k));
  }
}

TEST_P(ParallelSamplerThreadsTest, DifferentSeedsDiverge) {
  auto f1 = small_planted_fixture(99);
  auto f2 = small_planted_fixture(99);
  f2.options.seed = f1.options.seed + 1;
  ParallelSampler a(f1.split->training(), f1.split.get(), f1.hyper,
                    f1.options, GetParam());
  ParallelSampler b(f2.split->training(), f2.split.get(), f2.hyper,
                    f2.options, GetParam());
  a.run(60);
  b.run(60);
  EXPECT_NE(a.history().back().perplexity, b.history().back().perplexity);
}

TEST_P(ParallelSamplerThreadsTest, RandomPairStrategyAlsoConverges) {
  auto f = small_planted_fixture(55);
  f.options.minibatch.strategy = graph::MinibatchStrategy::kRandomPair;
  f.options.minibatch.num_pairs = 64;
  ParallelSampler sampler(f.split->training(), f.split.get(), f.hyper,
                          f.options, GetParam());
  const double initial = sampler.evaluate_perplexity();
  sampler.run(1500);
  EXPECT_LT(sampler.history().back().perplexity, 0.9 * initial);
}

TEST_P(ParallelSamplerThreadsTest, RunsWithoutHeldOutSplit) {
  auto f = small_planted_fixture(66, 80, 3, 40);
  ParallelSampler sampler(f.generated.graph, nullptr, f.hyper, f.options,
                          GetParam());
  sampler.run(20);
  EXPECT_EQ(sampler.iteration(), 20u);
  EXPECT_TRUE(sampler.history().empty());
  EXPECT_THROW(sampler.evaluate_perplexity(), scd::UsageError);
}

TEST_P(ParallelSamplerThreadsTest, HistoryRecordsAtEvalInterval) {
  auto f = small_planted_fixture(44);
  f.options.eval_interval = 25;
  ParallelSampler sampler(f.split->training(), f.split.get(), f.hyper,
                          f.options, GetParam());
  sampler.run(100);
  ASSERT_EQ(sampler.history().size(), 4u);
  EXPECT_EQ(sampler.history()[0].iteration, 25u);
  EXPECT_EQ(sampler.history()[3].iteration, 100u);
}

INSTANTIATE_TEST_SUITE_P(Threads, ParallelSamplerThreadsTest,
                         ::testing::Values(1u, 3u));

TEST(ParallelSamplerTest, PerplexityDropsWithMultipleThreads) {
  auto f = small_planted_fixture(2718);
  ParallelSampler sampler(f.split->training(), f.split.get(), f.hyper,
                          f.options, 4);
  const double initial = sampler.evaluate_perplexity();
  sampler.run(1000);
  EXPECT_LT(sampler.history().back().perplexity, 0.88 * initial);
}


TEST(ParallelSamplerTest, LinkAwareModeIsThreadCountIndependent) {
  auto f = small_planted_fixture(1357, 150, 4, 80);
  f.options.eval_interval = 20;
  f.options.neighbor_mode = NeighborMode::kLinkAware;
  ParallelSampler one(f.split->training(), f.split.get(), f.hyper,
                      f.options, 1);
  ParallelSampler four(f.split->training(), f.split.get(), f.hyper,
                       f.options, 4);
  one.run(60);
  four.run(60);
  ASSERT_EQ(one.history().size(), four.history().size());
  for (std::size_t i = 0; i < one.history().size(); ++i) {
    EXPECT_EQ(four.history()[i].perplexity, one.history()[i].perplexity);
  }
}

TEST(ParallelSamplerTest, ThreadCountIsReported) {
  auto f = small_planted_fixture(1, 60, 3, 30);
  ParallelSampler sampler(f.split->training(), f.split.get(), f.hyper,
                          f.options, 3);
  EXPECT_EQ(sampler.num_threads(), 3u);
}

}  // namespace
}  // namespace scd::core
