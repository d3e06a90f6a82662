#include "core/perplexity.h"

#include <gtest/gtest.h>

#include <cmath>

#include "core/grads.h"
#include "core/kernels_simd.h"
#include "util/error.h"

namespace scd::core {
namespace {

TEST(PerplexityTest, SingleSampleMatchesClosedForm) {
  const std::vector<graph::HeldOutPair> pairs = {
      {0, 1, true}, {2, 3, false}};
  PerplexityEvaluator eval(pairs);
  eval.add_sample_prob(0, 0.5);
  eval.add_sample_prob(1, 0.25);
  eval.finish_sample();
  const double expected_sum = std::log(0.5) + std::log(0.25);
  EXPECT_NEAR(eval.sum_log_avg(), expected_sum, 1e-12);
  EXPECT_NEAR(PerplexityEvaluator::perplexity(eval.sum_log_avg(), 2),
              std::exp(-expected_sum / 2.0), 1e-12);
}

TEST(PerplexityTest, AveragesProbabilitiesNotLogs) {
  // Eqn 7 averages p across samples *before* the log.
  const std::vector<graph::HeldOutPair> pairs = {{0, 1, true}};
  PerplexityEvaluator eval(pairs);
  eval.add_sample_prob(0, 0.1);
  eval.finish_sample();
  eval.add_sample_prob(0, 0.9);
  eval.finish_sample();
  EXPECT_NEAR(eval.sum_log_avg(), std::log(0.5), 1e-12);
  EXPECT_EQ(eval.num_samples(), 2u);
}

TEST(PerplexityTest, PerfectPredictionGivesPerplexityOne) {
  EXPECT_NEAR(PerplexityEvaluator::perplexity(0.0, 10), 1.0, 1e-12);
}

TEST(PerplexityTest, WorsePredictionsGiveHigherPerplexity) {
  const double good = PerplexityEvaluator::perplexity(10 * std::log(0.8), 10);
  const double bad = PerplexityEvaluator::perplexity(10 * std::log(0.2), 10);
  EXPECT_GT(bad, good);
  EXPECT_GT(good, 1.0);
}

TEST(PerplexityTest, EmptyCasesThrow) {
  const std::vector<graph::HeldOutPair> pairs = {{0, 1, true}};
  PerplexityEvaluator eval(pairs);
  EXPECT_THROW(eval.sum_log_avg(), scd::UsageError);  // no samples yet
  EXPECT_THROW(PerplexityEvaluator::perplexity(0.0, 0), scd::UsageError);
}

TEST(PerplexityTest, EvaluateHelperUsesRowProvider) {
  const std::vector<graph::HeldOutPair> pairs = {{0, 1, true},
                                                 {0, 1, false}};
  PerplexityEvaluator eval(pairs);
  // Two vertices, K = 2, both fully in community 0 with beta_0 = 0.7.
  const std::vector<float> row = {1.0f, 0.0f, 1.0f};  // [pi | phi_sum]
  LikelihoodTerms terms;
  const std::vector<float> beta = {0.7f, 0.5f};
  terms.refresh(beta, 0.01);
  // One sample, recorded the way the samplers do: a row provider per
  // vertex, one likelihood per held-out pair.
  auto row_of = [&](graph::Vertex) { return std::span<const float>(row); };
  for (std::size_t i = 0; i < eval.size(); ++i) {
    const graph::HeldOutPair& p = eval.slice()[i];
    eval.add_sample_prob(
        i, fast_pair_likelihood(row_of(p.a), row_of(p.b), terms, p.link));
  }
  eval.finish_sample();
  const double perp =
      PerplexityEvaluator::perplexity(eval.sum_log_avg(), eval.size());
  // p(link) = 0.7, p(non-link) = 0.3.
  const double expected =
      std::exp(-(std::log(0.7) + std::log(0.3)) / 2.0);
  EXPECT_NEAR(perp, expected, 1e-6);
}

}  // namespace
}  // namespace scd::core
