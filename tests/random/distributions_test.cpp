#include "random/distributions.h"

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <vector>

#include "util/error.h"

namespace scd::rng {
namespace {

struct Moments {
  double mean = 0.0;
  double var = 0.0;
};

template <typename Draw>
Moments sample_moments(int n, Draw&& draw) {
  std::vector<double> xs(n);
  for (double& x : xs) x = draw();
  const double mean =
      std::accumulate(xs.begin(), xs.end(), 0.0) / static_cast<double>(n);
  double var = 0.0;
  for (double x : xs) var += (x - mean) * (x - mean);
  var /= static_cast<double>(n - 1);
  return {mean, var};
}

TEST(DistributionsTest, StandardNormalMoments) {
  Xoshiro256 rng(42);
  const Moments m =
      sample_moments(200000, [&] { return sample_standard_normal(rng); });
  EXPECT_NEAR(m.mean, 0.0, 0.01);
  EXPECT_NEAR(m.var, 1.0, 0.02);
}

// The batched sampler is a drop-in for serial calls: same values, same
// order, same engine state afterwards, across block boundaries (64) and
// the empty batch.
TEST(DistributionsTest, BatchedNormalsMatchSerialCalls) {
  std::vector<double> batch;
  for (std::size_t n : {0u, 1u, 63u, 64u, 257u}) {
    batch.resize(n);
    for (std::uint64_t seed = 0; seed < 1000; ++seed) {
      Xoshiro256 serial(seed);
      Xoshiro256 batched(seed);
      sample_standard_normals(batched, batch);
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(batch[i], sample_standard_normal(serial))
            << "n=" << n << " seed=" << seed << " i=" << i;
      }
      ASSERT_TRUE(serial == batched) << "n=" << n << " seed=" << seed;
    }
  }
}

// Gamma(shape, 1): mean = shape, var = shape. Sweep shapes both below and
// above 1 to exercise the boost path and the Marsaglia-Tsang path.
class GammaMomentsTest : public ::testing::TestWithParam<double> {};

TEST_P(GammaMomentsTest, MeanAndVarianceMatch) {
  const double shape = GetParam();
  Xoshiro256 rng(7);
  const Moments m =
      sample_moments(200000, [&] { return sample_gamma(rng, shape); });
  EXPECT_NEAR(m.mean, shape, 0.03 * std::max(1.0, shape));
  EXPECT_NEAR(m.var, shape, 0.08 * std::max(1.0, shape));
}

INSTANTIATE_TEST_SUITE_P(Shapes, GammaMomentsTest,
                         ::testing::Values(0.05, 0.3, 0.9, 1.0, 2.5, 10.0));

TEST(DistributionsTest, GammaScaleApplies) {
  Xoshiro256 rng(8);
  const Moments m =
      sample_moments(100000, [&] { return sample_gamma(rng, 2.0, 3.0); });
  EXPECT_NEAR(m.mean, 6.0, 0.15);
}

TEST(DistributionsTest, GammaAlwaysPositive) {
  Xoshiro256 rng(3);
  for (int i = 0; i < 10000; ++i) {
    ASSERT_GT(sample_gamma(rng, 0.01), 0.0);
  }
}

TEST(DistributionsTest, GammaRejectsBadShape) {
  Xoshiro256 rng(1);
  EXPECT_THROW(sample_gamma(rng, 0.0), scd::UsageError);
  EXPECT_THROW(sample_gamma(rng, -1.0), scd::UsageError);
}

// Beta(a, b): mean a/(a+b), var ab/((a+b)^2 (a+b+1)).
class BetaMomentsTest
    : public ::testing::TestWithParam<std::pair<double, double>> {};

TEST_P(BetaMomentsTest, MomentsMatch) {
  const auto [a, b] = GetParam();
  Xoshiro256 rng(21);
  const Moments m =
      sample_moments(150000, [&] { return sample_beta(rng, a, b); });
  const double mean = a / (a + b);
  const double var = a * b / ((a + b) * (a + b) * (a + b + 1));
  EXPECT_NEAR(m.mean, mean, 0.01);
  EXPECT_NEAR(m.var, var, 0.1 * var + 1e-4);
}

INSTANTIATE_TEST_SUITE_P(
    Params, BetaMomentsTest,
    ::testing::Values(std::pair{1.0, 1.0}, std::pair{5.0, 1.0},
                      std::pair{0.5, 0.5}, std::pair{2.0, 8.0}));

TEST(DistributionsTest, ExponentialMean) {
  Xoshiro256 rng(13);
  const Moments m =
      sample_moments(100000, [&] { return sample_exponential(rng, 4.0); });
  EXPECT_NEAR(m.mean, 0.25, 0.005);
}

TEST(DistributionsTest, DirichletSumsToOneAndMatchesMean) {
  Xoshiro256 rng(31);
  constexpr std::size_t kDim = 5;
  std::vector<double> acc(kDim, 0.0);
  constexpr int kDraws = 20000;
  for (int i = 0; i < kDraws; ++i) {
    std::vector<double> x(kDim);
    sample_dirichlet(rng, 0.5, x);
    double sum = 0.0;
    for (std::size_t j = 0; j < kDim; ++j) {
      ASSERT_GE(x[j], 0.0);
      sum += x[j];
      acc[j] += x[j];
    }
    ASSERT_NEAR(sum, 1.0, 1e-9);
  }
  for (double a : acc) {
    EXPECT_NEAR(a / kDraws, 1.0 / kDim, 0.01);
  }
}

TEST(DistributionsTest, GeneralDirichletMatchesAlphaRatios) {
  Xoshiro256 rng(32);
  const std::vector<double> alpha = {1.0, 2.0, 7.0};
  std::vector<double> acc(3, 0.0);
  constexpr int kDraws = 20000;
  for (int i = 0; i < kDraws; ++i) {
    std::vector<double> x(3);
    sample_dirichlet(rng, alpha, x);
    for (int j = 0; j < 3; ++j) acc[static_cast<std::size_t>(j)] += x[static_cast<std::size_t>(j)];
  }
  EXPECT_NEAR(acc[0] / kDraws, 0.1, 0.01);
  EXPECT_NEAR(acc[1] / kDraws, 0.2, 0.01);
  EXPECT_NEAR(acc[2] / kDraws, 0.7, 0.01);
}

TEST(DistributionsTest, CategoricalFollowsProbabilities) {
  Xoshiro256 rng(55);
  const std::vector<double> probs = {0.1, 0.6, 0.3};
  std::vector<int> counts(3, 0);
  constexpr int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) {
    ++counts[sample_categorical(rng, probs)];
  }
  EXPECT_NEAR(counts[0] / double(kDraws), 0.1, 0.01);
  EXPECT_NEAR(counts[1] / double(kDraws), 0.6, 0.01);
  EXPECT_NEAR(counts[2] / double(kDraws), 0.3, 0.01);
}

}  // namespace
}  // namespace scd::rng
