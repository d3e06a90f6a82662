#include "random/distributions.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <span>
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

/// Scalar oracle of the batched stream: one polar pair per try, both
/// variates of an accepted pair, the last v dropped at an odd length.
std::vector<double> polar_pair_oracle(Xoshiro256& rng, std::size_t n) {
  std::vector<double> out;
  while (out.size() < n) {
    const double u = 2.0 * rng.next_double() - 1.0;
    const double v = 2.0 * rng.next_double() - 1.0;
    const double s = u * u + v * v;
    if (!(s > 0.0 && s < 1.0)) continue;
    const double m = std::sqrt(-2.0 * log_positive(s) / s);
    out.push_back(u * m);
    if (out.size() < n) out.push_back(v * m);
  }
  return out;
}

// The batch takes the same accepted pairs as the oracle, writes the same
// bits and leaves the engine in the same state, across block boundaries
// (32 pairs), odd and even lengths and the empty batch.
TEST(DistributionsTest, BatchedNormalsMatchPolarPairOracle) {
  std::vector<double> batch;
  for (std::size_t n : {0u, 1u, 2u, 3u, 63u, 64u, 65u, 128u, 257u}) {
    batch.resize(n);
    for (std::uint64_t seed = 0; seed < 1000; ++seed) {
      Xoshiro256 oracle(seed);
      Xoshiro256 batched(seed);
      sample_standard_normals(batched, batch);
      const std::vector<double> expected = polar_pair_oracle(oracle, n);
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(batch[i], expected[i])
            << "n=" << n << " seed=" << seed << " i=" << i;
      }
      ASSERT_TRUE(oracle == batched) << "n=" << n << " seed=" << seed;
    }
  }
}

// An even-length batch gives the same values, and the same engine state,
// however it is cut into even-length calls; an odd final call is the
// prefix of the even one, with the engine where the even call leaves it.
TEST(DistributionsTest, EvenBatchesAreSplitInvariant) {
  const std::vector<std::vector<std::size_t>> splits = {
      {256}, {2, 254}, {64, 64, 128}, {62, 2, 190, 2}, {100, 156},
      {130, 126}};
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    Xoshiro256 whole_rng(seed);
    std::vector<double> whole(256);
    sample_standard_normals(whole_rng, whole);
    for (const auto& cuts : splits) {
      Xoshiro256 rng(seed);
      std::vector<double> joined(256);
      std::size_t at = 0;
      for (std::size_t len : cuts) {
        sample_standard_normals(rng, std::span(joined).subspan(at, len));
        at += len;
      }
      ASSERT_EQ(joined, whole) << "seed=" << seed;
      ASSERT_TRUE(rng == whole_rng) << "seed=" << seed;
    }
    for (std::size_t odd : {1u, 63u, 65u, 255u}) {
      Xoshiro256 even_rng(seed);
      std::vector<double> even(odd + 1);
      sample_standard_normals(even_rng, even);
      Xoshiro256 odd_rng(seed);
      std::vector<double> prefix(odd);
      sample_standard_normals(odd_rng, prefix);
      ASSERT_TRUE(std::equal(prefix.begin(), prefix.end(), even.begin()))
          << "seed=" << seed << " n=" << odd;
      ASSERT_TRUE(odd_rng == even_rng) << "seed=" << seed << " n=" << odd;
    }
  }
}

/// Distance in units in the last place between two finite doubles of
/// the same sign (or zeros).
std::uint64_t ulp_distance(double a, double b) {
  if (a == b) return 0;
  auto key = [](double x) {
    const auto bits = std::bit_cast<std::int64_t>(x);
    return bits < 0 ? std::numeric_limits<std::int64_t>::min() - bits : bits;
  };
  const std::int64_t ka = key(a);
  const std::int64_t kb = key(b);
  return ka > kb ? static_cast<std::uint64_t>(ka - kb)
                 : static_cast<std::uint64_t>(kb - ka);
}

// 10^7 inputs in (0, 1]: uniform draws, every binade down through the
// subnormals, the doubles right below 1 and the range the polar
// acceptance actually feeds (s = u^2 + v^2 with 53-bit u, v).
TEST(DistributionsTest, LogPositiveIsWithinTwoUlpOfStdLog) {
  Xoshiro256 rng(20261020);
  std::uint64_t worst = 0;
  double worst_x = 1.0;
  auto check = [&](double x) {
    const std::uint64_t d = ulp_distance(log_positive(x), std::log(x));
    if (d > worst) {
      worst = d;
      worst_x = x;
    }
  };
  constexpr int kPerKind = 2'000'000;
  for (int i = 0; i < kPerKind; ++i) {
    double x = rng.next_double();
    check(x == 0.0 ? 0x1p-53 : x);
  }
  for (int i = 0; i < kPerKind; ++i) {  // any exponent, subnormals too
    const std::uint64_t exponent = rng.next_below(1023);  // 0 .. 2^-1
    const std::uint64_t mantissa = rng() >> 12;
    const double x = std::bit_cast<double>((exponent << 52) | mantissa);
    check(x == 0.0 ? 0x1p-1074 : x);
  }
  for (int i = 0; i < kPerKind; ++i) {  // the last 2^20 doubles below 1
    check(1.0 - static_cast<double>(rng.next_below(1u << 20) + 1) * 0x1p-53);
  }
  for (int i = 0; i < kPerKind; ++i) {  // within 1e-3 of 1
    check(1.0 - 1e-3 * rng.next_double());
  }
  for (int i = 0; i < kPerKind; ++i) {  // polar s values, tiny ones included
    const double u = 2.0 * rng.next_double() - 1.0;
    const double v = 1e-9 * (2.0 * rng.next_double() - 1.0);
    const double s = (i % 2 == 0 ? u * u : 0.0) + v * v;
    check(s > 0.0 && s < 1.0 ? s : 0.5);
  }
  EXPECT_LE(worst, 2u) << "worst input " << worst_x;
  EXPECT_EQ(log_positive(1.0), 0.0);
  EXPECT_EQ(log_positive(0.5), std::log(0.5));
  EXPECT_EQ(log_positive(0x1p-1074), std::log(0x1p-1074));
  EXPECT_EQ(log_positive(0x1p-1022), std::log(0x1p-1022));
}

/// Standard normal CDF.
double phi_cdf(double z) { return 0.5 * std::erfc(-z / std::sqrt(2.0)); }

// n = 10^6 from one batch call with a fixed seed, judged against N(0, 1)
// at about five standard errors: the four moments, the KS statistic
// under its 1% critical value, the two-sided tail masses at 2, 3 and 4,
// and no correlation between the two variates of a pair.
TEST(DistributionsTest, BatchedNormalsAreStandardNormal) {
  constexpr std::size_t kN = 1'000'000;
  const double n = static_cast<double>(kN);
  std::vector<double> z(kN);
  Xoshiro256 rng(3601);
  sample_standard_normals(rng, z);

  double m1 = 0.0, m2 = 0.0, m3 = 0.0, m4 = 0.0;
  for (double x : z) {
    m1 += x;
    m2 += x * x;
    m3 += x * x * x;
    m4 += x * x * x * x;
  }
  m1 /= n;
  m2 /= n;
  m3 /= n;
  m4 /= n;
  // Standard errors of the raw moments of N(0,1): sqrt(Var(x^k) / n)
  // with Var = 1, 2, 15 and 96.
  EXPECT_NEAR(m1, 0.0, 5.0 * std::sqrt(1.0 / n));
  EXPECT_NEAR(m2, 1.0, 5.0 * std::sqrt(2.0 / n));
  EXPECT_NEAR(m3, 0.0, 5.0 * std::sqrt(15.0 / n));
  EXPECT_NEAR(m4, 3.0, 5.0 * std::sqrt(96.0 / n));

  double pair_cov = 0.0;
  for (std::size_t i = 0; i + 1 < kN; i += 2) pair_cov += z[i] * z[i + 1];
  pair_cov /= n / 2.0;
  EXPECT_NEAR(pair_cov, 0.0, 5.0 * std::sqrt(2.0 / n));

  for (double t : {2.0, 3.0, 4.0}) {
    const double expected = 2.0 * phi_cdf(-t);
    const double observed =
        static_cast<double>(std::count_if(
            z.begin(), z.end(), [t](double x) { return std::abs(x) > t; })) /
        n;
    EXPECT_NEAR(observed, expected,
                5.0 * std::sqrt(expected * (1.0 - expected) / n))
        << "|z| > " << t;
  }

  std::sort(z.begin(), z.end());
  double ks = 0.0;
  for (std::size_t i = 0; i < kN; ++i) {
    const double cdf = phi_cdf(z[i]);
    ks = std::max({ks, static_cast<double>(i + 1) / n - cdf,
                   cdf - static_cast<double>(i) / n});
  }
  EXPECT_LT(ks, 1.628 / std::sqrt(n));  // Kolmogorov 1% critical value
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
