// Scalar vs fused kernel equivalence over randomized rows.
//
// Tolerance: the fused kernels stage per-term products in float and fold
// blocks of float partial sums into a double carry. Every term of the
// Z-like sums is non-negative (w_k >= min(bt_k, dt) > 0), so there is no
// cancellation and the relative error is a few float ulps per
// kFusedBlock-element block — observed ~2e-8 at K = 12288, bounded here
// by kFusedRelTolerance = 1e-5 with a wide margin. Gradient and ratio
// entries are O(1) magnitudes, checked with the same mixed
// absolute/relative bound.
#include "core/kernels_simd.h"

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "random/xoshiro.h"

namespace scd::core {
namespace {

constexpr std::uint32_t kSizes[] = {1, 3, 7, 64, 1000, 12288};

std::vector<float> random_row(rng::Xoshiro256& rng, std::uint32_t k,
                              float phi_sum) {
  std::vector<float> row(k + 1);
  double sum = 0.0;
  for (std::uint32_t i = 0; i < k; ++i) {
    row[i] = static_cast<float>(rng.next_double()) + 1e-6f;
    sum += row[i];
  }
  const float inv = static_cast<float>(1.0 / sum);
  for (std::uint32_t i = 0; i < k; ++i) row[i] *= inv;
  row[k] = phi_sum;
  return row;
}

LikelihoodTerms random_terms(rng::Xoshiro256& rng, std::uint32_t k) {
  std::vector<float> beta(k);
  for (float& b : beta) {
    b = 0.05f + 0.9f * static_cast<float>(rng.next_double());
  }
  LikelihoodTerms terms;
  terms.refresh(beta, 0.01);
  return terms;
}

void expect_close(double fused, double scalar, const char* what,
                  std::uint32_t k, bool y) {
  EXPECT_NEAR(fused, scalar,
              kFusedRelTolerance * (1.0 + std::abs(scalar)))
      << what << " K=" << k << " y=" << y;
}

TEST(KernelsSimdTest, PairLikelihoodMatchesScalar) {
  rng::Xoshiro256 rng(11);
  for (std::uint32_t k : kSizes) {
    const LikelihoodTerms terms = random_terms(rng, k);
    const std::vector<float> row_a = random_row(rng, k, 2.0f);
    const std::vector<float> row_b = random_row(rng, k, 3.0f);
    for (bool y : {false, true}) {
      const double scalar = pair_likelihood(row_a, row_b, terms, y);
      const double fused = fast_pair_likelihood(row_a, row_b, terms, y);
      expect_close(fused, scalar, "Z", k, y);
    }
  }
}

TEST(KernelsSimdTest, PhiGradMatchesScalar) {
  rng::Xoshiro256 rng(13);
  for (std::uint32_t k : kSizes) {
    const LikelihoodTerms terms = random_terms(rng, k);
    const std::vector<float> row_a = random_row(rng, k, 2.0f);
    const std::vector<float> row_b = random_row(rng, k, 3.0f);
    std::vector<float> w(k);
    for (bool y : {false, true}) {
      std::vector<double> g_scalar(k, 0.0);
      std::vector<double> g_fused(k, 0.0);
      const double z_scalar =
          accumulate_phi_grad(row_a, row_b, terms, y, g_scalar);
      const double z_fused =
          fast_accumulate_phi_grad(row_a, row_b, terms, y, g_fused, w);
      expect_close(z_fused, z_scalar, "phi-grad Z", k, y);
      for (std::uint32_t i = 0; i < k; ++i) {
        ASSERT_NEAR(g_fused[i], g_scalar[i],
                    kFusedRelTolerance * (1.0 + std::abs(g_scalar[i])))
            << "grad[" << i << "] K=" << k << " y=" << y;
      }
    }
  }
}

TEST(KernelsSimdTest, ThetaRatioMatchesScalar) {
  rng::Xoshiro256 rng(17);
  for (std::uint32_t k : kSizes) {
    const LikelihoodTerms terms = random_terms(rng, k);
    const std::vector<float> row_a = random_row(rng, k, 2.0f);
    const std::vector<float> row_b = random_row(rng, k, 3.0f);
    std::vector<float> f(k);
    for (bool y : {false, true}) {
      std::vector<double> r_scalar(k, 0.0);
      std::vector<double> r_fused(k, 0.0);
      const double z_scalar =
          accumulate_theta_ratio(row_a, row_b, terms, y, r_scalar);
      const double z_fused =
          fast_accumulate_theta_ratio(row_a, row_b, terms, y, r_fused, f);
      expect_close(z_fused, z_scalar, "ratio Z", k, y);
      for (std::uint32_t i = 0; i < k; ++i) {
        ASSERT_NEAR(r_fused[i], r_scalar[i],
                    kFusedRelTolerance * (1.0 + std::abs(r_scalar[i])))
            << "ratio[" << i << "] K=" << k << " y=" << y;
      }
    }
  }
}

// Accumulation semantics (+=) must be preserved: calling twice doubles.
TEST(KernelsSimdTest, FusedKernelsAccumulate) {
  rng::Xoshiro256 rng(29);
  const std::uint32_t k = 64;
  const LikelihoodTerms terms = random_terms(rng, k);
  const std::vector<float> row_a = random_row(rng, k, 2.0f);
  const std::vector<float> row_b = random_row(rng, k, 3.0f);
  std::vector<float> w(k);
  std::vector<double> once(k, 0.0);
  std::vector<double> twice(k, 0.0);
  fast_accumulate_phi_grad(row_a, row_b, terms, true, once, w);
  fast_accumulate_phi_grad(row_a, row_b, terms, true, twice, w);
  fast_accumulate_phi_grad(row_a, row_b, terms, true, twice, w);
  for (std::uint32_t i = 0; i < k; ++i) {
    EXPECT_NEAR(twice[i], 2.0 * once[i], 1e-12) << i;
  }
}

// The fused SGRLD row update draws the identical noise stream and runs
// the identical per-element arithmetic as the scalar path; only the
// new_sum reduction is reassociated, so the normalized row agrees to a
// couple of float ulps.
TEST(KernelsSimdTest, UpdatePhiRowMatchesScalar) {
  rng::Xoshiro256 rng(19);
  for (std::uint32_t k : kSizes) {
    std::vector<double> grad(k);
    for (double& g : grad) g = 2.0 * rng.next_double() - 1.0;
    std::vector<double> noise(k);
    for (GradientForm form :
         {GradientForm::kRawEqn3, GradientForm::kPreconditioned}) {
      std::vector<float> scalar_row = random_row(rng, k, 2.0f);
      std::vector<float> fused_row = scalar_row;
      update_phi_row(/*seed=*/3, /*iteration=*/5, /*vertex=*/9, scalar_row,
                     grad, /*scale=*/40.0, /*eps=*/0.01, /*alpha=*/0.1,
                     /*noise_factor=*/1.0, form);
      fast_update_phi_row(3, 5, 9, fused_row, grad, 40.0, 0.01, 0.1, 1.0,
                          form, noise);
      for (std::uint32_t i = 0; i <= k; ++i) {
        ASSERT_NEAR(fused_row[i], scalar_row[i],
                    1e-5 * (1.0 + std::abs(scalar_row[i])))
            << "row[" << i << "] K=" << k;
      }
    }
  }
}

// No exception may leave an SCD_KERNEL clone (util/isa_clones.h): a
// failed invariant inside one prints the invariant message and aborts.
TEST(KernelsSimdDeathTest, InvariantFailureAborts) {
  rng::Xoshiro256 rng(23);
  constexpr std::uint32_t k = 8;
  const LikelihoodTerms terms = random_terms(rng, k);
  const std::vector<float> row_a = random_row(rng, k, 2.0f);
  const std::vector<float> row_b = random_row(rng, k, 2.0f);
  std::vector<double> grad(k - 1);  // one entry short
  std::vector<float> w(k);
  EXPECT_DEATH(fast_accumulate_phi_grad(row_a, row_b, terms, true, grad, w),
               "invariant violated.*gradient size mismatch");
}

}  // namespace
}  // namespace scd::core
