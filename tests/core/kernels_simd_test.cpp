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

#include <bit>
#include <cmath>
#include <cstddef>
#include <vector>

#include <gtest/gtest.h>

#include "core/phi_kernel.h"
#include "quant/row_codec.h"
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

// -- tiled phi gradient ----------------------------------------------------
// The tiled kernel must add, to every gradient entry, the same doubles in
// the same order as one single-neighbor call per neighbor in set order,
// so exact, sampled and each Z are compared bit for bit.

std::vector<std::uint64_t> bits(const std::vector<double>& v) {
  std::vector<std::uint64_t> out;
  for (double x : v) out.push_back(std::bit_cast<std::uint64_t>(x));
  return out;
}

TEST(KernelsSimdTest, PhiTileWidthKeepsTheWTileWithin32KB) {
  EXPECT_EQ(phi_tile_width(1), kPhiTileMax);
  EXPECT_EQ(phi_tile_width(64), 32u);
  EXPECT_EQ(phi_tile_width(256), 32u);
  EXPECT_EQ(phi_tile_width(257), 31u);
  EXPECT_EQ(phi_tile_width(1024), 8u);
  EXPECT_EQ(phi_tile_width(8192), 1u);
  EXPECT_EQ(phi_tile_width(12288), 1u);
  for (std::size_t k : {1u, 63u, 300u, 5000u}) {
    EXPECT_LE(phi_tile_width(k) * k * sizeof(float), 32u * 1024u) << k;
  }
}

TEST(KernelsSimdTest, PhiGradTileEqualsPerNeighborCalls) {
  rng::Xoshiro256 rng(31);
  constexpr std::size_t kMaxSet = 97;
  for (std::uint32_t k : {1u, 7u, 63u, 64u, 65u, 256u}) {
    const LikelihoodTerms terms = random_terms(rng, k);
    const std::vector<float> row_a = random_row(rng, k, 2.5f);
    std::vector<std::vector<float>> rows;
    for (std::size_t i = 0; i < kMaxSet; ++i) {
      rows.push_back(random_row(rng, k, 1.0f + 0.1f * i));
    }
    // (codec, encoded rows); kFloat32 also drives the float-span path.
    const quant::RowCodec codecs[] = {quant::RowCodec::kFloat32,
                                      quant::RowCodec::kFp16,
                                      quant::RowCodec::kInt8};
    for (std::size_t size : {0u, 1u, 31u, 32u, 33u, 97u}) {
      graph::NeighborSet set;
      for (std::size_t i = 0; i < size; ++i) {
        set.samples.push_back(
            {static_cast<graph::Vertex>(i), rng.next_double() < 0.4});
      }
      // Prefixes ending inside the first and the second tile, plus the
      // all-sampled and all-exact sets.
      for (std::size_t prefix : {std::size_t{0}, std::min<std::size_t>(5, size),
                                 std::min<std::size_t>(45, size), size}) {
        set.exact_prefix = prefix;
        for (quant::RowCodec codec : codecs) {
          const std::size_t vb = quant::encoded_bytes(codec, k + 1);
          std::vector<std::byte> enc(kMaxSet * vb);
          for (std::size_t i = 0; i < kMaxSet; ++i) {
            quant::encode_row(codec, rows[i], {enc.data() + i * vb, vb});
          }
          auto enc_row = [&](std::size_t i) {
            return std::span<const std::byte>(enc.data() + i * vb, vb);
          };
          std::vector<double> ref_exact(k, 0.0), ref_sampled(k, 0.0);
          std::vector<double> ref_z;
          std::vector<float> w(k);
          for (std::size_t i = 0; i < size; ++i) {
            auto& target = i < prefix ? ref_exact : ref_sampled;
            ref_z.push_back(fast_accumulate_phi_grad_enc(
                codec, row_a, enc_row(i), terms, set.samples[i].link,
                target, w));
          }
          PhiScratch scratch(k);
          std::vector<double> z(size, -1.0);
          accumulate_phi_grad_set_enc(codec, row_a, set, enc_row, terms,
                                      scratch, z);
          const std::string where = std::string(quant::codec_name(codec)) +
                                    " K=" + std::to_string(k) +
                                    " n=" + std::to_string(size) +
                                    " prefix=" + std::to_string(prefix);
          EXPECT_EQ(bits(scratch.exact), bits(ref_exact)) << where;
          EXPECT_EQ(bits(scratch.sampled), bits(ref_sampled)) << where;
          EXPECT_EQ(bits(z), bits(ref_z)) << where;
          if (codec != quant::RowCodec::kFloat32) continue;

          // The float-span path against the float single-neighbor calls,
          // on a scratch that already holds a previous set's sums.
          std::fill(ref_exact.begin(), ref_exact.end(), 0.0);
          std::fill(ref_sampled.begin(), ref_sampled.end(), 0.0);
          ref_z.clear();
          for (std::size_t i = 0; i < size; ++i) {
            auto& target = i < prefix ? ref_exact : ref_sampled;
            ref_z.push_back(fast_accumulate_phi_grad(
                row_a, rows[i], terms, set.samples[i].link, target, w));
          }
          accumulate_phi_grad_set(
              row_a, set,
              [&](std::size_t i) { return std::span<const float>(rows[i]); },
              terms, scratch, z);
          EXPECT_EQ(bits(scratch.exact), bits(ref_exact)) << where;
          EXPECT_EQ(bits(scratch.sampled), bits(ref_sampled)) << where;
          EXPECT_EQ(bits(z), bits(ref_z)) << where;
        }
      }
    }
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
