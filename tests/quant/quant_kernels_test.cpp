// Dequant-fused kernels vs their float-span counterparts.
//
// Two properties. Under kFloat32 the enc kernels must be *bit-identical*
// to the float kernels — the reader is a raw float load and the lane
// arithmetic is the same; this is what makes the codec plumbing
// transparent for default configurations (asserted with EXPECT_EQ, no
// tolerance). Under the lossy codecs the enc kernels must agree with the
// float kernels evaluated on the decoded row: dequantization happens
// in-register but produces the same values decode_row materializes, so
// the comparison tolerance covers only float reassociation, not
// quantization error.
#include "core/kernels_simd.h"

#include <cstddef>
#include <vector>

#include <gtest/gtest.h>

#include "quant/row_codec.h"
#include "random/xoshiro.h"

namespace scd::core {
namespace {

using quant::RowCodec;

constexpr std::uint32_t kSizes[] = {1, 3, 7, 64, 1000, 4096};
constexpr RowCodec kLossy[] = {RowCodec::kFp16, RowCodec::kInt8};

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

std::vector<std::byte> encode(RowCodec codec, std::span<const float> row) {
  std::vector<std::byte> enc(quant::encoded_bytes(
      codec, static_cast<std::uint32_t>(row.size())));
  quant::encode_row(codec, row, enc);
  return enc;
}

std::vector<float> decode(RowCodec codec,
                          std::span<const std::byte> enc,
                          std::uint32_t width) {
  std::vector<float> row(width);
  quant::decode_row(codec, enc, row);
  return row;
}

TEST(QuantKernelsTest, Fp32PairLikelihoodIsBitIdentical) {
  rng::Xoshiro256 rng(51);
  for (const std::uint32_t k : kSizes) {
    const LikelihoodTerms terms = random_terms(rng, k);
    const std::vector<float> a = random_row(rng, k, 2.0f);
    const std::vector<float> b = random_row(rng, k, 3.0f);
    const auto ea = encode(RowCodec::kFloat32, a);
    const auto eb = encode(RowCodec::kFloat32, b);
    for (const bool y : {false, true}) {
      EXPECT_EQ(fast_pair_likelihood_enc(RowCodec::kFloat32, ea, eb, k,
                                         terms, y),
                fast_pair_likelihood(a, b, terms, y))
          << "fused K=" << k << " y=" << y;
    }
  }
}

TEST(QuantKernelsTest, Fp32PhiGradIsBitIdentical) {
  rng::Xoshiro256 rng(53);
  for (const std::uint32_t k : kSizes) {
    const LikelihoodTerms terms = random_terms(rng, k);
    const std::vector<float> a = random_row(rng, k, 2.0f);
    const std::vector<float> b = random_row(rng, k, 3.0f);
    const auto eb = encode(RowCodec::kFloat32, b);
    std::vector<float> w(k);
    for (const bool y : {false, true}) {
      std::vector<double> g_ref(k, 0.5);
      std::vector<double> g_enc(k, 0.5);
      const double z_ref =
          fast_accumulate_phi_grad(a, b, terms, y, g_ref, w);
      const double z_enc = fast_accumulate_phi_grad_enc(
          RowCodec::kFloat32, a, eb, terms, y, g_enc, w);
      EXPECT_EQ(z_enc, z_ref) << "K=" << k << " y=" << y;
      EXPECT_EQ(g_enc, g_ref) << "K=" << k << " y=" << y;
    }
  }
}

TEST(QuantKernelsTest, Fp32ThetaRatioIsBitIdentical) {
  rng::Xoshiro256 rng(55);
  for (const std::uint32_t k : kSizes) {
    const LikelihoodTerms terms = random_terms(rng, k);
    const std::vector<float> a = random_row(rng, k, 2.0f);
    const std::vector<float> b = random_row(rng, k, 3.0f);
    const auto ea = encode(RowCodec::kFloat32, a);
    const auto eb = encode(RowCodec::kFloat32, b);
    std::vector<float> f(k);
    for (const bool y : {false, true}) {
      std::vector<double> r_ref(k, 0.25);
      std::vector<double> r_enc(k, 0.25);
      const double z_ref =
          fast_accumulate_theta_ratio(a, b, terms, y, r_ref, f);
      const double z_enc = fast_accumulate_theta_ratio_enc(
          RowCodec::kFloat32, ea, eb, k, terms, y, r_enc, f);
      EXPECT_EQ(z_enc, z_ref) << "K=" << k << " y=" << y;
      EXPECT_EQ(r_enc, r_ref) << "K=" << k << " y=" << y;
    }
  }
}

// Lossy codecs: the enc kernel on encoded rows must match the float
// kernel on the *decoded* rows — in-register dequantization produces the
// same element values decode_row does, so only reassociation-level
// differences are tolerated.
constexpr double kDequantTol = 1e-6;

void expect_close(double enc, double ref, const char* what,
                  std::uint32_t k) {
  EXPECT_NEAR(enc, ref, kDequantTol * (1.0 + std::abs(ref)))
      << what << " K=" << k;
}

TEST(QuantKernelsTest, LossyPairLikelihoodMatchesDecodedRows) {
  rng::Xoshiro256 rng(61);
  for (const RowCodec codec : kLossy) {
    for (const std::uint32_t k : kSizes) {
      const LikelihoodTerms terms = random_terms(rng, k);
      const std::vector<float> a = random_row(rng, k, 2.0f);
      const std::vector<float> b = random_row(rng, k, 3.0f);
      const auto ea = encode(codec, a);
      const auto eb = encode(codec, b);
      const auto da = decode(codec, ea, k + 1);
      const auto db = decode(codec, eb, k + 1);
      for (const bool y : {false, true}) {
        expect_close(
            fast_pair_likelihood_enc(codec, ea, eb, k, terms, y),
            fast_pair_likelihood(da, db, terms, y), "fused Z", k);
      }
    }
  }
}

TEST(QuantKernelsTest, LossyPhiGradMatchesDecodedRows) {
  rng::Xoshiro256 rng(63);
  for (const RowCodec codec : kLossy) {
    for (const std::uint32_t k : kSizes) {
      const LikelihoodTerms terms = random_terms(rng, k);
      const std::vector<float> a = random_row(rng, k, 2.0f);
      const std::vector<float> b = random_row(rng, k, 3.0f);
      const auto eb = encode(codec, b);
      const auto db = decode(codec, eb, k + 1);
      std::vector<float> w(k);
      for (const bool y : {false, true}) {
        std::vector<double> g_ref(k, 0.0);
        std::vector<double> g_enc(k, 0.0);
        const double z_ref =
            fast_accumulate_phi_grad(a, db, terms, y, g_ref, w);
        const double z_enc = fast_accumulate_phi_grad_enc(
            codec, a, eb, terms, y, g_enc, w);
        expect_close(z_enc, z_ref, "phi-grad Z", k);
        for (std::uint32_t i = 0; i < k; ++i) {
          EXPECT_NEAR(g_enc[i], g_ref[i],
                      kDequantTol * (1.0 + std::abs(g_ref[i])))
              << "K=" << k << " i=" << i;
        }
      }
    }
  }
}

TEST(QuantKernelsTest, LossyThetaRatioMatchesDecodedRows) {
  rng::Xoshiro256 rng(65);
  for (const RowCodec codec : kLossy) {
    for (const std::uint32_t k : kSizes) {
      const LikelihoodTerms terms = random_terms(rng, k);
      const std::vector<float> a = random_row(rng, k, 2.0f);
      const std::vector<float> b = random_row(rng, k, 3.0f);
      const auto ea = encode(codec, a);
      const auto eb = encode(codec, b);
      const auto da = decode(codec, ea, k + 1);
      const auto db = decode(codec, eb, k + 1);
      std::vector<float> f(k);
      for (const bool y : {false, true}) {
        std::vector<double> r_ref(k, 0.0);
        std::vector<double> r_enc(k, 0.0);
        const double z_ref =
            fast_accumulate_theta_ratio(da, db, terms, y, r_ref, f);
        const double z_enc = fast_accumulate_theta_ratio_enc(
            codec, ea, eb, k, terms, y, r_enc, f);
        expect_close(z_enc, z_ref, "theta Z", k);
        for (std::uint32_t i = 0; i < k; ++i) {
          EXPECT_NEAR(r_enc[i], r_ref[i],
                      kDequantTol * (1.0 + std::abs(r_ref[i])))
              << "K=" << k << " i=" << i;
        }
      }
    }
  }
}

}  // namespace
}  // namespace scd::core
