// Sparse O(nnz) kernels vs the scalar reference on decoded rows.
//
// A sparse row decodes to a shared epsilon on every dropped community,
// so the support/epsilon decomposition the sparse kernels use is
// algebraically exact: the enc kernels must agree with the grads.cpp
// reference evaluated on decode_row's output up to float-level
// reassociation. The tolerance is not double-rounding tight because the
// comparison crosses two deliberate precision choices: the kernels form
// w_k = dt + pi_bk * btd_k from the float-cached btd staging (btd_k
// rounds bt_k - dt once), while the scalar reference recomputes
// pi_bk*bt_k + dt*(1-pi_bk) from bt; and dense-fallback rows route
// through the fused float-lane readers. Both effects are ~1e-8 relative
// — far below the ~1e-2 any decomposition bug would show. The batched
// phi/theta paths are checked against the per-pair reference summed over
// a whole neighbor batch, including the dense-fallback rows the
// epilogues must not double-count.
#include "core/kernels_simd.h"

#include <cmath>
#include <cstddef>
#include <vector>

#include <gtest/gtest.h>

#include "core/grads.h"
#include "quant/row_codec.h"
#include "random/xoshiro.h"

namespace scd::core {
namespace {

using quant::RowCodec;

constexpr RowCodec kSparseCodecs[] = {RowCodec::kSparseTopR,
                                      RowCodec::kSparseTopRFp16,
                                      RowCodec::kSparseTopRInt8};
constexpr std::uint32_t kSizes[] = {8, 64, 1000, 4096};

// Covers the btd-vs-bt staging round-off and the fallback rows' float
// lanes (see the header comment); quantization error never enters — both
// sides read the same decoded values.
constexpr double kSparseTol = 1e-5;

std::vector<float> concentrated_row(rng::Xoshiro256& rng, std::uint32_t k,
                                    std::uint32_t support, float phi_sum) {
  std::vector<float> row(k + 1, 0.0f);
  double tsum = 0.0;
  std::vector<double> tail(k);
  for (std::uint32_t i = 0; i < k; ++i) {
    tail[i] = rng.next_double() + 0.1;
    tsum += tail[i];
  }
  for (std::uint32_t i = 0; i < k; ++i) {
    row[i] = static_cast<float>(tail[i] / tsum * 0.003);
  }
  std::vector<double> heavy(support);
  double hsum = 0.0;
  for (double& h : heavy) {
    h = 0.5 + rng.next_double();
    hsum += h;
  }
  const std::uint32_t stride = std::max(1u, k / support);
  for (std::uint32_t s = 0; s < support; ++s) {
    row[(s * stride) % k] = static_cast<float>(heavy[s] / hsum * 0.997);
  }
  row[k] = phi_sum;
  return row;
}

std::vector<float> uniform_row(std::uint32_t k, float phi_sum) {
  std::vector<float> row(k + 1, 1.0f / static_cast<float>(k));
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

std::vector<float> decode(RowCodec codec, std::span<const std::byte> enc,
                          std::uint32_t width) {
  std::vector<float> row(width);
  quant::decode_row(codec, enc, row);
  return row;
}

void expect_close(double got, double ref, const char* what,
                  std::uint32_t k) {
  EXPECT_NEAR(got, ref, kSparseTol * (1.0 + std::abs(ref)))
      << what << " K=" << k;
}

TEST(SparseKernelsTest, PairLikelihoodMatchesDecodedRows) {
  rng::Xoshiro256 rng(201);
  for (const RowCodec codec : kSparseCodecs) {
    for (const std::uint32_t k : kSizes) {
      const LikelihoodTerms terms = random_terms(rng, k);
      const std::vector<float> a = concentrated_row(rng, k, 5, 2.0f);
      const std::vector<float> b = concentrated_row(rng, k, 7, 3.0f);
      const auto ea = encode(codec, a);
      const auto eb = encode(codec, b);
      const auto da = decode(codec, ea, k + 1);
      const auto db = decode(codec, eb, k + 1);
      for (const bool y : {false, true}) {
        expect_close(fast_pair_likelihood_enc(codec, ea, eb, k, terms, y),
                     pair_likelihood(da, db, terms, y), "fused Z", k);
      }
    }
  }
}

// Mixed pairs: one side in sparse form, the other stored via the dense
// fallback. The merge-intersect cannot run, so the kernel routes through
// a correct O(K) path — same answer, different cost.
TEST(SparseKernelsTest, PairLikelihoodHandlesDenseFallbackSides) {
  rng::Xoshiro256 rng(203);
  for (const RowCodec codec : kSparseCodecs) {
    const std::uint32_t k = 256;
    const LikelihoodTerms terms = random_terms(rng, k);
    const std::vector<float> sparse = concentrated_row(rng, k, 6, 2.0f);
    const std::vector<float> dense = uniform_row(k, 3.0f);
    const auto es = encode(codec, sparse);
    const auto ed = encode(codec, dense);
    ASSERT_LT(quant::row_nnz(codec, k + 1, es), k);
    ASSERT_EQ(quant::row_nnz(codec, k + 1, ed), k);
    const auto ds = decode(codec, es, k + 1);
    const auto dd = decode(codec, ed, k + 1);
    for (const bool y : {false, true}) {
      expect_close(fast_pair_likelihood_enc(codec, es, ed, k, terms, y),
                   pair_likelihood(ds, dd, terms, y), "sparse|fallback", k);
      expect_close(fast_pair_likelihood_enc(codec, ed, es, k, terms, y),
                   pair_likelihood(dd, ds, terms, y), "fallback|sparse", k);
      expect_close(fast_pair_likelihood_enc(codec, ed, ed, k, terms, y),
                   pair_likelihood(dd, dd, terms, y), "fallback|fallback",
                   k);
    }
  }
}

// The batched phi path: stage once per vertex, scatter O(nnz) per
// neighbor, fold the j-independent accumulator with one epilogue. The
// result must equal the per-pair reference summed over the batch — with
// fallback neighbors interleaved, whose full-gradient writes bypass the
// accumulator.
TEST(SparseKernelsTest, BatchedPhiGradMatchesDecodedReference) {
  rng::Xoshiro256 rng(205);
  for (const RowCodec codec : kSparseCodecs) {
    for (const std::uint32_t k : kSizes) {
      const LikelihoodTerms terms = random_terms(rng, k);
      const std::vector<float> a = concentrated_row(rng, k, 5, 2.5f);
      constexpr std::size_t kNeighbors = 9;
      std::vector<std::vector<std::byte>> enc_rows;
      std::vector<std::vector<float>> dec_rows;
      for (std::size_t n = 0; n < kNeighbors; ++n) {
        // Every third neighbor is a dense-fallback row.
        const std::vector<float> b =
            n % 3 == 2 ? uniform_row(k, 3.0f)
                       : concentrated_row(rng, k, 4 + (n % 5), 3.0f);
        enc_rows.push_back(encode(codec, b));
        dec_rows.push_back(decode(codec, enc_rows.back(), k + 1));
      }
      std::vector<double> g_ref(k, 0.0);
      std::vector<double> g_sparse(k, 0.0);
      const SparsePhiStage stage = sparse_phi_stage(a, terms);
      SparsePhiAccum acc;
      acc.reset();
      for (std::size_t n = 0; n < kNeighbors; ++n) {
        const bool y = n % 2 == 0;
        const double z_ref =
            accumulate_phi_grad(a, dec_rows[n], terms, y, g_ref);
        const double z_sparse = sparse_accumulate_phi_grad_enc(
            codec, a, stage, enc_rows[n], terms, y, g_sparse, acc);
        expect_close(z_sparse, z_ref, "phi Z", k);
      }
      sparse_phi_epilogue(acc, terms, g_sparse);
      for (std::uint32_t j = 0; j < k; ++j) {
        EXPECT_NEAR(g_sparse[j], g_ref[j],
                    kSparseTol * (1.0 + std::abs(g_ref[j])))
            << quant::codec_name(codec) << " K=" << k << " j=" << j;
      }
    }
  }
}

// The batched theta path: support terms scatter per pair, the
// eps_a*eps_b coefficient folds once per stratum. Mixed pairs (either
// side fallback) must take the O(K) path and leave the accumulator
// untouched, so the epilogue stays correct for the sparse-only pairs.
TEST(SparseKernelsTest, BatchedThetaRatioMatchesDecodedReference) {
  rng::Xoshiro256 rng(207);
  for (const RowCodec codec : kSparseCodecs) {
    for (const std::uint32_t k : kSizes) {
      const LikelihoodTerms terms = random_terms(rng, k);
      constexpr std::size_t kPairs = 8;
      std::vector<double> ref_link(k, 0.0), ref_nonlink(k, 0.0);
      std::vector<double> sp_link(k, 0.0), sp_nonlink(k, 0.0);
      double eps_link = 0.0, eps_nonlink = 0.0;
      for (std::size_t p = 0; p < kPairs; ++p) {
        const std::vector<float> a =
            p % 4 == 3 ? uniform_row(k, 2.0f)
                       : concentrated_row(rng, k, 5 + (p % 3), 2.0f);
        const std::vector<float> b = concentrated_row(rng, k, 6, 3.0f);
        const auto ea = encode(codec, a);
        const auto eb = encode(codec, b);
        const auto da = decode(codec, ea, k + 1);
        const auto db = decode(codec, eb, k + 1);
        const bool y = p % 2 == 0;
        const double z_ref = accumulate_theta_ratio(
            da, db, terms, y, y ? std::span<double>(ref_link)
                                : std::span<double>(ref_nonlink));
        const double z_sparse = sparse_accumulate_theta_ratio_enc(
            codec, ea, eb, k, terms, y,
            y ? std::span<double>(sp_link) : std::span<double>(sp_nonlink),
            y ? eps_link : eps_nonlink);
        expect_close(z_sparse, z_ref, "theta Z", k);
      }
      sparse_theta_epilogue(eps_link, eps_nonlink, terms, sp_link,
                            sp_nonlink);
      for (std::uint32_t j = 0; j < k; ++j) {
        EXPECT_NEAR(sp_link[j], ref_link[j],
                    kSparseTol * (1.0 + std::abs(ref_link[j])))
            << quant::codec_name(codec) << " K=" << k << " j=" << j;
        EXPECT_NEAR(sp_nonlink[j], ref_nonlink[j],
                    kSparseTol * (1.0 + std::abs(ref_nonlink[j])))
            << quant::codec_name(codec) << " K=" << k << " j=" << j;
      }
    }
  }
}

// The single-pair enc entry points accept the sparse codecs too (O(K)
// per call — used off the batched hot path) and must agree with the
// decoded-dense reference.
TEST(SparseKernelsTest, SinglePairEntryPointsAcceptSparseCodecs) {
  rng::Xoshiro256 rng(209);
  for (const RowCodec codec : kSparseCodecs) {
    const std::uint32_t k = 512;
    const LikelihoodTerms terms = random_terms(rng, k);
    const std::vector<float> a = concentrated_row(rng, k, 5, 2.0f);
    const std::vector<float> b = concentrated_row(rng, k, 8, 3.0f);
    const auto ea = encode(codec, a);
    const auto eb = encode(codec, b);
    const auto db = decode(codec, eb, k + 1);
    const auto da = decode(codec, ea, k + 1);
    std::vector<float> w(k);
    std::vector<float> f(k);
    for (const bool y : {false, true}) {
      std::vector<double> g_ref(k, 0.1), g_enc(k, 0.1);
      const double zp_ref =
          accumulate_phi_grad(a, db, terms, y, g_ref);
      const double zp_fused = fast_accumulate_phi_grad_enc(
          codec, a, eb, terms, y, g_enc, w);
      expect_close(zp_fused, zp_ref, "fused phi Z", k);
      for (std::uint32_t j = 0; j < k; ++j) {
        EXPECT_NEAR(g_enc[j], g_ref[j],
                    kSparseTol * (1.0 + std::abs(g_ref[j])))
            << "j=" << j;
      }

      std::vector<double> r_ref(k, 0.2), r_fused(k, 0.2);
      const double zt_ref =
          accumulate_theta_ratio(da, db, terms, y, r_ref);
      const double zt_fused = fast_accumulate_theta_ratio_enc(
          codec, ea, eb, k, terms, y, r_fused, f);
      expect_close(zt_fused, zt_ref, "fused theta Z", k);
      for (std::uint32_t j = 0; j < k; ++j) {
        EXPECT_NEAR(r_fused[j], r_ref[j],
                    kSparseTol * (1.0 + std::abs(r_ref[j])))
            << "j=" << j;
      }
    }
  }
}

}  // namespace
}  // namespace scd::core
