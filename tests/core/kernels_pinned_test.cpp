// Pinned output bits of the fused kernels.
//
// Every public entry point of core/kernels_simd.h runs on fixed-seed rows
// for all six row codecs at K = 63, 64 and 256 (a tail-only width, one
// full kFusedBlock, several blocks), and so does the batched Langevin
// noise stream they draw; the FNV-1a-64 hash of every
// returned value and every written buffer is compared against constants
// captured from the baseline-ISA (SSE2) build. A ParallelSampler
// trajectory (pi bytes plus perplexity history) is pinned the same way at
// 1 and 3 threads.
//
// The process runs whichever ISA clone the loader picked for this CPU
// (logged below), so on an AVX2 host this is the check that the wide
// clones compute the same bits as the portable body. A ThreadSanitizer
// build has no clones and checks the portable body itself against the
// same constants. A build that lets the compiler contract a*b+c into FMA
// (e.g. -march=native on an FMA host) fails here.
#include <cstdint>
#include <cstdio>
#include <span>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/kernels_simd.h"
#include "core/parallel_sampler.h"
#include "random/distributions.h"
#include "random/xoshiro.h"
#include "tests/core/test_fixtures.h"
#include "util/isa_clones.h"

namespace scd::core {
namespace {

class Fnv1a64 {
 public:
  void bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= p[i];
      h_ *= 0x100000001b3ULL;
    }
  }
  template <typename T>
  void value(const T& v) {
    bytes(&v, sizeof(v));
  }
  template <typename T>
  void values(std::span<const T> s) {
    bytes(s.data(), s.size_bytes());
  }
  std::uint64_t digest() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

const char* selected_clone() {
#if SCD_KERNEL_CLONES
  return __builtin_cpu_supports("avx2") ? "avx2" : "default";
#else
  return "default (baseline body only: this build has no clones)";
#endif
}

class KernelsPinnedTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    std::printf("[ kernels  ] ISA clone under test: %s\n", selected_clone());
  }
};

constexpr std::uint32_t kWidths[] = {63, 64, 256};

/// Flat row: every entry drawn uniformly, so a sparse codec falls back
/// to its dense layout.
std::vector<float> flat_row(rng::Xoshiro256& rng, std::uint32_t k,
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

/// Peaked row: most mass on about k/8 communities, so the sparse codecs
/// keep a short support.
std::vector<float> peaked_row(rng::Xoshiro256& rng, std::uint32_t k,
                              float phi_sum) {
  std::vector<float> row(k + 1, 1e-5f);
  for (std::uint32_t j = 0; j < k / 8 + 1; ++j) {
    row[rng.next_below(k)] += static_cast<float>(rng.next_double()) + 0.1f;
  }
  double sum = 0.0;
  for (std::uint32_t i = 0; i < k; ++i) sum += row[i];
  const float inv = static_cast<float>(1.0 / sum);
  for (std::uint32_t i = 0; i < k; ++i) row[i] *= inv;
  row[k] = phi_sum;
  return row;
}

LikelihoodTerms fixed_terms(rng::Xoshiro256& rng, std::uint32_t k) {
  std::vector<float> beta(k);
  for (float& b : beta) {
    b = 0.05f + 0.9f * static_cast<float>(rng.next_double());
  }
  LikelihoodTerms terms;
  terms.refresh(beta, 0.01);
  return terms;
}

/// Two flat and two peaked rows per width: the pairs below cover
/// dense x dense, sparse x sparse and both mixed orders.
std::vector<std::vector<float>> fixed_rows(rng::Xoshiro256& rng,
                                           std::uint32_t k) {
  return {flat_row(rng, k, 2.5f), peaked_row(rng, k, 3.0f),
          flat_row(rng, k, 1.5f), peaked_row(rng, k, 0.75f)};
}

constexpr std::pair<std::size_t, std::size_t> kPairs[] = {
    {0, 2}, {1, 3}, {0, 1}, {1, 0}, {3, 3}};

std::uint64_t float_kernels_hash() {
  Fnv1a64 h;
  rng::Xoshiro256 rng(6101);
  for (std::uint32_t k : kWidths) {
    const LikelihoodTerms terms = fixed_terms(rng, k);
    const auto rows = fixed_rows(rng, k);
    std::vector<float> scratch(k);
    for (const auto& [a, b] : kPairs) {
      for (bool y : {false, true}) {
        h.value(fast_pair_likelihood(rows[a], rows[b], terms, y));
        std::vector<double> grad(k, 0.125);
        h.value(fast_accumulate_phi_grad(rows[a], rows[b], terms, y, grad,
                                         scratch));
        h.values(std::span<const double>(grad));
        h.values(std::span<const float>(scratch));
        std::vector<double> ratio(k, 0.25);
        h.value(fast_accumulate_theta_ratio(rows[a], rows[b], terms, y,
                                            ratio, scratch));
        h.values(std::span<const double>(ratio));
        h.values(std::span<const float>(scratch));
      }
    }
  }
  return h.digest();
}

std::uint64_t enc_kernels_hash(quant::RowCodec codec) {
  Fnv1a64 h;
  rng::Xoshiro256 rng(6102);
  for (std::uint32_t k : kWidths) {
    const LikelihoodTerms terms = fixed_terms(rng, k);
    const auto rows = fixed_rows(rng, k);
    const std::size_t bytes = quant::encoded_bytes(codec, k + 1);
    std::vector<std::vector<std::byte>> enc;
    std::vector<std::vector<float>> decoded;
    for (const auto& row : rows) {
      enc.emplace_back(bytes);
      quant::encode_row(codec, row, enc.back());
      decoded.emplace_back(k + 1);
      quant::decode_row(codec, enc.back(), decoded.back());
    }
    std::vector<float> scratch(k);
    for (const auto& [a, b] : kPairs) {
      for (bool y : {false, true}) {
        h.value(fast_pair_likelihood_enc(codec, enc[a], enc[b], k, terms, y));
        std::vector<double> grad(k, 0.125);
        h.value(fast_accumulate_phi_grad_enc(codec, decoded[a], enc[b],
                                             terms, y, grad, scratch));
        h.values(std::span<const double>(grad));
        std::vector<double> ratio(k, 0.25);
        h.value(fast_accumulate_theta_ratio_enc(codec, enc[a], enc[b], k,
                                                terms, y, ratio, scratch));
        h.values(std::span<const double>(ratio));
        if (!quant::is_sparse(codec)) continue;

        const SparsePhiStage stage = sparse_phi_stage(decoded[a], terms);
        h.value(stage.mass);
        h.value(stage.sa);
        SparsePhiAccum acc;
        std::vector<double> sgrad(k, 0.125);
        h.value(sparse_accumulate_phi_grad_enc(codec, decoded[a], stage,
                                               enc[b], terms, y, sgrad, acc));
        h.value(acc.c0);
        h.value(acc.ceps);
        sparse_phi_epilogue(acc, terms, sgrad);
        h.values(std::span<const double>(sgrad));

        std::vector<double> link(k, 0.25);
        std::vector<double> nonlink(k, 0.5);
        double eps_coef = 0.0;
        h.value(sparse_accumulate_theta_ratio_enc(
            codec, enc[a], enc[b], k, terms, y, y ? link : nonlink,
            eps_coef));
        h.value(eps_coef);
        sparse_theta_epilogue(y ? eps_coef : 0.5 * eps_coef,
                              y ? 0.5 * eps_coef : eps_coef, terms, link,
                              nonlink);
        h.values(std::span<const double>(link));
        h.values(std::span<const double>(nonlink));
      }
    }
  }
  return h.digest();
}

std::uint64_t update_phi_row_hash() {
  Fnv1a64 h;
  rng::Xoshiro256 rng(6103);
  for (std::uint32_t k : kWidths) {
    std::vector<double> grad(k);
    std::vector<double> noise(k);
    for (const GradientForm form :
         {GradientForm::kRawEqn3, GradientForm::kPreconditioned}) {
      for (std::uint32_t vertex = 0; vertex < 4; ++vertex) {
        std::vector<float> row = vertex % 2 == 0 ? flat_row(rng, k, 40.0f)
                                                 : peaked_row(rng, k, 9.0f);
        for (double& g : grad) g = 10.0 * (rng.next_double() - 0.5);
        fast_update_phi_row(/*seed=*/77, /*iteration=*/1000 + vertex, vertex,
                            row, grad, /*scale=*/3.0, /*eps=*/0.01,
                            /*alpha=*/0.05, /*noise_factor=*/1.0, form,
                            noise);
        h.values(std::span<const float>(row));
      }
    }
  }
  return h.digest();
}

/// The SGRLD noise stream (rng::sample_standard_normals) at odd and even
/// widths, each batch followed by the engine's next output.
std::uint64_t noise_stream_hash() {
  Fnv1a64 h;
  std::vector<double> noise(512);
  for (std::uint32_t k : {1u, 63u, 64u, 256u, 512u}) {
    for (std::uint64_t vertex = 0; vertex < 8; ++vertex) {
      rng::Xoshiro256 rng =
          derive_rng(/*seed=*/77, rng_label::kPhiNoise, 1000, vertex);
      const std::span<double> row = std::span(noise).first(k);
      rng::sample_standard_normals(rng, row);
      h.values(std::span<const double>(row));
      h.value(rng());
    }
  }
  return h.digest();
}

std::uint64_t trajectory_hash(unsigned threads) {
  testing::Fixture f = testing::small_planted_fixture(
      /*seed=*/6104, /*n=*/240, /*k=*/64, /*heldout_pairs=*/200);
  f.options.eval_interval = 10;
  ParallelSampler sampler(f.generated.graph, f.split.get(), f.hyper,
                          f.options, threads);
  sampler.run(40);
  Fnv1a64 h;
  for (std::uint32_t v = 0; v < sampler.pi().num_vertices(); ++v) {
    h.values(sampler.pi().row(v));
  }
  EXPECT_EQ(sampler.history().size(), 4u);
  for (const auto& point : sampler.history()) {
    h.value(point.iteration);
    h.value(point.perplexity);
  }
  return h.digest();
}

TEST_F(KernelsPinnedTest, FloatEntryPointsAreStable) {
  EXPECT_EQ(float_kernels_hash(), 0x628fd394593033a6ULL);
}

TEST_F(KernelsPinnedTest, EncodedEntryPointsAreStable) {
  const struct {
    quant::RowCodec codec;
    std::uint64_t fnv;
  } kPinned[] = {
      {quant::RowCodec::kFloat32, 0x23034e910ac3517cULL},
      {quant::RowCodec::kFp16, 0xd6172d962b2aded0ULL},
      {quant::RowCodec::kInt8, 0xeb487984621786ebULL},
      {quant::RowCodec::kSparseTopR, 0xccca623f9ee59410ULL},
      {quant::RowCodec::kSparseTopRFp16, 0x648f1dd0b42d4536ULL},
      {quant::RowCodec::kSparseTopRInt8, 0xec40ed4dbe0e1503ULL},
  };
  for (const auto& pinned : kPinned) {
    SCOPED_TRACE(quant::codec_name(pinned.codec));
    EXPECT_EQ(enc_kernels_hash(pinned.codec), pinned.fnv);
  }
}

TEST_F(KernelsPinnedTest, UpdatePhiRowIsStable) {
  EXPECT_EQ(update_phi_row_hash(), 0x2fa799df0f1a838aULL);
}

TEST_F(KernelsPinnedTest, NoiseStreamIsStable) {
  EXPECT_EQ(noise_stream_hash(), 0xa87eb322ba4f3b87ULL);
}

TEST_F(KernelsPinnedTest, ParallelTrajectoryIsStable) {
  for (unsigned threads : {1u, 3u}) {
    SCOPED_TRACE(threads);
    EXPECT_EQ(trajectory_hash(threads), 0x6c5d0effe3ce8e40ULL);
  }
}

}  // namespace
}  // namespace scd::core
