#include "core/phi_kernel.h"

#include <gtest/gtest.h>

#include "random/distributions.h"

namespace scd::core {
namespace {

constexpr std::uint32_t kK = 3;

std::vector<float> make_row(rng::Xoshiro256& rng) {
  std::vector<double> pi(kK);
  rng::sample_dirichlet(rng, 0.8, pi);
  std::vector<float> row(kK + 1);
  for (std::uint32_t i = 0; i < kK; ++i) {
    row[i] = static_cast<float>(pi[i]);
  }
  row[kK] = 2.0f;
  return row;
}

// staged_phi_update with a NeighborSet must equal the manual sequence:
// accumulate exact + scaled sampled gradients, then the row update with
// scale 1 — for both weighting layouts. The manual side calls the same
// fast_* kernels the staged update uses, so the equality is exact
// (agreement with the grads.cpp reference is covered by
// kernels_simd_test).
TEST(PhiKernelTest, MatchesManualAccumulation) {
  rng::Xoshiro256 rng(3);
  const std::vector<float> row_a = make_row(rng);
  std::vector<std::vector<float>> neighbor_rows;
  for (int i = 0; i < 5; ++i) neighbor_rows.push_back(make_row(rng));

  LikelihoodTerms terms;
  const std::vector<float> beta = {0.3f, 0.5f, 0.7f};
  terms.refresh(beta, 0.01);

  graph::NeighborSet set;
  for (int i = 0; i < 5; ++i) {
    set.samples.push_back({static_cast<graph::Vertex>(i), i < 2});
  }
  set.exact_prefix = 2;   // two exact links
  set.sampled_scale = 40.0;

  // Via the kernel.
  std::vector<float> via_kernel(kK + 1);
  PhiScratch scratch(kK);
  staged_phi_update(
      /*seed=*/9, /*iteration=*/4, /*vertex=*/7, row_a, set,
      [&](std::size_t i) {
        return std::span<const float>(neighbor_rows[i]);
      },
      terms, /*eps=*/0.02, /*alpha=*/0.1, via_kernel, scratch,
      /*noise_factor=*/1.0, GradientForm::kRawEqn3);

  // Manual, via the same kernels.
  std::vector<double> exact(kK, 0.0);
  std::vector<double> sampled(kK, 0.0);
  std::vector<float> w(kK);
  std::vector<double> noise(kK);
  for (std::size_t i = 0; i < set.samples.size(); ++i) {
    fast_accumulate_phi_grad(row_a, neighbor_rows[i], terms,
                             set.samples[i].link,
                             i < set.exact_prefix
                                 ? std::span<double>(exact)
                                 : std::span<double>(sampled),
                             w);
  }
  for (std::uint32_t k = 0; k < kK; ++k) {
    exact[k] += set.sampled_scale * sampled[k];
  }
  std::vector<float> manual(row_a);
  fast_update_phi_row(9, 4, 7, manual, exact, 1.0, 0.02, 0.1,
                      /*noise_factor=*/1.0, GradientForm::kRawEqn3, noise);

  for (std::uint32_t i = 0; i <= kK; ++i) {
    EXPECT_EQ(via_kernel[i], manual[i]) << "slot " << i;
  }
}

TEST(PhiKernelTest, EmptyNeighborSetStillAppliesPriorAndNoise) {
  rng::Xoshiro256 rng(5);
  const std::vector<float> row_a = make_row(rng);
  LikelihoodTerms terms;
  const std::vector<float> beta = {0.3f, 0.5f, 0.7f};
  terms.refresh(beta, 0.01);

  graph::NeighborSet set;  // no samples at all
  std::vector<float> out(kK + 1);
  PhiScratch scratch(kK);
  staged_phi_update(
      1, 0, 0, row_a, set,
      [&](std::size_t) { return std::span<const float>(row_a); }, terms,
      0.05, 0.1, out, scratch, 1.0, GradientForm::kRawEqn3);
  double sum = 0.0;
  for (std::uint32_t k = 0; k < kK; ++k) {
    EXPECT_GT(out[k], 0.0f);
    sum += out[k];
  }
  EXPECT_NEAR(sum, 1.0, 1e-5);
}

TEST(PhiKernelTest, ScratchIsReusableAcrossVertices) {
  rng::Xoshiro256 rng(7);
  const std::vector<float> row_a = make_row(rng);
  const std::vector<float> row_b = make_row(rng);
  LikelihoodTerms terms;
  const std::vector<float> beta = {0.2f, 0.4f, 0.6f};
  terms.refresh(beta, 0.02);
  graph::NeighborSet set;
  set.samples.push_back({1, true});
  set.exact_prefix = 0;
  set.sampled_scale = 10.0;

  PhiScratch scratch(kK);
  std::vector<float> out1(kK + 1);
  staged_phi_update(
      1, 0, 0, row_a, set,
      [&](std::size_t) { return std::span<const float>(row_b); }, terms,
      0.02, 0.1, out1, scratch, 1.0, GradientForm::kRawEqn3);
  // Second use must not see stale gradient state from the first.
  std::vector<float> out2(kK + 1);
  staged_phi_update(
      1, 0, 0, row_a, set,
      [&](std::size_t) { return std::span<const float>(row_b); }, terms,
      0.02, 0.1, out2, scratch, 1.0, GradientForm::kRawEqn3);
  for (std::uint32_t i = 0; i <= kK; ++i) {
    EXPECT_EQ(out1[i], out2[i]);
  }
}

}  // namespace
}  // namespace scd::core
