#include "core/grads.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "random/distributions.h"

namespace scd::core {
namespace {

constexpr std::size_t kK = 5;

struct Scenario {
  std::vector<float> row_a;  // [pi | phi_sum]
  std::vector<float> row_b;
  std::vector<float> beta;
  double delta = 0.01;
  LikelihoodTerms terms;
};

Scenario make_scenario(std::uint64_t seed) {
  rng::Xoshiro256 rng(seed);
  Scenario s;
  auto make_row = [&] {
    std::vector<double> pi(kK);
    rng::sample_dirichlet(rng, 0.7, pi);
    std::vector<float> row(kK + 1);
    for (std::size_t i = 0; i < kK; ++i) row[i] = static_cast<float>(pi[i]);
    row[kK] = static_cast<float>(0.5 + 3.0 * rng.next_double());
    return row;
  };
  s.row_a = make_row();
  s.row_b = make_row();
  s.beta.resize(kK);
  for (float& b : s.beta) {
    b = static_cast<float>(0.05 + 0.9 * rng.next_double());
  }
  s.terms.refresh(s.beta, s.delta);
  return s;
}

/// Brute-force Z_ab^(y) in pure double: the sum over (k, l) of f_ab(k, l).
double brute_force_z(const std::vector<double>& pi_a,
                     const std::vector<double>& pi_b,
                     const std::vector<double>& beta, double delta,
                     bool y) {
  double z = 0.0;
  for (std::size_t k = 0; k < kK; ++k) {
    for (std::size_t l = 0; l < kK; ++l) {
      const double r = (k == l) ? beta[k] : delta;
      z += pi_a[k] * pi_b[l] * (y ? r : (1.0 - r));
    }
  }
  return z;
}

std::vector<double> pi_of(const std::vector<float>& row) {
  return {row.begin(), row.begin() + kK};
}

std::vector<double> beta_of(const Scenario& s) {
  return {s.beta.begin(), s.beta.end()};
}

TEST(PairLikelihoodTest, MatchesBruteForceDoubleSum) {
  for (std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    const Scenario s = make_scenario(seed);
    for (bool y : {false, true}) {
      // The O(K) form assumes sum(pi_b) == 1; with float rows that holds
      // to ~1e-7, so the two forms agree to ~delta * 1e-7.
      EXPECT_NEAR(pair_likelihood(s.row_a, s.row_b, s.terms, y),
                  brute_force_z(pi_of(s.row_a), pi_of(s.row_b), beta_of(s),
                                s.delta, y),
                  1e-6)
          << "seed=" << seed << " y=" << y;
    }
  }
}

TEST(PairLikelihoodTest, ProbabilitiesOfBothOutcomesSumToOne) {
  const Scenario s = make_scenario(9);
  const double p1 = pair_likelihood(s.row_a, s.row_b, s.terms, true);
  const double p0 = pair_likelihood(s.row_a, s.row_b, s.terms, false);
  // Float rows sum to 1 only to ~1e-7, bounding p0 + p1 accordingly.
  EXPECT_NEAR(p0 + p1, 1.0, 1e-6);
}

/// log Z as a pure-double function of an explicit phi vector for vertex
/// a — float casts anywhere here would swallow the finite-difference
/// perturbation.
double log_z_of_phi(const Scenario& s, const std::vector<double>& phi,
                    bool y) {
  double sum = 0.0;
  for (double p : phi) sum += p;
  std::vector<double> pi_a(kK);
  for (std::size_t i = 0; i < kK; ++i) pi_a[i] = phi[i] / sum;
  return std::log(
      brute_force_z(pi_a, pi_of(s.row_b), beta_of(s), s.delta, y));
}

TEST(PhiGradTest, MatchesFiniteDifferenceOfLogLikelihood) {
  for (std::uint64_t seed : {11u, 12u, 13u}) {
    const Scenario s = make_scenario(seed);
    const double phi_sum = s.row_a[kK];
    std::vector<double> phi(kK);
    for (std::size_t i = 0; i < kK; ++i) {
      phi[i] = double(s.row_a[i]) * phi_sum;
    }
    for (bool y : {false, true}) {
      std::vector<double> grad(kK, 0.0);
      accumulate_phi_grad(s.row_a, s.row_b, s.terms, y, grad);
      for (std::size_t k = 0; k < kK; ++k) {
        const double h = 1e-5 * std::max(phi[k], 1e-3);
        std::vector<double> up = phi;
        std::vector<double> down = phi;
        up[k] += h;
        down[k] -= h;
        const double numeric =
            (log_z_of_phi(s, up, y) - log_z_of_phi(s, down, y)) / (2 * h);
        EXPECT_NEAR(grad[k], numeric,
                    5e-3 * std::max(1.0, std::abs(numeric)))
            << "seed=" << seed << " y=" << y << " k=" << k;
      }
    }
  }
}

/// log Z as a pure-double function of theta (beta recomputed from theta).
double log_z_of_theta(const Scenario& s, const std::vector<double>& theta,
                      bool y) {
  std::vector<double> beta(kK);
  for (std::size_t k = 0; k < kK; ++k) {
    beta[k] =
        theta[k * 2 + 1] / (theta[k * 2 + 0] + theta[k * 2 + 1]);
  }
  return std::log(
      brute_force_z(pi_of(s.row_a), pi_of(s.row_b), beta, s.delta, y));
}

TEST(ThetaGradTest, MatchesFiniteDifferenceOfLogLikelihood) {
  for (std::uint64_t seed : {21u, 22u}) {
    Scenario s = make_scenario(seed);
    rng::Xoshiro256 rng(seed * 100);
    std::vector<double> theta(kK * 2);
    for (double& t : theta) t = 0.5 + 2.0 * rng.next_double();
    // Keep beta consistent with theta so the analytic gradient applies.
    for (std::size_t k = 0; k < kK; ++k) {
      s.beta[k] = static_cast<float>(theta[k * 2 + 1] /
                                     (theta[k * 2 + 0] + theta[k * 2 + 1]));
    }
    s.terms.refresh(s.beta, s.delta);

    for (bool y : {false, true}) {
      std::vector<double> grad(kK * 2, 0.0);
      accumulate_theta_grad(s.row_a, s.row_b, s.terms, theta, y, grad);
      for (std::size_t j = 0; j < kK * 2; ++j) {
        const double h = 1e-6 * theta[j];
        std::vector<double> up = theta;
        std::vector<double> down = theta;
        up[j] += h;
        down[j] -= h;
        const double numeric =
            (log_z_of_theta(s, up, y) - log_z_of_theta(s, down, y)) /
            (2 * h);
        EXPECT_NEAR(grad[j], numeric,
                    2e-2 * std::max(0.5, std::abs(numeric)))
            << "seed=" << seed << " y=" << y << " j=" << j;
      }
    }
  }
}

TEST(ThetaGradTest, RatioPathMatchesDirectPath) {
  const Scenario s = make_scenario(31);
  rng::Xoshiro256 rng(77);
  std::vector<double> theta(kK * 2);
  for (double& t : theta) t = 0.5 + 2.0 * rng.next_double();

  // Direct accumulation over a mixed batch of pairs.
  std::vector<double> direct(kK * 2, 0.0);
  std::vector<double> ratio_link(kK, 0.0);
  std::vector<double> ratio_nonlink(kK, 0.0);
  for (int rep = 0; rep < 6; ++rep) {
    const bool y = rep % 2 == 0;
    const Scenario pair_s = make_scenario(100 + static_cast<std::uint64_t>(rep));
    Scenario with_beta = pair_s;
    with_beta.beta = s.beta;
    with_beta.terms.refresh(with_beta.beta, with_beta.delta);
    accumulate_theta_grad(with_beta.row_a, with_beta.row_b, with_beta.terms,
                          theta, y, direct);
    accumulate_theta_ratio(with_beta.row_a, with_beta.row_b,
                           with_beta.terms, y,
                           y ? std::span<double>(ratio_link)
                             : std::span<double>(ratio_nonlink));
  }
  std::vector<double> assembled(kK * 2, 0.0);
  theta_grad_from_ratios(ratio_link, ratio_nonlink, theta, assembled);
  for (std::size_t j = 0; j < kK * 2; ++j) {
    EXPECT_NEAR(assembled[j], direct[j],
                1e-12 * std::max(1.0, std::abs(direct[j])));
  }
}

TEST(UpdatePhiRowTest, KeepsRowNormalizedAndPositive) {
  Scenario s = make_scenario(41);
  std::vector<double> grad(kK, 0.0);
  accumulate_phi_grad(s.row_a, s.row_b, s.terms, true, grad);
  std::vector<float> row = s.row_a;
  update_phi_row(/*seed=*/5, /*iteration=*/3, /*vertex=*/7, row, grad,
                 /*scale=*/100.0, /*eps=*/0.01, /*alpha=*/0.1);
  double sum = 0.0;
  for (std::size_t i = 0; i < kK; ++i) {
    EXPECT_GT(row[i], 0.0f);
    sum += row[i];
  }
  EXPECT_NEAR(sum, 1.0, 1e-5);
  EXPECT_GT(row[kK], 0.0f);
}

TEST(UpdatePhiRowTest, DeterministicPerIterationAndVertex) {
  const Scenario s = make_scenario(42);
  std::vector<double> grad(kK, 0.25);
  std::vector<float> row1 = s.row_a;
  std::vector<float> row2 = s.row_a;
  update_phi_row(9, 2, 4, row1, grad, 10.0, 0.01, 0.1);
  update_phi_row(9, 2, 4, row2, grad, 10.0, 0.01, 0.1);
  EXPECT_EQ(row1, row2);
  std::vector<float> row3 = s.row_a;
  update_phi_row(9, 3, 4, row3, grad, 10.0, 0.01, 0.1);
  EXPECT_NE(row1, row3);  // different iteration -> different noise
}

TEST(UpdatePhiRowTest, ZeroStepIsIdentityUpToRenormalization) {
  const Scenario s = make_scenario(43);
  std::vector<double> grad(kK, 1000.0);  // irrelevant at eps = 0
  std::vector<float> row = s.row_a;
  update_phi_row(1, 0, 0, row, grad, 1.0, 0.0, 0.1);
  for (std::size_t i = 0; i < kK; ++i) {
    EXPECT_NEAR(row[i], s.row_a[i], 1e-6);
  }
}

TEST(UpdateThetaTest, StaysPositiveAndRefreshesBeta) {
  GlobalState g(4);
  Hyper hyper;
  hyper.num_communities = 4;
  g.init_random(3, hyper);
  const float beta_before = g.beta(0);
  std::vector<double> grad(8, -50.0);  // strong negative push
  update_theta(/*seed=*/3, /*iteration=*/0, g, grad, /*eps=*/0.05, 1.0,
               1.0);
  for (std::uint32_t k = 0; k < 4; ++k) {
    EXPECT_GT(g.theta(k, 0), 0.0);
    EXPECT_GT(g.theta(k, 1), 0.0);
    EXPECT_GT(g.beta(k), 0.0f);
    EXPECT_LT(g.beta(k), 1.0f);
  }
  // Beta must reflect the new theta.
  EXPECT_NE(g.beta(0), beta_before);
}

// A step size too large for the model overflows theta; update_theta
// reports it instead of handing inf to the next likelihood, and leaves
// theta and beta as they were.
TEST(UpdateThetaTest, ReportsADivergingStep) {
  GlobalState g(4);
  Hyper hyper;
  hyper.num_communities = 4;
  g.init_random(3, hyper);
  std::vector<double> grad(8, 50.0);
  EXPECT_TRUE(update_theta(3, 0, g, grad, /*eps=*/0.05, 1.0, 1.0));
  const std::vector<double> theta(g.theta_flat().begin(),
                                  g.theta_flat().end());
  const std::vector<float> beta(g.beta_all().begin(), g.beta_all().end());
  grad.assign(8, 50.0);
  EXPECT_FALSE(update_theta(3, 1, g, grad, /*eps=*/1e308, 1.0, 1.0));
  EXPECT_TRUE(std::equal(theta.begin(), theta.end(),
                         g.theta_flat().begin()));
  EXPECT_TRUE(std::equal(beta.begin(), beta.end(), g.beta_all().begin()));
}

}  // namespace
}  // namespace scd::core
