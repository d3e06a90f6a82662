// The SG-MCMC kernels: Eqns 3-6 of the paper and the O(K) pair
// likelihood from [16].
//
// Derivation notes (used to avoid dividing by phi_ak ~ 0):
//   With beta-term bt_k = beta_k^y (1-beta_k)^(1-y) and delta-term
//   dt = delta^y (1-delta)^(1-y), define w_k = pi_bk * bt_k + dt*(1-pi_bk).
//   Then the pair likelihood is
//       Z_ab^(y) = sum_k pi_ak * pi_bk * bt_k + dt * (1 - sum_k pi_ak pi_bk)
//                = sum_k pi_ak * w_k,
//   and the phi gradient (Eqn 6), using phi_ak = pi_ak * phi_sum_a,
//       g_ab(phi_ak) = f_ab(k)/(Z phi_ak) - 1/phi_sum_a
//                    = (w_k / Z - 1) / phi_sum_a.
//   The theta gradient (Eqn 4) needs f_ab(k,k)/Z = pi_ak pi_bk bt_k / Z.
//
// Rows use the [pi_0..pi_{K-1} | phi_sum] layout of core/state.h. All
// accumulation is in double; rows are float per the paper.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/state.h"

namespace scd::core {

/// Per-iteration cache of the y-dependent beta terms:
/// bt[1][k] = beta_k, bt[0][k] = 1 - beta_k, plus the delta terms.
///
/// refresh() additionally stages btd[y][k] = bt[y][k] - dt[y] once per
/// iteration, which lets the fused kernels (core/kernels_simd.h) form
/// w_k = dt + pi_bk * btd_k with a single fma per community instead of
/// recomputing pi_bk * bt_k + dt * (1 - pi_bk) from scratch, and the
/// scalar btd_sum[y] = sum_k btd[y][k], which the sparse kernels use to
/// fold the uniform epsilon term of a top-R row into Z analytically
/// (eps_a * eps_b * btd_sum instead of a K-loop over dropped entries).
struct LikelihoodTerms {
  std::vector<float> bt_link;      // beta_k
  std::vector<float> bt_nonlink;   // 1 - beta_k
  std::vector<float> btd_link;     // beta_k - delta
  std::vector<float> btd_nonlink;  // (1 - beta_k) - (1 - delta)
  double dt_link = 0.0;            // delta
  double dt_nonlink = 0.0;         // 1 - delta
  double btd_sum_link = 0.0;       // sum_k (beta_k - delta)
  double btd_sum_nonlink = 0.0;    // sum_k ((1-beta_k) - (1-delta))

  void refresh(std::span<const float> beta, double delta);
  std::span<const float> bt(bool y) const {
    return y ? std::span<const float>(bt_link)
             : std::span<const float>(bt_nonlink);
  }
  std::span<const float> btd(bool y) const {
    return y ? std::span<const float>(btd_link)
             : std::span<const float>(btd_nonlink);
  }
  double dt(bool y) const { return y ? dt_link : dt_nonlink; }
  double btd_sum(bool y) const {
    return y ? btd_sum_link : btd_sum_nonlink;
  }
};

/// Smallest probability Z may fall to; guards the divisions and logs in
/// both the scalar kernels (grads.cpp) and the fused ones
/// (kernels_simd.cpp).
inline constexpr double kMinZ = 1e-290;

/// Z_ab^(y): the model probability of observing y on pair (a, b). O(K).
double pair_likelihood(std::span<const float> row_a,
                       std::span<const float> row_b,
                       const LikelihoodTerms& terms, bool y);

/// Add g_ab(phi_ak) for all k into grad (Eqn 6). Returns Z_ab^(y).
double accumulate_phi_grad(std::span<const float> row_a,
                           std::span<const float> row_b,
                           const LikelihoodTerms& terms, bool y,
                           std::span<double> grad);

/// Add g_ab(theta_ki) for all k, i into grad (layout [k*2 + i]; Eqn 4).
/// `theta` is the current K x 2 state. Returns Z_ab^(y).
double accumulate_theta_grad(std::span<const float> row_a,
                             std::span<const float> row_b,
                             const LikelihoodTerms& terms,
                             std::span<const double> theta, bool y,
                             std::span<double> grad);

/// Factored form used by the distributed update_beta (and, for exact
/// numerical agreement, by all samplers): the pair's contribution to
/// g_ab(theta_ki) is ratio_k(a,b,y) * coef_ki(y), where
///   ratio_k = f_ab(k,k)/Z = pi_ak pi_bk bt_k / Z        (pair-dependent)
///   coef_ki = [i == y]/theta_ki - 1/(theta_k0+theta_k1) (theta-only)
/// Workers accumulate ratio sums per y stratum; a 2K-double reduction
/// ships them to the master, which applies the theta coefficients —
/// exactly the "contributions to g_ab(theta)" the paper reduces.
/// Returns Z_ab^(y).
double accumulate_theta_ratio(std::span<const float> row_a,
                              std::span<const float> row_b,
                              const LikelihoodTerms& terms, bool y,
                              std::span<double> ratio);

/// Assemble the K x 2 theta gradient from the per-stratum ratio sums.
void theta_grad_from_ratios(std::span<const double> ratio_link,
                            std::span<const double> ratio_nonlink,
                            std::span<const double> theta,
                            std::span<double> grad);

/// Floor applied to phi and theta after the SGRLD step; keeps the
/// expanded-mean parameters strictly positive so later sqrt/log are safe.
inline constexpr double kParamFloor = 1e-12;

/// Which drift the SGRLD updates use.
///
/// kRawEqn3 is the paper's Eqn 3/5 taken literally: drift
/// eps/2 (prior - theta + scale * g) with g the plain gradient of the
/// log-likelihood. kPreconditioned multiplies the likelihood gradient by
/// the parameter (theta * g / phi * g) — the expanded-mean "count minus
/// expectation" form of Patterson & Teh's SGRLD, whose stationary
/// distribution is the exact conjugate posterior (verified by
/// PosteriorTest: for K = 1 the chain mean matches the closed-form Beta
/// posterior only under kPreconditioned; kRawEqn3 equilibrates theta at
/// O(sqrt(counts)) and biases beta toward 1/2). kRawEqn3 nevertheless
/// recovers community structure effectively and is what the published
/// equations say, so it remains available; see DESIGN.md.
enum class GradientForm { kRawEqn3, kPreconditioned };

/// SGRLD update of one vertex's row (Eqn 5): given the neighbor-summed
/// gradient, apply step eps with prior alpha and minibatch scale
/// (N/|V_n|), then renormalize into [pi | phi_sum]. Noise is drawn from
/// the deterministic stream (seed, kPhiNoise, iteration, vertex).
/// `noise_factor` scales the Langevin noise: 1 = SGRLD sampling (the
/// algorithm of the paper), 0 = deterministic preconditioned SGD toward
/// the MAP — useful for escaping symmetric saddles (general MMSB) and as
/// an optimization-mode ablation.
void update_phi_row(std::uint64_t seed, std::uint64_t iteration,
                    std::uint32_t vertex, std::span<float> row,
                    std::span<const double> grad, double scale, double eps,
                    double alpha, double noise_factor = 1.0,
                    GradientForm form = GradientForm::kRawEqn3);

/// SGRLD update of theta (Eqn 3): grad must already include the h(E_n)
/// scale. Noise stream: (seed, kThetaNoise, iteration). Refreshes beta.
/// The new theta is staged in `grad` (overwritten, in theta_flat order)
/// and written to `global` only when every value is finite. Returns
/// false, leaving theta and beta as they were, for a diverging step; the
/// caller refuses it.
bool update_theta(std::uint64_t seed, std::uint64_t iteration,
                  GlobalState& global, std::span<double> grad,
                  double eps, double eta0, double eta1,
                  double noise_factor = 1.0,
                  GradientForm form = GradientForm::kRawEqn3);

/// Throws the UsageError the samplers raise for a diverging SGRLD step:
/// it names the iteration, the parameter (`what`) and the step size.
[[noreturn]] void refuse_diverged_step(std::uint64_t iteration,
                                       const std::string& what, double eps);

}  // namespace scd::core
