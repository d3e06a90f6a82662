// Hyperparameters of the a-MMSB model and the SGRLD step-size schedule.
#pragma once

#include <cmath>
#include <cstdint>

#include "util/error.h"

namespace scd::core {

struct Hyper {
  /// Number of latent communities K.
  std::uint32_t num_communities = 16;

  /// Dirichlet concentration for node memberships pi_a ~ Dirichlet(alpha).
  /// The common default is 1/K; call normalized_alpha() to apply it.
  double alpha = 0.0;  // 0 = auto (1/K)

  /// Beta prior for community strengths: beta_k ~ Beta(eta0, eta1).
  /// eta0 pairs with the link pseudo-count theta_k1, eta1 with theta_k0.
  double eta0 = 1.0;
  double eta1 = 1.0;

  /// Inter-community link probability delta. Must be small relative to
  /// the graph density; see suggested_delta().
  double delta = 1e-7;

  double normalized_alpha() const {
    return alpha > 0.0 ? alpha
                       : 1.0 / static_cast<double>(num_communities);
  }

  /// Every value must be finite: an infinite prior reaches the kernels
  /// as a non-finite row and aborts there.
  void validate() const {
    SCD_REQUIRE(num_communities >= 1, "need at least one community");
    SCD_REQUIRE(alpha >= 0.0 && std::isfinite(alpha),
                "alpha must be finite and >= 0 (0 = auto)");
    SCD_REQUIRE(eta0 > 0.0 && eta1 > 0.0 && std::isfinite(eta0) &&
                    std::isfinite(eta1),
                "eta must be finite and positive");
    SCD_REQUIRE(delta > 0.0 && delta < 1.0, "delta must be in (0, 1)");
  }
};

/// A delta an order of magnitude below the graph density: non-community
/// links should be rare under the model.
inline double suggested_delta(double graph_density) {
  return std::max(1e-10, 0.1 * graph_density);
}

/// SGRLD step size eps_t = a * (1 + t/b)^(-c). The defaults follow the
/// ranges used for SGRLD on LDA / a-MMSB: c in (0.5, 1] satisfies the
/// Robbins-Monro conditions.
struct StepSchedule {
  double a = 0.01;
  double b = 1024.0;
  double c = 0.55;

  double eps(std::uint64_t t) const {
    return a * std::pow(1.0 + static_cast<double>(t) / b, -c);
  }

  void validate() const {
    SCD_REQUIRE(a > 0.0 && b > 0.0 && std::isfinite(a) && std::isfinite(b),
                "step-size a, b must be finite and positive");
    SCD_REQUIRE(c > 0.5 && c <= 1.0,
                "step-size exponent c must be in (0.5, 1]");
  }
};

}  // namespace scd::core
