// Continuous distributions needed by SGRLD for a-MMSB:
//   Normal   — the Langevin noise xi_t ~ N(0, eps_t)
//   Gamma    — expanded-mean initialisation phi ~ Gamma(alpha, 1),
//              theta ~ Gamma(eta, 1)
//   Beta     — community-strength prior beta_k ~ Beta(eta) in the
//              generative model
//   Dirichlet — node memberships pi_a ~ Dirichlet(alpha) when *generating*
//              synthetic graphs
//
// All samplers take the engine by reference so callers control streams.
#pragma once

#include <span>

#include "random/xoshiro.h"

namespace scd::rng {

/// Standard normal via the Marsaglia polar method (exact, no tables):
/// one variate per accepted pair, u * sqrt(-2 ln s / s); v is dropped.
/// The rejection samplers (gamma, the general-MMSB theta noise) use it.
double sample_standard_normal(Xoshiro256& rng);

/// The SGRLD noise stream: fills `out` with Marsaglia polar normals,
/// both variates of every accepted pair, u * m then v * m with
/// m = sqrt(-2 ln s / s). An odd-length batch drops the last pair's v,
/// so an even-length batch gives the same values however it is split
/// into even-length calls. ln is log_positive, so every ISA clone
/// computes the same bits.
void sample_standard_normals(Xoshiro256& rng, std::span<double> out);

/// ln x for positive finite x (subnormals included), within 2 ulp of
/// std::log. The in-repo log the batch above vectorizes; unlike
/// std::log its bits do not depend on the C library.
double log_positive(double x);

/// N(mean, stddev^2).
inline double sample_normal(Xoshiro256& rng, double mean, double stddev) {
  return mean + stddev * sample_standard_normal(rng);
}

/// Gamma(shape, scale=1) via Marsaglia–Tsang squeeze; shape < 1 handled
/// with the boost trick. shape must be > 0.
double sample_gamma(Xoshiro256& rng, double shape);

/// Gamma(shape, scale).
inline double sample_gamma(Xoshiro256& rng, double shape, double scale) {
  return scale * sample_gamma(rng, shape);
}

/// Beta(a, b) via two gammas.
double sample_beta(Xoshiro256& rng, double a, double b);

/// Exponential(rate).
double sample_exponential(Xoshiro256& rng, double rate);

/// Symmetric Dirichlet(alpha) of dimension out.size(), written into `out`.
void sample_dirichlet(Xoshiro256& rng, double alpha, std::span<double> out);

/// General Dirichlet(alpha[i]).
void sample_dirichlet(Xoshiro256& rng, std::span<const double> alpha,
                      std::span<double> out);

/// Draw an index in [0, probs.size()) from the given (normalised)
/// categorical distribution. Linear scan; fine for the K ranges used here.
std::size_t sample_categorical(Xoshiro256& rng,
                               std::span<const double> probs);

}  // namespace scd::rng
