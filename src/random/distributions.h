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

/// Standard normal via Marsaglia polar method (exact, no tables).
double sample_standard_normal(Xoshiro256& rng);

/// Fills `out` with out.size() standard normals: the same values, in the
/// same order, leaving `rng` in the same state as that many
/// sample_standard_normal calls. The polar pairs are drawn with a
/// branch-free accept count and transformed in one pass afterwards, so
/// the rejection step costs no branch mispredictions.
void sample_standard_normals(Xoshiro256& rng, std::span<double> out);

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
