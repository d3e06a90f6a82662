#include "random/distributions.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/error.h"

namespace scd::rng {

double sample_standard_normal(Xoshiro256& rng) {
  // Marsaglia polar: rejection from the unit disc. ~1.27 uniforms/normal;
  // we discard the second variate to keep the sampler stateless, which
  // matters for reproducibility across refactorings.
  for (;;) {
    const double u = 2.0 * rng.next_double() - 1.0;
    const double v = 2.0 * rng.next_double() - 1.0;
    const double s = u * u + v * v;
    if (s > 0.0 && s < 1.0) {
      return u * std::sqrt(-2.0 * std::log(s) / s);
    }
  }
}

void sample_standard_normals(Xoshiro256& rng, std::span<double> out) {
  // Candidates land at the accept count: a rejected pair is overwritten
  // by the next one, and the loop stops right after the pair that the
  // serial sampler would have returned last. `u` is staged in `out`, `s`
  // in a fixed block, so the batch is processed block by block.
  constexpr std::size_t kBlock = 64;
  double s_block[kBlock];
  for (std::size_t base = 0; base < out.size(); base += kBlock) {
    const std::size_t n = std::min(kBlock, out.size() - base);
    double* u_block = out.data() + base;
    std::size_t accepted = 0;
    while (accepted < n) {
      const double u = 2.0 * rng.next_double() - 1.0;
      const double v = 2.0 * rng.next_double() - 1.0;
      const double s = u * u + v * v;
      u_block[accepted] = u;
      s_block[accepted] = s;
      accepted += static_cast<std::size_t>((s > 0.0) & (s < 1.0));
    }
    for (std::size_t i = 0; i < n; ++i) {
      const double s = s_block[i];
      u_block[i] = u_block[i] * std::sqrt(-2.0 * std::log(s) / s);
    }
  }
}

double sample_gamma(Xoshiro256& rng, double shape) {
  SCD_REQUIRE(shape > 0.0, "gamma shape must be positive");
  if (shape < 1.0) {
    // Boost: X ~ Gamma(shape+1), then X * U^(1/shape) ~ Gamma(shape).
    // For tiny shapes U^(1/shape) underflows; floor at the smallest
    // normal double so callers can rely on strict positivity.
    const double x = sample_gamma(rng, shape + 1.0);
    double u = rng.next_double();
    while (u == 0.0) u = rng.next_double();
    return std::max(x * std::pow(u, 1.0 / shape),
                    std::numeric_limits<double>::min());
  }
  // Marsaglia & Tsang (2000).
  const double d = shape - 1.0 / 3.0;
  const double c = 1.0 / std::sqrt(9.0 * d);
  for (;;) {
    double x;
    double v;
    do {
      x = sample_standard_normal(rng);
      v = 1.0 + c * x;
    } while (v <= 0.0);
    v = v * v * v;
    const double u = rng.next_double();
    const double x2 = x * x;
    if (u < 1.0 - 0.0331 * x2 * x2) return d * v;
    if (u > 0.0 &&
        std::log(u) < 0.5 * x2 + d * (1.0 - v + std::log(v))) {
      return d * v;
    }
  }
}

double sample_beta(Xoshiro256& rng, double a, double b) {
  SCD_REQUIRE(a > 0.0 && b > 0.0, "beta parameters must be positive");
  const double x = sample_gamma(rng, a);
  const double y = sample_gamma(rng, b);
  const double s = x + y;
  return s > 0.0 ? x / s : 0.5;
}

double sample_exponential(Xoshiro256& rng, double rate) {
  SCD_REQUIRE(rate > 0.0, "exponential rate must be positive");
  double u = rng.next_double();
  while (u == 0.0) u = rng.next_double();
  return -std::log(u) / rate;
}

void sample_dirichlet(Xoshiro256& rng, double alpha, std::span<double> out) {
  SCD_REQUIRE(!out.empty(), "dirichlet needs dimension >= 1");
  double sum = 0.0;
  for (double& x : out) {
    x = sample_gamma(rng, alpha);
    sum += x;
  }
  if (sum <= 0.0) {
    // All-zero draw is possible for tiny alpha in float terms; fall back
    // to uniform rather than produce NaNs downstream.
    const double uniform = 1.0 / static_cast<double>(out.size());
    for (double& x : out) x = uniform;
    return;
  }
  for (double& x : out) x /= sum;
}

void sample_dirichlet(Xoshiro256& rng, std::span<const double> alpha,
                      std::span<double> out) {
  SCD_REQUIRE(alpha.size() == out.size(), "dirichlet dimension mismatch");
  double sum = 0.0;
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = sample_gamma(rng, alpha[i]);
    sum += out[i];
  }
  if (sum <= 0.0) {
    const double uniform = 1.0 / static_cast<double>(out.size());
    for (double& x : out) x = uniform;
    return;
  }
  for (double& x : out) x /= sum;
}

std::size_t sample_categorical(Xoshiro256& rng,
                               std::span<const double> probs) {
  SCD_REQUIRE(!probs.empty(), "categorical needs at least one category");
  const double u = rng.next_double();
  double acc = 0.0;
  for (std::size_t i = 0; i < probs.size(); ++i) {
    acc += probs[i];
    if (u < acc) return i;
  }
  return probs.size() - 1;  // numeric slack: acc may end below 1.0
}

}  // namespace scd::rng
