#include "random/distributions.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include "util/error.h"
#include "util/isa_clones.h"

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

namespace {

// ln x for positive finite x, branch-free so the batch transform below
// vectorizes. x = 2^e * m with m in [sqrt(2)/2, sqrt(2)); then
// ln m = 2 atanh(t), t = f / (2 + f), f = m - 1, |t| < 0.1716, and the
// atanh series with its exact 1/(2j+1) coefficients reaches double
// precision by j = 10 (t^22 / 23 < 2^-60). The leading f is exact and
// the series only corrects it (fdlibm's arrangement), which keeps the
// result within 2 ulp of std::log (DistributionsTest checks 10^7 inputs).
inline double log_positive_body(double x) {
  // Subnormals are scaled into the normal range first. The scale and
  // the exponent correction are selected as integers, so no FP op is
  // conditional and the loop that inlines this if-converts.
  const std::uint64_t normal = x >= 0x1p-1022 ? 1 : 0;
  x *= std::bit_cast<double>(0x4350000000000000ULL - (normal * (54ULL << 52)));
  // Adding this offset carries mantissas >= sqrt(2)/2 * 2 into the next
  // binade, which moves the reduced m into [sqrt(2)/2, sqrt(2)).
  constexpr std::uint64_t kSqrtHalfBits = 0x3fe6a09e00000000ULL;
  const std::uint64_t bits =
      std::bit_cast<std::uint64_t>(x) + (0x3ff0000000000000ULL - kSqrtHalfBits);
  // The unbiased exponent as a double, without an int -> double convert
  // (AVX2 has none for 64-bit lanes): 2^52 + n is read back as a double.
  const double e =
      std::bit_cast<double>(((bits >> 52) + normal * 54) |
                            0x4330000000000000ULL) -
      (0x1p52 + 1023.0 + 54.0);
  const double m = std::bit_cast<double>((bits & 0x000fffffffffffffULL) +
                                         kSqrtHalfBits);
  const double f = m - 1.0;
  const double t = f / (2.0 + f);
  const double z = t * t;
  double series = 1.0 / 21.0;
  series = 1.0 / 19.0 + z * series;
  series = 1.0 / 17.0 + z * series;
  series = 1.0 / 15.0 + z * series;
  series = 1.0 / 13.0 + z * series;
  series = 1.0 / 11.0 + z * series;
  series = 1.0 / 9.0 + z * series;
  series = 1.0 / 7.0 + z * series;
  series = 1.0 / 5.0 + z * series;
  series = 1.0 / 3.0 + z * series;
  // r = 2 (t^2/3 + t^4/5 + ...), so ln m = 2t + t r = f - t (f - r).
  const double r = 2.0 * z * series;
  const double half_f2 = 0.5 * f * f;
  // ln 2 split so that e * kLn2Hi is exact for |e| < 2^11.
  constexpr double kLn2Hi = 6.93147180369123816490e-01;
  constexpr double kLn2Lo = 1.90821492927058770002e-10;
  return e * kLn2Hi - ((half_f2 - (t * (half_f2 + r) + e * kLn2Lo)) - f);
}

}  // namespace

double log_positive(double x) { return log_positive_body(x); }

SCD_KERNEL
void sample_standard_normals(Xoshiro256& rng, std::span<double> out) {
  // Candidates land at the accept count: a rejected pair is overwritten
  // by the next one, so the accept test costs no branch. Each block's
  // transforms then run as one vector pass, and the accepted pair
  // (u, v) with m = sqrt(-2 ln s / s) writes u * m, v * m.
  constexpr std::size_t kBlock = 32;  // pairs
  double u_block[kBlock];
  double v_block[kBlock];
  double s_block[kBlock];
  Xoshiro256 local = rng;
  for (std::size_t base = 0; base < out.size(); base += 2 * kBlock) {
    const std::size_t left = out.size() - base;
    const std::size_t pairs = std::min(kBlock, (left + 1) / 2);
    std::size_t accepted = 0;
    while (accepted < pairs) {
      const double u = 2.0 * local.next_double() - 1.0;
      const double v = 2.0 * local.next_double() - 1.0;
      const double s = u * u + v * v;
      u_block[accepted] = u;
      v_block[accepted] = v;
      s_block[accepted] = s;
      accepted += static_cast<std::size_t>((s > 0.0) & (s < 1.0));
    }
    for (std::size_t i = 0; i < pairs; ++i) {
      const double s = s_block[i];
      s_block[i] = std::sqrt(-2.0 * log_positive_body(s) / s);
    }
    double* dst = out.data() + base;
    const std::size_t whole = std::min(pairs, left / 2);
    for (std::size_t i = 0; i < whole; ++i) {
      dst[2 * i] = u_block[i] * s_block[i];
      dst[2 * i + 1] = v_block[i] * s_block[i];
    }
    if (whole < pairs) dst[2 * whole] = u_block[whole] * s_block[whole];
  }
  rng = local;
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
