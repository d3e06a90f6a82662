#include "core/grads.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "random/distributions.h"
#include "util/error.h"

namespace scd::core {

void LikelihoodTerms::refresh(std::span<const float> beta, double delta) {
  const std::size_t k = beta.size();
  bt_link.resize(k);
  bt_nonlink.resize(k);
  btd_link.resize(k);
  btd_nonlink.resize(k);
  dt_link = delta;
  dt_nonlink = 1.0 - delta;
  const float dl = static_cast<float>(dt_link);
  const float dn = static_cast<float>(dt_nonlink);
  btd_sum_link = 0.0;
  btd_sum_nonlink = 0.0;
  for (std::size_t i = 0; i < k; ++i) {
    bt_link[i] = beta[i];
    bt_nonlink[i] = 1.0f - beta[i];
    btd_link[i] = bt_link[i] - dl;
    btd_nonlink[i] = bt_nonlink[i] - dn;
    btd_sum_link += btd_link[i];
    btd_sum_nonlink += btd_nonlink[i];
  }
}

namespace {
inline std::size_t k_of(std::span<const float> row) {
  return row.size() - 1;  // last slot is phi_sum
}
}  // namespace

double pair_likelihood(std::span<const float> row_a,
                       std::span<const float> row_b,
                       const LikelihoodTerms& terms, bool y) {
  const std::size_t k = k_of(row_a);
  SCD_ASSERT(k_of(row_b) == k, "row width mismatch");
  const std::span<const float> bt = terms.bt(y);
  const double dt = terms.dt(y);
  double z = 0.0;
  for (std::size_t i = 0; i < k; ++i) {
    const double pa = row_a[i];
    const double pb = row_b[i];
    z += pa * (pb * static_cast<double>(bt[i]) + dt * (1.0 - pb));
  }
  return std::max(z, kMinZ);
}

double accumulate_phi_grad(std::span<const float> row_a,
                           std::span<const float> row_b,
                           const LikelihoodTerms& terms, bool y,
                           std::span<double> grad) {
  const std::size_t k = k_of(row_a);
  SCD_ASSERT(grad.size() == k, "gradient size mismatch");
  const std::span<const float> bt = terms.bt(y);
  const double dt = terms.dt(y);
  const double phi_sum = row_a[k];
  SCD_ASSERT(phi_sum > 0.0, "phi_sum must be positive");

  // First pass: w_k and Z; second pass: the gradient terms.
  double z = 0.0;
  for (std::size_t i = 0; i < k; ++i) {
    const double pb = row_b[i];
    const double w = pb * static_cast<double>(bt[i]) + dt * (1.0 - pb);
    z += static_cast<double>(row_a[i]) * w;
  }
  z = std::max(z, kMinZ);
  const double inv_z = 1.0 / z;
  const double inv_phi_sum = 1.0 / phi_sum;
  for (std::size_t i = 0; i < k; ++i) {
    const double pb = row_b[i];
    const double w = pb * static_cast<double>(bt[i]) + dt * (1.0 - pb);
    grad[i] += (w * inv_z - 1.0) * inv_phi_sum;
  }
  return z;
}

double accumulate_theta_grad(std::span<const float> row_a,
                             std::span<const float> row_b,
                             const LikelihoodTerms& terms,
                             std::span<const double> theta, bool y,
                             std::span<double> grad) {
  const std::size_t k = k_of(row_a);
  SCD_ASSERT(grad.size() == 2 * k && theta.size() == 2 * k,
             "theta gradient size mismatch");
  const std::span<const float> bt = terms.bt(y);
  const double z = pair_likelihood(row_a, row_b, terms, y);
  const double inv_z = 1.0 / z;
  const unsigned iy = y ? 1u : 0u;
  for (std::size_t i = 0; i < k; ++i) {
    const double f =
        static_cast<double>(row_a[i]) * static_cast<double>(row_b[i]) *
        static_cast<double>(bt[i]);
    const double ratio = f * inv_z;  // f_ab(k,k) / Z
    const double t0 = theta[i * 2 + 0];
    const double t1 = theta[i * 2 + 1];
    const double inv_sum = 1.0 / (t0 + t1);
    // |1 - i - y| selects the 1/theta_ki term for i == y only.
    grad[i * 2 + iy] += ratio * (1.0 / theta[i * 2 + iy] - inv_sum);
    grad[i * 2 + (1 - iy)] += ratio * (-inv_sum);
  }
  return z;
}

double accumulate_theta_ratio(std::span<const float> row_a,
                              std::span<const float> row_b,
                              const LikelihoodTerms& terms, bool y,
                              std::span<double> ratio) {
  const std::size_t k = k_of(row_a);
  SCD_ASSERT(ratio.size() == k, "ratio size mismatch");
  const std::span<const float> bt = terms.bt(y);
  const double z = pair_likelihood(row_a, row_b, terms, y);
  const double inv_z = 1.0 / z;
  for (std::size_t i = 0; i < k; ++i) {
    const double f =
        static_cast<double>(row_a[i]) * static_cast<double>(row_b[i]) *
        static_cast<double>(bt[i]);
    ratio[i] += f * inv_z;
  }
  return z;
}

void theta_grad_from_ratios(std::span<const double> ratio_link,
                            std::span<const double> ratio_nonlink,
                            std::span<const double> theta,
                            std::span<double> grad) {
  const std::size_t k = ratio_link.size();
  SCD_ASSERT(ratio_nonlink.size() == k && theta.size() == 2 * k &&
                 grad.size() == 2 * k,
             "theta grad assembly size mismatch");
  for (std::size_t i = 0; i < k; ++i) {
    const double t0 = theta[i * 2 + 0];
    const double t1 = theta[i * 2 + 1];
    const double inv_sum = 1.0 / (t0 + t1);
    // y = 1 pairs feed the 1/theta term of i = 1; y = 0 pairs of i = 0.
    grad[i * 2 + 1] = ratio_link[i] * (1.0 / t1 - inv_sum) +
                      ratio_nonlink[i] * (-inv_sum);
    grad[i * 2 + 0] = ratio_nonlink[i] * (1.0 / t0 - inv_sum) +
                      ratio_link[i] * (-inv_sum);
  }
}

void update_phi_row(std::uint64_t seed, std::uint64_t iteration,
                    std::uint32_t vertex, std::span<float> row,
                    std::span<const double> grad, double scale, double eps,
                    double alpha, double noise_factor, GradientForm form) {
  const std::size_t k = k_of(row);
  SCD_ASSERT(grad.size() == k, "gradient size mismatch");
  rng::Xoshiro256 noise =
      derive_rng(seed, rng_label::kPhiNoise, iteration, vertex);
  const double noise_scale = noise_factor * std::sqrt(eps);
  const double phi_sum = row[k];
  double new_sum = 0.0;
  // The K draws come in even-length batches, which give the values of
  // one K-long batch. phi_ak = pi_ak * phi_sum; the updated phis are
  // staged in-place as we go (the old pi values are consumed left to
  // right).
  constexpr std::size_t kNoiseBatch = 64;
  double xi[kNoiseBatch];
  for (std::size_t base = 0; base < k; base += kNoiseBatch) {
    const std::size_t n = std::min(kNoiseBatch, k - base);
    rng::sample_standard_normals(noise, std::span<double>(xi, n));
    for (std::size_t j = 0; j < n; ++j) {
      const std::size_t i = base + j;
      const double phi = static_cast<double>(row[i]) * phi_sum;
      const double g = form == GradientForm::kPreconditioned
                           ? phi * grad[i]
                           : grad[i];
      double updated = phi + 0.5 * eps * (alpha - phi + scale * g) +
                       std::sqrt(phi) * (xi[j] * noise_scale);
      updated = std::abs(updated);  // SGRLD reflection at zero
      updated = std::max(updated, kParamFloor);
      row[i] = static_cast<float>(updated);
      new_sum += updated;
    }
  }
  const double inv = 1.0 / new_sum;
  for (std::size_t i = 0; i < k; ++i) {
    row[i] = static_cast<float>(static_cast<double>(row[i]) * inv);
  }
  row[k] = static_cast<float>(new_sum);
}

bool update_theta(std::uint64_t seed, std::uint64_t iteration,
                  GlobalState& global, std::span<double> grad,
                  double eps, double eta0, double eta1,
                  double noise_factor, GradientForm form) {
  const std::uint32_t k = global.num_communities();
  SCD_ASSERT(grad.size() == std::size_t{k} * 2, "gradient size mismatch");
  rng::Xoshiro256 noise = derive_rng(seed, rng_label::kThetaNoise, iteration);
  const double noise_scale = noise_factor * std::sqrt(eps);
  // The 2K draws, in (community, slot) order, come in even-length
  // batches that fill a stack buffer: the values of one 2K-long batch.
  constexpr std::size_t kNoiseBatch = 64;
  double xi[kNoiseBatch];
  const std::size_t slots = std::size_t{k} * 2;
  bool finite = true;
  for (std::size_t base = 0; base < slots; base += kNoiseBatch) {
    const std::size_t n = std::min(kNoiseBatch, slots - base);
    rng::sample_standard_normals(noise, std::span<double>(xi, n));
    for (std::size_t j = 0; j < n; ++j) {
      const auto c = static_cast<std::uint32_t>((base + j) / 2);
      const unsigned i = static_cast<unsigned>((base + j) % 2);
      const double theta = global.theta(c, i);
      // Prior: theta_k1 (link pseudo-count) pairs with eta0, theta_k0
      // with eta1, matching GlobalState::init_random.
      const double eta = (i == 1) ? eta0 : eta1;
      const double g = form == GradientForm::kPreconditioned
                           ? theta * grad[base + j]
                           : grad[base + j];
      double updated = theta + 0.5 * eps * (eta - theta + g) +
                       std::sqrt(theta) * (xi[j] * noise_scale);
      updated = std::abs(updated);
      updated = std::max(updated, kParamFloor);
      finite = finite && std::isfinite(updated);
      grad[base + j] = updated;  // theta_flat()[base + j] is theta(c, i)
    }
  }
  if (!finite) return false;
  std::copy(grad.begin(), grad.end(), global.theta_flat().begin());
  global.update_beta_from_theta();
  return true;
}

void refuse_diverged_step(std::uint64_t iteration, const std::string& what,
                          double eps) {
  std::ostringstream msg;
  msg << "iteration " << iteration << ": the SGRLD step diverged at " << what
      << " (step size eps = " << eps
      << " leaves it non-finite); lower the step-size a";
  throw UsageError(msg.str());
}

}  // namespace scd::core
