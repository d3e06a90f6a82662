#include "core/perplexity.h"

#include <algorithm>
#include <cmath>

#include "util/error.h"

namespace scd::core {

PerplexityEvaluator::PerplexityEvaluator(
    std::span<const graph::HeldOutPair> slice)
    : slice_(slice), prob_sums_(slice.size(), 0.0) {}

double PerplexityEvaluator::sum_log_avg() const {
  SCD_REQUIRE(num_samples_ > 0, "no samples recorded yet");
  const double inv_t = 1.0 / static_cast<double>(num_samples_);
  double total = 0.0;
  for (double s : prob_sums_) {
    total += std::log(std::max(s * inv_t, 1e-290));
  }
  return total;
}

double PerplexityEvaluator::perplexity(double total_sum_log_avg,
                                       std::uint64_t total_pairs) {
  SCD_REQUIRE(total_pairs > 0, "perplexity over an empty held-out set");
  return std::exp(-total_sum_log_avg / static_cast<double>(total_pairs));
}

}  // namespace scd::core
