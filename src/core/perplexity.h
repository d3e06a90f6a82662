// Held-out perplexity (Eqn 7).
//
// The estimator averages *probabilities* across the T posterior samples
// collected so far (one per evaluation point), then takes
// exp(-mean log avg-prob). Each evaluator instance owns one slice of E_h
// (a rank's share in the distributed setting; everything in one process
// otherwise) and keeps the running per-pair probability sums between
// evaluations.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/heldout.h"

namespace scd::core {

class PerplexityEvaluator {
 public:
  explicit PerplexityEvaluator(std::span<const graph::HeldOutPair> slice);

  std::span<const graph::HeldOutPair> slice() const { return slice_; }
  std::size_t size() const { return slice_.size(); }

  /// Record this sample's probability for pair index i of the slice.
  /// Thread-safe for distinct i.
  void add_sample_prob(std::size_t i, double prob) {
    prob_sums_[i] += prob;
  }

  /// Advance the sample counter after all pairs were recorded.
  void finish_sample() { ++num_samples_; }

  std::uint64_t num_samples() const { return num_samples_; }

  /// sum over the slice of log(average probability). The distributed
  /// reduction sums these (plus counts) across ranks.
  double sum_log_avg() const;

  /// exp(-sum/count): combine after a global reduction.
  static double perplexity(double total_sum_log_avg,
                           std::uint64_t total_pairs);

 private:
  std::span<const graph::HeldOutPair> slice_;
  std::vector<double> prob_sums_;
  std::uint64_t num_samples_ = 0;
};

}  // namespace scd::core
