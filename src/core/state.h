// Model state containers.
//
// Following the paper's memory layout decision (Section III-A), the local
// state per vertex is stored as the K floats of pi plus the single float
// sum(phi) — phi itself is recomputed as phi_ak = pi_ak * phi_sum_a when
// needed, trading a multiply for a 2x memory saving. PiMatrix is the
// in-process version of that layout; the distributed sampler stores the
// same rows in a DKV store.
//
// Global state is theta (K x 2 Gamma-reparameterized strengths, double
// precision — it is tiny and master-owned) and the derived beta.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/hyper.h"
#include "random/xoshiro.h"
#include "threading/thread_pool.h"

namespace scd::core {

/// Row width of the pi representation: K pi entries + phi_sum.
inline std::uint32_t pi_row_width(std::uint32_t k) { return k + 1; }

/// Deterministic per-(label, indices) engine derivation: all samplers
/// (sequential / parallel / distributed) draw the same randomness for the
/// same logical event, making their trajectories comparable across any
/// thread or worker count. See tests/core/equivalence_test.cpp.
rng::Xoshiro256 derive_rng(std::uint64_t seed, std::uint64_t label,
                           std::uint64_t x = 0, std::uint64_t y = 0);

/// Well-known labels for derive_rng.
namespace rng_label {
constexpr std::uint64_t kPhiInit = 1;
constexpr std::uint64_t kThetaInit = 2;
constexpr std::uint64_t kNeighbors = 3;
constexpr std::uint64_t kPhiNoise = 4;
constexpr std::uint64_t kThetaNoise = 5;
constexpr std::uint64_t kMinibatch = 6;
constexpr std::uint64_t kGraphGen = 7;
constexpr std::uint64_t kHeldOut = 8;
}  // namespace rng_label

/// Initialize one pi row (pi normalized from phi_ak ~ Gamma(init_shape))
/// into `row` (layout: pi[0..K-1], phi_sum). Deterministic per (seed, a).
void init_pi_row(std::uint64_t seed, std::uint64_t vertex, double init_shape,
                 std::span<float> row);

/// Rows per claim when a pool builds a pi image row by row (init_random,
/// the distributed store image): about 1024 Gamma draws, tens of
/// microseconds, so a claim outweighs its atomic fetch at any K.
inline std::uint64_t init_rows_per_claim(std::uint32_t k) {
  return std::max<std::uint64_t>(1, 1024 / std::uint64_t{k});
}

/// N x (K+1) float matrix of [pi | phi_sum] rows, in one owned buffer.
/// A copy is one memcpy of that buffer.
class PiMatrix {
 public:
  /// Every entry zero.
  PiMatrix(std::uint32_t num_vertices, std::uint32_t num_communities);

  /// Storage whose entries are left unset, for a caller that writes
  /// every row before reading any (init_random, the checkpoint loader):
  /// the rows are then written once, not zeroed first.
  static PiMatrix for_overwrite(std::uint32_t num_vertices,
                                std::uint32_t num_communities);

  PiMatrix(const PiMatrix& other);
  PiMatrix& operator=(const PiMatrix& other);
  /// A moved-from matrix holds no rows.
  PiMatrix(PiMatrix&& other) noexcept;
  PiMatrix& operator=(PiMatrix&& other) noexcept;

  /// Gamma(init_shape) expanded-mean initialisation of every row: row v
  /// is init_pi_row(seed, v, init_shape), drawn on `pool`. Each row has
  /// its own stream, so the bytes do not depend on the thread count.
  void init_random(threading::ThreadPool& pool, std::uint64_t seed,
                   double init_shape = 1.0);
  /// The same, on a one-thread pool (the calling thread).
  void init_random(std::uint64_t seed, double init_shape = 1.0);

  std::uint32_t num_vertices() const { return n_; }
  std::uint32_t num_communities() const { return k_; }
  std::uint32_t row_width() const { return k_ + 1; }

  std::span<float> row(std::uint32_t v) {
    return {data_.get() + std::size_t{v} * row_width(), row_width()};
  }
  std::span<const float> row(std::uint32_t v) const {
    return {data_.get() + std::size_t{v} * row_width(), row_width()};
  }
  /// All rows back to back: num_vertices() * row_width() floats.
  std::span<float> flat() { return {data_.get(), size()}; }
  std::span<const float> flat() const { return {data_.get(), size()}; }

  float pi(std::uint32_t v, std::uint32_t k) const {
    return data_[std::size_t{v} * row_width() + k];
  }
  float phi_sum(std::uint32_t v) const {
    return data_[std::size_t{v} * row_width() + k_];
  }

 private:
  struct ForOverwrite {};
  PiMatrix(std::uint32_t num_vertices, std::uint32_t num_communities,
           ForOverwrite);

  std::size_t size() const { return std::size_t{n_} * row_width(); }

  std::uint32_t n_;
  std::uint32_t k_;
  std::unique_ptr<float[]> data_;
};

/// Global community-strength state.
class GlobalState {
 public:
  explicit GlobalState(std::uint32_t num_communities);

  /// theta_ki ~ Gamma(eta_i) initialisation; deterministic per seed.
  void init_random(std::uint64_t seed, const Hyper& hyper);

  std::uint32_t num_communities() const { return k_; }

  /// theta[k][i], i = 0 (non-link pseudo-count) or 1 (link pseudo-count).
  double theta(std::uint32_t k, unsigned i) const {
    return theta_[k * 2 + i];
  }
  void set_theta(std::uint32_t k, unsigned i, double value) {
    theta_[k * 2 + i] = value;
  }
  std::span<double> theta_flat() { return theta_; }
  std::span<const double> theta_flat() const { return theta_; }

  /// beta_k = theta_k1 / (theta_k0 + theta_k1), refreshed by
  /// update_beta_from_theta().
  float beta(std::uint32_t k) const { return beta_[k]; }
  std::span<const float> beta_all() const { return beta_; }
  std::span<float> beta_mutable() { return beta_; }

  void update_beta_from_theta();

 private:
  std::uint32_t k_;
  std::vector<double> theta_;  // K x 2
  std::vector<float> beta_;    // K
};

}  // namespace scd::core
