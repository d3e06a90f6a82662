#include "core/state.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "random/distributions.h"
#include "util/error.h"

namespace scd::core {

rng::Xoshiro256 derive_rng(std::uint64_t seed, std::uint64_t label,
                           std::uint64_t x, std::uint64_t y) {
  // Chain SplitMix64 over the tuple; each stage fully mixes, so distinct
  // tuples give decorrelated engines.
  std::uint64_t s = seed;
  std::uint64_t h = rng::splitmix64(s);
  s ^= label * 0x9e3779b97f4a7c15ULL;
  h ^= rng::splitmix64(s);
  s ^= x * 0xc2b2ae3d27d4eb4fULL;
  h ^= rng::splitmix64(s);
  s ^= y * 0x165667b19e3779f9ULL;
  h ^= rng::splitmix64(s);
  return rng::Xoshiro256(h);
}

void init_pi_row(std::uint64_t seed, std::uint64_t vertex, double init_shape,
                 std::span<float> row) {
  SCD_REQUIRE(row.size() >= 2, "row must hold at least one pi + phi_sum");
  const std::size_t k = row.size() - 1;
  rng::Xoshiro256 engine = derive_rng(seed, rng_label::kPhiInit, vertex);
  double sum = 0.0;
  for (std::size_t i = 0; i < k; ++i) {
    const double phi = rng::sample_gamma(engine, init_shape);
    row[i] = static_cast<float>(phi);
    sum += phi;
  }
  if (sum <= 0.0) {
    const float uniform = 1.0f / static_cast<float>(k);
    for (std::size_t i = 0; i < k; ++i) row[i] = uniform;
    row[k] = 1.0f;
    return;
  }
  for (std::size_t i = 0; i < k; ++i) {
    row[i] = static_cast<float>(static_cast<double>(row[i]) / sum);
  }
  row[k] = static_cast<float>(sum);
}

PiMatrix::PiMatrix(std::uint32_t num_vertices, std::uint32_t num_communities,
                   ForOverwrite)
    : n_(num_vertices), k_(num_communities) {
  SCD_REQUIRE(num_vertices >= 1 && num_communities >= 1,
              "empty pi matrix");
  data_ = std::make_unique_for_overwrite<float[]>(size());
}

PiMatrix::PiMatrix(std::uint32_t num_vertices, std::uint32_t num_communities)
    : PiMatrix(num_vertices, num_communities, ForOverwrite{}) {
  std::fill_n(data_.get(), size(), 0.0f);
}

PiMatrix PiMatrix::for_overwrite(std::uint32_t num_vertices,
                                 std::uint32_t num_communities) {
  return PiMatrix(num_vertices, num_communities, ForOverwrite{});
}

PiMatrix::PiMatrix(const PiMatrix& other)
    : n_(other.n_),
      k_(other.k_),
      data_(std::make_unique_for_overwrite<float[]>(other.size())) {
  if (size() > 0) {
    std::memcpy(data_.get(), other.data_.get(), size() * sizeof(float));
  }
}

PiMatrix& PiMatrix::operator=(const PiMatrix& other) {
  if (this == &other) return *this;
  if (size() != other.size()) {
    data_ = std::make_unique_for_overwrite<float[]>(other.size());
  }
  n_ = other.n_;
  k_ = other.k_;
  if (size() > 0) {
    std::memcpy(data_.get(), other.data_.get(), size() * sizeof(float));
  }
  return *this;
}

PiMatrix::PiMatrix(PiMatrix&& other) noexcept
    : n_(std::exchange(other.n_, 0)),
      k_(std::exchange(other.k_, 0)),
      data_(std::move(other.data_)) {}

PiMatrix& PiMatrix::operator=(PiMatrix&& other) noexcept {
  n_ = std::exchange(other.n_, 0);
  k_ = std::exchange(other.k_, 0);
  data_ = std::move(other.data_);
  return *this;
}

void PiMatrix::init_random(threading::ThreadPool& pool, std::uint64_t seed,
                           double init_shape) {
  pool.parallel_for_dynamic(
      0, n_, init_rows_per_claim(k_),
      [&](unsigned, std::uint64_t lo, std::uint64_t hi) {
        for (std::uint64_t v = lo; v < hi; ++v) {
          init_pi_row(seed, v, init_shape,
                      row(static_cast<std::uint32_t>(v)));
        }
      });
}

void PiMatrix::init_random(std::uint64_t seed, double init_shape) {
  threading::ThreadPool one(1);
  init_random(one, seed, init_shape);
}

GlobalState::GlobalState(std::uint32_t num_communities)
    : k_(num_communities) {
  SCD_REQUIRE(num_communities >= 1, "need at least one community");
  theta_.assign(std::size_t{k_} * 2, 1.0);
  beta_.assign(k_, 0.5f);
}

void GlobalState::init_random(std::uint64_t seed, const Hyper& hyper) {
  rng::Xoshiro256 engine = derive_rng(seed, rng_label::kThetaInit);
  for (std::uint32_t k = 0; k < k_; ++k) {
    theta_[k * 2 + 0] = rng::sample_gamma(engine, hyper.eta1);
    theta_[k * 2 + 1] = rng::sample_gamma(engine, hyper.eta0);
  }
  update_beta_from_theta();
}

void GlobalState::update_beta_from_theta() {
  for (std::uint32_t k = 0; k < k_; ++k) {
    const double t0 = theta_[k * 2 + 0];
    const double t1 = theta_[k * 2 + 1];
    const double sum = t0 + t1;
    double b = sum > 0.0 ? t1 / sum : 0.5;
    // Keep beta inside (0, 1) so log terms in the gradients stay finite.
    // The margin must survive the cast to float (1 - 1e-9 rounds to 1.0f).
    b = std::clamp(b, 1e-6, 1.0 - 1e-6);
    beta_[k] = static_cast<float>(b);
  }
}

}  // namespace scd::core
