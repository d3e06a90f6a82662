// Kernel definitions. This translation unit is compiled with
// vectorization-friendly flags (see src/core/CMakeLists.txt) so the lane
// loops below turn into packed SSE/AVX arithmetic regardless of the
// global build type; the reference kernels in grads.cpp keep the default
// flags and serve as the equivalence baseline in the tests.
#include "core/kernels_simd.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <type_traits>

#include "random/distributions.h"
#include "util/isa_clones.h"

// Scratch spans never alias the input rows; telling the compiler so is
// what allows the staged-w loops to vectorize.
#define SCD_RESTRICT __restrict__

// Every public entry point carries SCD_KERNEL (util/isa_clones.h): an
// AVX2 clone and a baseline x86-64 clone, bound at load time. The clones
// are bit-identical: the lane loops fix the summation order, the AVX2
// target does not include FMA, and -ffp-contract=off on this file keeps
// any a*b+c from fusing.

namespace scd::core {

namespace {

inline std::size_t k_of(std::span<const float> row) {
  return row.size() - 1;  // last slot is phi_sum
}

/// Fold the lane accumulators into the double carry.
inline double lane_sum(const float (&lanes)[kFusedLanes]) {
  double s = 0.0;
  for (std::size_t l = 0; l < kFusedLanes; ++l) {
    s += static_cast<double>(lanes[l]);
  }
  return s;
}

}  // namespace

SCD_KERNEL
void fast_update_phi_row(std::uint64_t seed, std::uint64_t iteration,
                         std::uint32_t vertex, std::span<float> row,
                         std::span<const double> grad, double scale,
                         double eps, double alpha, double noise_factor,
                         GradientForm form, std::span<double> noise_scratch) {
  const std::size_t k = k_of(row);
  SCD_KERNEL_ASSERT(grad.size() == k, "gradient size mismatch");
  SCD_KERNEL_ASSERT(noise_scratch.size() >= k, "noise scratch too small");

  // Stage the Langevin noise first, as one batch: the values the
  // reference update_phi_row draws in its even-length batches, so the
  // SGRLD step below is a pure elementwise pass.
  rng::Xoshiro256 noise_rng =
      derive_rng(seed, rng_label::kPhiNoise, iteration, vertex);
  rng::sample_standard_normals(noise_rng, noise_scratch.first(k));
  const double noise_scale = noise_factor * std::sqrt(eps);

  const double phi_sum = row[k];
  const bool precond = form == GradientForm::kPreconditioned;
  const double half_eps = 0.5 * eps;
  float* SCD_RESTRICT r = row.data();
  const double* SCD_RESTRICT g = grad.data();
  // Each staged noise value is overwritten by its element's new phi.
  double* SCD_RESTRICT staged = noise_scratch.data();

  // Elementwise SGRLD step, one packed pass (same values per element as
  // the reference update_phi_row).
  for (std::size_t i = 0; i < k; ++i) {
    const double phi = static_cast<double>(r[i]) * phi_sum;
    const double gg = precond ? phi * g[i] : g[i];
    double updated = phi + half_eps * (alpha - phi + scale * gg) +
                     std::sqrt(phi) * (staged[i] * noise_scale);
    updated = std::abs(updated);  // SGRLD reflection at zero
    updated = std::max(updated, kParamFloor);
    r[i] = static_cast<float>(updated);
    staged[i] = updated;
  }

  // new_sum accumulates in independent double lanes; only its
  // association differs from the reference.
  double new_sum = 0.0;
  std::size_t i = 0;
  constexpr std::size_t kSumLanes = 4;
  for (; i + kFusedBlock <= k; i += kFusedBlock) {
    double lanes[kSumLanes] = {0.0};
    for (std::size_t j = 0; j < kFusedBlock; j += kSumLanes) {
      for (std::size_t l = 0; l < kSumLanes; ++l) {
        lanes[l] += staged[i + j + l];
      }
    }
    for (std::size_t l = 0; l < kSumLanes; ++l) new_sum += lanes[l];
  }
  for (; i < k; ++i) new_sum += staged[i];

  const double inv = 1.0 / new_sum;
  for (std::size_t j = 0; j < k; ++j) {
    r[j] = static_cast<float>(static_cast<double>(r[j]) * inv);
  }
  r[k] = static_cast<float>(new_sum);
}

// --- fused kernel bodies -----------------------------------------------
// Each formula has one lane/block body, templated over a per-row element
// reader so dequantization happens in-register inside the loop. The
// float-span entry points read through plain `const float*`; the enc
// entry points through the codec readers below. The fp32 reader is a raw
// float load, so the kFloat32 instantiations perform the float-span
// arithmetic operation for operation — same order, same intermediate
// types — and therefore bit-identically.

namespace {

/// Plain little-endian float load: kFloat32 rows and fp32 sparse value
/// blocks. Goes through memcpy because a sparse row's value block sits
/// right after the u16 index section, which leaves it only 2-byte
/// aligned when nnz is odd.
struct Fp32Reader {
  const std::byte* p;
  explicit Fp32Reader(const std::byte* row) : p(row) {}
  float operator[](std::size_t i) const {
    float v;
    std::memcpy(&v, p + i * sizeof(v), sizeof(v));
    return v;
  }
};

/// IEEE half load + widen (quant::RowCodec::kFp16 layout).
struct Fp16Reader {
  const std::byte* p;
  explicit Fp16Reader(const std::byte* row) : p(row) {}
  float operator[](std::size_t i) const {
    std::uint16_t h;
    std::memcpy(&h, p + i * sizeof(h), sizeof(h));
    return quant::half_to_float(h);
  }
};

/// Per-row affine dequant (quant::RowCodec::kInt8 layout): one fma per
/// element against the row's scale/offset header.
struct Int8Reader {
  const std::byte* codes;
  float scale;
  float offset;
  explicit Int8Reader(const std::byte* row) {
    quant::Int8Header header;
    std::memcpy(&header, row, quant::kInt8HeaderBytes);
    scale = header.scale;
    offset = header.offset;
    codes = row + quant::kInt8HeaderBytes;
  }
  float operator[](std::size_t i) const {
    return offset +
           scale * static_cast<float>(static_cast<std::uint8_t>(codes[i]));
  }
};

template <typename RowA, typename RowB>
double fused_pair_likelihood_t(RowA pa, RowB pb, std::size_t k,
                               const LikelihoodTerms& terms, bool y) {
  const float* SCD_RESTRICT d = terms.btd(y).data();
  const float dtf = static_cast<float>(terms.dt(y));
  double z = 0.0;
  std::size_t i = 0;
  for (; i + kFusedBlock <= k; i += kFusedBlock) {
    float lanes[kFusedLanes] = {0.0f};
    for (std::size_t j = 0; j < kFusedBlock; j += kFusedLanes) {
      for (std::size_t l = 0; l < kFusedLanes; ++l) {
        const std::size_t idx = i + j + l;
        lanes[l] += pa[idx] * (dtf + pb[idx] * d[idx]);
      }
    }
    z += lane_sum(lanes);
  }
  for (; i < k; ++i) {
    z += static_cast<double>(pa[i]) * (dtf + pb[i] * d[i]);
  }
  return std::max(z, kMinZ);
}

/// Gradient entries held in registers while phase B of the tiled phi
/// gradient folds a tile's neighbors into them.
constexpr std::size_t kPhiGradChunk = 16;

/// The phi gradient of Eqn 6 for one vertex (`pa`, `phi_sum`) against
/// the n neighbors row_of(0..n-1) with link flags `links`, in two
/// phases. Phase A stages each neighbor's w_k = dt + pi_bk * btd_k into
/// its row of the w tile while its Z accumulates in the lane/block
/// order of every fused body. Phase B walks `grad` in kPhiGradChunk
/// columns and adds (w_tk / Z_t - 1) / phi_sum for t = 0..n-1 in order,
/// so each entry receives exactly the additions a per-neighbor loop
/// would make: the tile changes where the sum lives (registers instead
/// of memory), not what is summed.
template <typename RowOf>
void fused_phi_grad_tile_t(const float* SCD_RESTRICT pa, double phi_sum,
                           RowOf&& row_of, const bool* links, std::size_t n,
                           std::size_t k, const LikelihoodTerms& terms,
                           std::span<double> grad, std::span<float> w_scratch,
                           double* z_out) {
  SCD_KERNEL_ASSERT(grad.size() == k, "gradient size mismatch");
  SCD_KERNEL_ASSERT(n <= kPhiTileMax, "phi tile too wide");
  SCD_KERNEL_ASSERT(w_scratch.size() >= n * k, "w scratch too small");
  SCD_KERNEL_ASSERT(phi_sum > 0.0, "phi_sum must be positive");

  double inv_z[kPhiTileMax] = {};
  for (std::size_t t = 0; t < n; ++t) {
    const auto pb = row_of(t);
    const float* SCD_RESTRICT d = terms.btd(links[t]).data();
    const float dtf = static_cast<float>(terms.dt(links[t]));
    float* SCD_RESTRICT w = w_scratch.data() + t * k;
    double z = 0.0;
    std::size_t i = 0;
    for (; i + kFusedBlock <= k; i += kFusedBlock) {
      float lanes[kFusedLanes] = {0.0f};
      for (std::size_t j = 0; j < kFusedBlock; j += kFusedLanes) {
        for (std::size_t l = 0; l < kFusedLanes; ++l) {
          const std::size_t idx = i + j + l;
          const float wi = dtf + pb[idx] * d[idx];
          w[idx] = wi;
          lanes[l] += pa[idx] * wi;
        }
      }
      z += lane_sum(lanes);
    }
    for (; i < k; ++i) {
      const float wi = dtf + pb[i] * d[i];
      w[i] = wi;
      z += static_cast<double>(pa[i]) * wi;
    }
    z = std::max(z, kMinZ);
    z_out[t] = z;
    inv_z[t] = 1.0 / z;
  }

  const double inv_phi_sum = 1.0 / phi_sum;
  const float* SCD_RESTRICT w = w_scratch.data();
  double* SCD_RESTRICT g = grad.data();
  std::size_t j = 0;
  for (; j + kPhiGradChunk <= k; j += kPhiGradChunk) {
    double acc[kPhiGradChunk];
    for (std::size_t c = 0; c < kPhiGradChunk; ++c) acc[c] = g[j + c];
    for (std::size_t t = 0; t < n; ++t) {
      const float* SCD_RESTRICT wt = w + t * k + j;
      const double iz = inv_z[t];
      for (std::size_t c = 0; c < kPhiGradChunk; ++c) {
        acc[c] += (static_cast<double>(wt[c]) * iz - 1.0) * inv_phi_sum;
      }
    }
    for (std::size_t c = 0; c < kPhiGradChunk; ++c) g[j + c] = acc[c];
  }
  for (; j < k; ++j) {
    double acc = g[j];
    for (std::size_t t = 0; t < n; ++t) {
      acc += (static_cast<double>(w[t * k + j]) * inv_z[t] - 1.0) *
             inv_phi_sum;
    }
    g[j] = acc;
  }
}

template <typename RowA, typename RowB>
double fused_accumulate_theta_ratio_t(RowA pa, RowB pb, std::size_t k,
                                      const LikelihoodTerms& terms, bool y,
                                      std::span<double> ratio,
                                      std::span<float> f_scratch) {
  SCD_KERNEL_ASSERT(ratio.size() == k, "ratio size mismatch");
  SCD_KERNEL_ASSERT(f_scratch.size() >= k, "f scratch too small");
  const float* SCD_RESTRICT bt = terms.bt(y).data();
  const float* SCD_RESTRICT d = terms.btd(y).data();
  float* SCD_RESTRICT f = f_scratch.data();
  const float dtf = static_cast<float>(terms.dt(y));

  double z = 0.0;
  std::size_t i = 0;
  for (; i + kFusedBlock <= k; i += kFusedBlock) {
    float lanes[kFusedLanes] = {0.0f};
    for (std::size_t j = 0; j < kFusedBlock; j += kFusedLanes) {
      for (std::size_t l = 0; l < kFusedLanes; ++l) {
        const std::size_t idx = i + j + l;
        const float prod = pa[idx] * pb[idx];
        f[idx] = prod * bt[idx];
        lanes[l] += dtf * pa[idx] + prod * d[idx];
      }
    }
    z += lane_sum(lanes);
  }
  for (; i < k; ++i) {
    const float prod = pa[i] * pb[i];
    f[i] = prod * bt[i];
    z += static_cast<double>(dtf * pa[i]) + static_cast<double>(prod * d[i]);
  }
  z = std::max(z, kMinZ);

  const double inv_z = 1.0 / z;
  double* SCD_RESTRICT r = ratio.data();
  for (std::size_t j = 0; j < k; ++j) {
    r[j] += static_cast<double>(f[j]) * inv_z;
  }
  return z;
}

inline void check_encoded(quant::RowCodec codec,
                          std::span<const std::byte> row, std::uint32_t k) {
  SCD_KERNEL_ASSERT(row.size() == quant::encoded_bytes(codec, k + 1),
                    "encoded row size mismatch");
}

/// Invoke `fn(reader_a, reader_b)` with the reader type for `codec`.
/// Dense codecs only — the sparse codecs are parsed by the sparse kernel
/// section below, never read through a flat dense reader.
template <typename Fn>
double with_readers(quant::RowCodec codec, std::span<const std::byte> row_a,
                    std::span<const std::byte> row_b, Fn&& fn) {
  switch (codec) {
    case quant::RowCodec::kFloat32:
      return fn(Fp32Reader(row_a.data()), Fp32Reader(row_b.data()));
    case quant::RowCodec::kFp16:
      return fn(Fp16Reader(row_a.data()), Fp16Reader(row_b.data()));
    case quant::RowCodec::kInt8:
      return fn(Int8Reader(row_a.data()), Int8Reader(row_b.data()));
    case quant::RowCodec::kSparseTopR:
    case quant::RowCodec::kSparseTopRFp16:
    case quant::RowCodec::kSparseTopRInt8:
      break;
  }
  SCD_KERNEL_ASSERT(false, "dense reader requested for a sparse codec");
  return 0.0;
}

/// Invoke `fn(std::type_identity<Reader>{})` with the reader type for
/// `codec` (dense only), for bodies that build one reader per row.
template <typename Fn>
void with_reader_type(quant::RowCodec codec, Fn&& fn) {
  switch (codec) {
    case quant::RowCodec::kFloat32:
      return fn(std::type_identity<Fp32Reader>{});
    case quant::RowCodec::kFp16:
      return fn(std::type_identity<Fp16Reader>{});
    case quant::RowCodec::kInt8:
      return fn(std::type_identity<Int8Reader>{});
    case quant::RowCodec::kSparseTopR:
    case quant::RowCodec::kSparseTopRFp16:
    case quant::RowCodec::kSparseTopRInt8:
      break;
  }
  SCD_KERNEL_ASSERT(false, "dense reader requested for a sparse codec");
}

/// Shared body of the two enc phi-gradient entry points (dense codecs).
void dense_phi_grad_tile_enc(
    quant::RowCodec codec, std::span<const float> row_a,
    std::span<const std::span<const std::byte>> rows_b,
    std::span<const bool> links, const LikelihoodTerms& terms,
    std::span<double> grad, std::span<float> w_scratch,
    std::span<double> z_out) {
  const std::size_t k = k_of(row_a);
  SCD_KERNEL_ASSERT(links.size() == rows_b.size() &&
                        z_out.size() >= rows_b.size(),
                    "phi tile size mismatch");
  for (std::span<const std::byte> row : rows_b) {
    check_encoded(codec, row, static_cast<std::uint32_t>(k));
  }
  with_reader_type(codec, [&](auto reader) {
    using Reader = typename decltype(reader)::type;
    fused_phi_grad_tile_t(
        row_a.data(), row_a[k],
        [&](std::size_t t) { return Reader(rows_b[t].data()); },
        links.data(), rows_b.size(), k, terms, grad, w_scratch,
        z_out.data());
  });
}

// --- sparse row parsing and kernels ------------------------------------

/// Parsed header/offsets of one encoded sparse top-R row. In sparse form
/// `payload` is the value block (read through the value codec's reader);
/// for a dense-fallback row it is the value codec's complete dense row.
struct SparseView {
  std::uint32_t k = 0;
  std::uint32_t nnz = 0;
  bool fallback = false;
  bool idx16 = true;
  float eps = 0.0f;
  const std::byte* indices = nullptr;
  const std::byte* payload = nullptr;

  std::uint32_t index(std::uint32_t i) const {
    if (idx16) {
      std::uint16_t v;
      std::memcpy(&v, indices + std::size_t{i} * sizeof(v), sizeof(v));
      return v;
    }
    std::uint32_t v;
    std::memcpy(&v, indices + std::size_t{i} * sizeof(v), sizeof(v));
    return v;
  }
};

SparseView parse_sparse(std::span<const std::byte> row, std::uint32_t k) {
  SparseView v;
  v.k = k;
  v.idx16 = quant::sparse_index_bytes(k) == sizeof(std::uint16_t);
  quant::SparseHeader header;
  std::memcpy(&header, row.data(), quant::kSparseHeaderBytes);
  if (header.nnz >= k) {
    v.fallback = true;
    v.nnz = k;
    v.payload = row.data() + quant::kSparseHeaderBytes;
  } else {
    v.nnz = header.nnz;
    v.eps = v.nnz < k
                ? header.residual_mass / static_cast<float>(k - v.nnz)
                : 0.0f;
    v.indices = row.data() + quant::kSparseHeaderBytes;
    v.payload =
        v.indices + std::size_t{v.nnz} * quant::sparse_index_bytes(k);
  }
  return v;
}

/// Invoke `fn(values)` with the value-codec reader over a value block or
/// fallback payload.
template <typename Fn>
double with_value_reader(quant::RowCodec value, const std::byte* p,
                         Fn&& fn) {
  switch (value) {
    case quant::RowCodec::kFloat32:
      return fn(Fp32Reader(p));
    case quant::RowCodec::kFp16:
      return fn(Fp16Reader(p));
    case quant::RowCodec::kInt8:
      return fn(Int8Reader(p));
    default:
      break;
  }
  SCD_KERNEL_ASSERT(false, "sparse value codec must be dense");
  return 0.0;
}

template <typename Fn>
double with_two_value_readers(quant::RowCodec value, const std::byte* a,
                              const std::byte* b, Fn&& fn) {
  switch (value) {
    case quant::RowCodec::kFloat32:
      return fn(Fp32Reader(a), Fp32Reader(b));
    case quant::RowCodec::kFp16:
      return fn(Fp16Reader(a), Fp16Reader(b));
    case quant::RowCodec::kInt8:
      return fn(Int8Reader(a), Int8Reader(b));
    default:
      break;
  }
  SCD_KERNEL_ASSERT(false, "sparse value codec must be dense");
  return 0.0;
}

/// Decoded mass (eps*(k-nnz) + sum of kept values) and btd-weighted
/// support sum t = sum_{i in S} (v_i - eps) * d[idx_i] of a sparse-form
/// row. O(nnz).
template <typename VR>
void sparse_mass_t(const SparseView& v, VR values, const float* d,
                   double& mass, double& t) {
  mass = static_cast<double>(v.eps) * (v.k - v.nnz);
  t = 0.0;
  for (std::uint32_t i = 0; i < v.nnz; ++i) {
    const double val = values[i];
    mass += val;
    t += (val - static_cast<double>(v.eps)) *
         static_cast<double>(d[v.index(i)]);
  }
}

/// Z for two sparse-form rows: Z = dt*Ma + eps_a*eps_b*btd_sum +
/// eps_a*Tb + eps_b*Ta + merge-intersect. O(nnz_a + nnz_b).
template <typename VA, typename VB>
double sparse_pair_z(const SparseView& a, VA va, const SparseView& b,
                     VB vb, const LikelihoodTerms& terms, bool y) {
  const float* SCD_RESTRICT d = terms.btd(y).data();
  const double dt = terms.dt(y);
  double ma = 0.0, ta = 0.0, mb = 0.0, tb = 0.0;
  sparse_mass_t(a, va, d, ma, ta);
  sparse_mass_t(b, vb, d, mb, tb);
  double inter = 0.0;
  std::uint32_t i = 0, j = 0;
  while (i < a.nnz && j < b.nnz) {
    const std::uint32_t ia = a.index(i);
    const std::uint32_t ib = b.index(j);
    if (ia < ib) {
      ++i;
    } else if (ib < ia) {
      ++j;
    } else {
      inter += (static_cast<double>(va[i]) - a.eps) *
               (static_cast<double>(vb[j]) - b.eps) *
               static_cast<double>(d[ia]);
      ++i;
      ++j;
    }
  }
  const double z = dt * ma +
                   static_cast<double>(a.eps) *
                       static_cast<double>(b.eps) * terms.btd_sum(y) +
                   static_cast<double>(a.eps) * tb +
                   static_cast<double>(b.eps) * ta + inter;
  return std::max(z, kMinZ);
}

/// Z with a sparse-form `a` and a dense reader `pb` (fallback side).
/// O(K) over the dense side, O(nnz_a) over the support.
template <typename VA, typename RB>
double sparse_dense_pair_z(const SparseView& a, VA va, RB pb,
                           std::uint32_t k, const LikelihoodTerms& terms,
                           bool y) {
  const float* SCD_RESTRICT d = terms.btd(y).data();
  const double dt = terms.dt(y);
  double spb = 0.0;
  for (std::uint32_t j = 0; j < k; ++j) {
    spb += static_cast<double>(pb[j]) * static_cast<double>(d[j]);
  }
  double ma = static_cast<double>(a.eps) * (a.k - a.nnz);
  double s = 0.0;
  for (std::uint32_t i = 0; i < a.nnz; ++i) {
    const std::uint32_t idx = a.index(i);
    const double sa = static_cast<double>(va[i]) - a.eps;
    ma += va[i];
    s += sa * static_cast<double>(pb[idx]) * static_cast<double>(d[idx]);
  }
  return std::max(dt * ma + static_cast<double>(a.eps) * spb + s, kMinZ);
}

/// Z with a dense reader `pa` (fallback side) and a sparse-form `b`.
template <typename RA, typename VB>
double dense_sparse_pair_z(RA pa, const SparseView& b, VB vb,
                           std::uint32_t k, const LikelihoodTerms& terms,
                           bool y) {
  const float* SCD_RESTRICT d = terms.btd(y).data();
  const double dt = terms.dt(y);
  double ma = 0.0, sad = 0.0;
  for (std::uint32_t j = 0; j < k; ++j) {
    const double p = pa[j];
    ma += p;
    sad += p * static_cast<double>(d[j]);
  }
  double s = 0.0;
  for (std::uint32_t i = 0; i < b.nnz; ++i) {
    const std::uint32_t idx = b.index(i);
    s += static_cast<double>(pa[idx]) *
         (static_cast<double>(vb[i]) - b.eps) * static_cast<double>(d[idx]);
  }
  return std::max(dt * ma + static_cast<double>(b.eps) * sad + s, kMinZ);
}

/// Sparse pair likelihood; a fallback x fallback pair takes the fused
/// dense body.
double sparse_pair_likelihood(quant::RowCodec codec,
                              std::span<const std::byte> row_a,
                              std::span<const std::byte> row_b,
                              std::uint32_t k, const LikelihoodTerms& terms,
                              bool y) {
  const quant::RowCodec value = quant::value_codec(codec);
  const SparseView a = parse_sparse(row_a, k);
  const SparseView b = parse_sparse(row_b, k);
  if (a.fallback && b.fallback) {
    return with_two_value_readers(
        value, a.payload, b.payload, [&](auto ra, auto rb) {
          return fused_pair_likelihood_t(ra, rb, k, terms, y);
        });
  }
  if (a.fallback) {
    return with_two_value_readers(
        value, a.payload, b.payload, [&](auto ra, auto vb) {
          return dense_sparse_pair_z(ra, b, vb, k, terms, y);
        });
  }
  if (b.fallback) {
    return with_two_value_readers(
        value, a.payload, b.payload, [&](auto va, auto rb) {
          return sparse_dense_pair_z(a, va, rb, k, terms, y);
        });
  }
  return with_two_value_readers(
      value, a.payload, b.payload, [&](auto va, auto vb) {
        return sparse_pair_z(a, va, b, vb, terms, y);
      });
}

/// Phi gradient against a dense-fallback sparse neighbor, in double: the
/// batched sparse path has no w scratch to stage into, so w is formed
/// twice (once for Z, once for the gradient). O(K).
template <typename RowB>
double fallback_phi_grad_t(std::span<const float> row_a, RowB rb,
                           std::size_t k, const LikelihoodTerms& terms, bool y,
                           std::span<double> grad) {
  const std::span<const float> bt = terms.bt(y);
  const double dt = terms.dt(y);
  const double phi_sum = row_a[k];
  SCD_KERNEL_ASSERT(phi_sum > 0.0, "phi_sum must be positive");

  double z = 0.0;
  for (std::size_t i = 0; i < k; ++i) {
    const double pb = rb[i];
    const double w = pb * static_cast<double>(bt[i]) + dt * (1.0 - pb);
    z += static_cast<double>(row_a[i]) * w;
  }
  z = std::max(z, kMinZ);
  const double inv_z = 1.0 / z;
  const double inv_phi_sum = 1.0 / phi_sum;
  for (std::size_t i = 0; i < k; ++i) {
    const double pb = rb[i];
    const double w = pb * static_cast<double>(bt[i]) + dt * (1.0 - pb);
    grad[i] += (w * inv_z - 1.0) * inv_phi_sum;
  }
  return z;
}

/// Theta ratio for a pair whose two sides are both dense-fallback rows,
/// in double (no f scratch on the sparse path). O(K).
template <typename RowA, typename RowB>
double fallback_theta_ratio_t(RowA ra, RowB rb, std::size_t k,
                              const LikelihoodTerms& terms, bool y,
                              std::span<double> ratio) {
  const std::span<const float> bt = terms.bt(y);
  const double dt = terms.dt(y);
  double z = 0.0;
  for (std::size_t i = 0; i < k; ++i) {
    const double pa = ra[i];
    const double pb = rb[i];
    z += pa * (pb * static_cast<double>(bt[i]) + dt * (1.0 - pb));
  }
  z = std::max(z, kMinZ);
  const double inv_z = 1.0 / z;
  for (std::size_t i = 0; i < k; ++i) {
    const double f = static_cast<double>(ra[i]) *
                     static_cast<double>(rb[i]) *
                     static_cast<double>(bt[i]);
    ratio[i] += f * inv_z;
  }
  return z;
}

/// Mixed theta ratio: one dense reader side, one sparse-form side.
/// O(K) over the dense side plus O(nnz) over the support; the per-pair
/// epsilon contribution cannot fold into eps_coef because the dense row
/// varies per community, so it is charged directly.
template <typename RD, typename VS>
double mixed_theta_ratio(RD rd, const SparseView& s, VS vs,
                         std::uint32_t k, const LikelihoodTerms& terms,
                         bool y, bool dense_is_a, std::span<double> ratio) {
  const double z = dense_is_a
                       ? dense_sparse_pair_z(rd, s, vs, k, terms, y)
                       : sparse_dense_pair_z(s, vs, rd, k, terms, y);
  const double inv_z = 1.0 / z;
  const float* SCD_RESTRICT bt = terms.bt(y).data();
  const double eps_coef = static_cast<double>(s.eps) * inv_z;
  double* SCD_RESTRICT r = ratio.data();
  for (std::uint32_t j = 0; j < k; ++j) {
    r[j] += static_cast<double>(rd[j]) * static_cast<double>(bt[j]) *
            eps_coef;
  }
  for (std::uint32_t i = 0; i < s.nnz; ++i) {
    const std::uint32_t idx = s.index(i);
    r[idx] += static_cast<double>(rd[idx]) *
              (static_cast<double>(vs[i]) - s.eps) *
              static_cast<double>(bt[idx]) * inv_z;
  }
  return z;
}

/// Both-sparse theta ratio: support scatters plus the uniform
/// eps_a*eps_b term folded into eps_coef for the epilogue. O(nnz_a+nnz_b).
template <typename VA, typename VB>
double sparse_sparse_theta_ratio(const SparseView& a, VA va,
                                 const SparseView& b, VB vb,
                                 const LikelihoodTerms& terms, bool y,
                                 std::span<double> ratio,
                                 double& eps_coef) {
  const double z = sparse_pair_z(a, va, b, vb, terms, y);
  const double inv_z = 1.0 / z;
  const float* SCD_RESTRICT bt = terms.bt(y).data();
  double* SCD_RESTRICT r = ratio.data();
  const double ea = a.eps;
  const double eb = b.eps;
  for (std::uint32_t i = 0; i < a.nnz; ++i) {
    const std::uint32_t idx = a.index(i);
    r[idx] += eb * (static_cast<double>(va[i]) - ea) *
              static_cast<double>(bt[idx]) * inv_z;
  }
  for (std::uint32_t i = 0; i < b.nnz; ++i) {
    const std::uint32_t idx = b.index(i);
    r[idx] += ea * (static_cast<double>(vb[i]) - eb) *
              static_cast<double>(bt[idx]) * inv_z;
  }
  std::uint32_t i = 0, j = 0;
  while (i < a.nnz && j < b.nnz) {
    const std::uint32_t ia = a.index(i);
    const std::uint32_t ib = b.index(j);
    if (ia < ib) {
      ++i;
    } else if (ib < ia) {
      ++j;
    } else {
      r[ia] += (static_cast<double>(va[i]) - ea) *
               (static_cast<double>(vb[j]) - eb) *
               static_cast<double>(bt[ia]) * inv_z;
      ++i;
      ++j;
    }
  }
  eps_coef += ea * eb * inv_z;
  return z;
}

}  // namespace

// --- sparse kernels ----------------------------------------------------

SCD_KERNEL
SparsePhiStage sparse_phi_stage(std::span<const float> row_a,
                                const LikelihoodTerms& terms) {
  const std::size_t k = k_of(row_a);
  const float* SCD_RESTRICT pa = row_a.data();
  const float* SCD_RESTRICT d0 = terms.btd(false).data();
  const float* SCD_RESTRICT d1 = terms.btd(true).data();
  SparsePhiStage stage;
  for (std::size_t j = 0; j < k; ++j) {
    const double p = pa[j];
    stage.mass += p;
    stage.sa[0] += p * static_cast<double>(d0[j]);
    stage.sa[1] += p * static_cast<double>(d1[j]);
  }
  return stage;
}

SCD_KERNEL
double sparse_accumulate_phi_grad_enc(quant::RowCodec codec,
                                      std::span<const float> row_a,
                                      const SparsePhiStage& stage,
                                      std::span<const std::byte> row_b,
                                      const LikelihoodTerms& terms, bool y,
                                      std::span<double> grad,
                                      SparsePhiAccum& acc) {
  const std::size_t k = k_of(row_a);
  SCD_KERNEL_ASSERT(grad.size() == k, "gradient size mismatch");
  check_encoded(codec, row_b, static_cast<std::uint32_t>(k));
  const quant::RowCodec value = quant::value_codec(codec);
  const SparseView b = parse_sparse(row_b, static_cast<std::uint32_t>(k));
  if (b.fallback) {
    // Dense-fallback neighbor: the full O(K) dense kernel writes the
    // complete gradient directly; nothing lands in the accumulator, so
    // the epilogue stays correct.
    return with_value_reader(value, b.payload, [&](auto rb) {
      return fallback_phi_grad_t(row_a, rb, k, terms, y, grad);
    });
  }
  const double phi_sum = row_a[k];
  SCD_KERNEL_ASSERT(phi_sum > 0.0, "phi_sum must be positive");
  const float* SCD_RESTRICT pa = row_a.data();
  const float* SCD_RESTRICT d = terms.btd(y).data();
  const double dt = terms.dt(y);
  const double eps_b = b.eps;
  return with_value_reader(value, b.payload, [&](auto vb) {
    double s = 0.0;
    for (std::uint32_t i = 0; i < b.nnz; ++i) {
      const std::uint32_t idx = b.index(i);
      s += static_cast<double>(pa[idx]) *
           (static_cast<double>(vb[i]) - eps_b) * static_cast<double>(d[idx]);
    }
    const double z =
        std::max(dt * stage.mass + eps_b * stage.sa[y ? 1 : 0] + s, kMinZ);
    const double inv_z = 1.0 / z;
    const double coef = inv_z / phi_sum;
    double* SCD_RESTRICT g = grad.data();
    for (std::uint32_t i = 0; i < b.nnz; ++i) {
      const std::uint32_t idx = b.index(i);
      g[idx] += (static_cast<double>(vb[i]) - eps_b) *
                static_cast<double>(d[idx]) * coef;
    }
    acc.c0 += (dt * inv_z - 1.0) / phi_sum;
    acc.ceps[y ? 1 : 0] += eps_b * coef;
    return z;
  });
}

SCD_KERNEL
void sparse_phi_epilogue(const SparsePhiAccum& acc,
                         const LikelihoodTerms& terms,
                         std::span<double> grad) {
  const std::size_t k = grad.size();
  const float* SCD_RESTRICT d0 = terms.btd(false).data();
  const float* SCD_RESTRICT d1 = terms.btd(true).data();
  double* SCD_RESTRICT g = grad.data();
  for (std::size_t j = 0; j < k; ++j) {
    g[j] += acc.c0 + acc.ceps[0] * static_cast<double>(d0[j]) +
            acc.ceps[1] * static_cast<double>(d1[j]);
  }
}

SCD_KERNEL
double sparse_accumulate_theta_ratio_enc(quant::RowCodec codec,
                                         std::span<const std::byte> row_a,
                                         std::span<const std::byte> row_b,
                                         std::uint32_t k,
                                         const LikelihoodTerms& terms,
                                         bool y, std::span<double> ratio,
                                         double& eps_coef) {
  SCD_KERNEL_ASSERT(ratio.size() == k, "ratio size mismatch");
  check_encoded(codec, row_a, k);
  check_encoded(codec, row_b, k);
  const quant::RowCodec value = quant::value_codec(codec);
  const SparseView a = parse_sparse(row_a, k);
  const SparseView b = parse_sparse(row_b, k);
  if (a.fallback && b.fallback) {
    return with_two_value_readers(
        value, a.payload, b.payload, [&](auto ra, auto rb) {
          return fallback_theta_ratio_t(ra, rb, k, terms, y, ratio);
        });
  }
  if (a.fallback) {
    return with_two_value_readers(
        value, a.payload, b.payload, [&](auto ra, auto vb) {
          return mixed_theta_ratio(ra, b, vb, k, terms, y,
                                   /*dense_is_a=*/true, ratio);
        });
  }
  if (b.fallback) {
    return with_two_value_readers(
        value, a.payload, b.payload, [&](auto va, auto rb) {
          return mixed_theta_ratio(rb, a, va, k, terms, y,
                                   /*dense_is_a=*/false, ratio);
        });
  }
  return with_two_value_readers(
      value, a.payload, b.payload, [&](auto va, auto vb) {
        return sparse_sparse_theta_ratio(a, va, b, vb, terms, y, ratio,
                                         eps_coef);
      });
}

SCD_KERNEL
void sparse_theta_epilogue(double eps_coef_link, double eps_coef_nonlink,
                           const LikelihoodTerms& terms,
                           std::span<double> ratio_link,
                           std::span<double> ratio_nonlink) {
  const std::size_t k = ratio_link.size();
  SCD_KERNEL_ASSERT(ratio_nonlink.size() == k, "ratio size mismatch");
  const float* SCD_RESTRICT btl = terms.bt(true).data();
  const float* SCD_RESTRICT btn = terms.bt(false).data();
  double* SCD_RESTRICT rl = ratio_link.data();
  double* SCD_RESTRICT rn = ratio_nonlink.data();
  for (std::size_t j = 0; j < k; ++j) {
    rl[j] += eps_coef_link * static_cast<double>(btl[j]);
    rn[j] += eps_coef_nonlink * static_cast<double>(btn[j]);
  }
}

namespace {

/// Single-pair theta entry for sparse codecs: accumulate and immediately
/// fold the epsilon term into this y stratum's ratio (the batched path
/// defers the fold to sparse_theta_epilogue instead).
double sparse_theta_single(quant::RowCodec codec,
                           std::span<const std::byte> row_a,
                           std::span<const std::byte> row_b,
                           std::uint32_t k, const LikelihoodTerms& terms,
                           bool y, std::span<double> ratio) {
  double eps_coef = 0.0;
  const double z = sparse_accumulate_theta_ratio_enc(codec, row_a, row_b, k,
                                                     terms, y, ratio,
                                                     eps_coef);
  if (eps_coef != 0.0) {
    const float* SCD_RESTRICT bt = terms.bt(y).data();
    double* SCD_RESTRICT r = ratio.data();
    for (std::uint32_t j = 0; j < k; ++j) {
      r[j] += eps_coef * static_cast<double>(bt[j]);
    }
  }
  return z;
}

/// Single-pair phi entry for sparse codecs: stage + accumulate + an
/// immediate epilogue. Correct O(K) per pair; the batched path in
/// core/phi_kernel.h amortizes stage and epilogue across a vertex's
/// whole neighbor set instead.
double sparse_phi_grad_single(quant::RowCodec codec,
                              std::span<const float> row_a,
                              std::span<const std::byte> row_b,
                              const LikelihoodTerms& terms, bool y,
                              std::span<double> grad) {
  const SparsePhiStage stage = sparse_phi_stage(row_a, terms);
  SparsePhiAccum acc;
  const double z = sparse_accumulate_phi_grad_enc(codec, row_a, stage,
                                                  row_b, terms, y, grad,
                                                  acc);
  sparse_phi_epilogue(acc, terms, grad);
  return z;
}

}  // namespace

// --- entry points ------------------------------------------------------

SCD_KERNEL
double fast_pair_likelihood(std::span<const float> row_a,
                            std::span<const float> row_b,
                            const LikelihoodTerms& terms, bool y) {
  const std::size_t k = k_of(row_a);
  SCD_KERNEL_ASSERT(k_of(row_b) == k, "row width mismatch");
  return fused_pair_likelihood_t(row_a.data(), row_b.data(), k, terms, y);
}

SCD_KERNEL
double fast_accumulate_phi_grad(std::span<const float> row_a,
                                std::span<const float> row_b,
                                const LikelihoodTerms& terms, bool y,
                                std::span<double> grad,
                                std::span<float> w_scratch) {
  const std::size_t k = k_of(row_a);
  double z = 0.0;
  fused_phi_grad_tile_t(
      row_a.data(), row_a[k], [&](std::size_t) { return row_b.data(); }, &y,
      1, k, terms, grad, w_scratch, &z);
  return z;
}

SCD_KERNEL
void fast_accumulate_phi_grad_tile(
    std::span<const float> row_a,
    std::span<const std::span<const float>> rows_b,
    std::span<const bool> links, const LikelihoodTerms& terms,
    std::span<double> grad, std::span<float> w_scratch,
    std::span<double> z_out) {
  const std::size_t k = k_of(row_a);
  SCD_KERNEL_ASSERT(links.size() == rows_b.size() &&
                        z_out.size() >= rows_b.size(),
                    "phi tile size mismatch");
  for (std::span<const float> row : rows_b) {
    SCD_KERNEL_ASSERT(k_of(row) == k, "row width mismatch");
  }
  fused_phi_grad_tile_t(
      row_a.data(), row_a[k],
      [&](std::size_t t) { return rows_b[t].data(); }, links.data(),
      rows_b.size(), k, terms, grad, w_scratch, z_out.data());
}

SCD_KERNEL
double fast_accumulate_theta_ratio(std::span<const float> row_a,
                                   std::span<const float> row_b,
                                   const LikelihoodTerms& terms, bool y,
                                   std::span<double> ratio,
                                   std::span<float> f_scratch) {
  // Restrict-qualified rows: without them the f-scratch stores may alias
  // the row loads and the lane loop is not vectorized.
  using Row = const float* SCD_RESTRICT;
  return fused_accumulate_theta_ratio_t<Row, Row>(row_a.data(), row_b.data(),
                                                  k_of(row_a), terms, y, ratio,
                                                  f_scratch);
}

SCD_KERNEL
double fast_pair_likelihood_enc(quant::RowCodec codec,
                                std::span<const std::byte> row_a,
                                std::span<const std::byte> row_b,
                                std::uint32_t k,
                                const LikelihoodTerms& terms, bool y) {
  check_encoded(codec, row_a, k);
  check_encoded(codec, row_b, k);
  if (quant::is_sparse(codec)) {
    return sparse_pair_likelihood(codec, row_a, row_b, k, terms, y);
  }
  return with_readers(codec, row_a, row_b, [&](auto ra, auto rb) {
    return fused_pair_likelihood_t(ra, rb, k, terms, y);
  });
}

SCD_KERNEL
double fast_accumulate_phi_grad_enc(quant::RowCodec codec,
                                    std::span<const float> row_a,
                                    std::span<const std::byte> row_b,
                                    const LikelihoodTerms& terms, bool y,
                                    std::span<double> grad,
                                    std::span<float> w_scratch) {
  const std::size_t k = k_of(row_a);
  check_encoded(codec, row_b, static_cast<std::uint32_t>(k));
  if (quant::is_sparse(codec)) {
    return sparse_phi_grad_single(codec, row_a, row_b, terms, y, grad);
  }
  double z = 0.0;
  dense_phi_grad_tile_enc(codec, row_a, {&row_b, 1}, {&y, 1}, terms, grad,
                          w_scratch, {&z, 1});
  return z;
}

SCD_KERNEL
void fast_accumulate_phi_grad_tile_enc(
    quant::RowCodec codec, std::span<const float> row_a,
    std::span<const std::span<const std::byte>> rows_b,
    std::span<const bool> links, const LikelihoodTerms& terms,
    std::span<double> grad, std::span<float> w_scratch,
    std::span<double> z_out) {
  dense_phi_grad_tile_enc(codec, row_a, rows_b, links, terms, grad,
                          w_scratch, z_out);
}

SCD_KERNEL
double fast_accumulate_theta_ratio_enc(quant::RowCodec codec,
                                       std::span<const std::byte> row_a,
                                       std::span<const std::byte> row_b,
                                       std::uint32_t k,
                                       const LikelihoodTerms& terms, bool y,
                                       std::span<double> ratio,
                                       std::span<float> f_scratch) {
  check_encoded(codec, row_a, k);
  check_encoded(codec, row_b, k);
  if (quant::is_sparse(codec)) {
    return sparse_theta_single(codec, row_a, row_b, k, terms, y, ratio);
  }
  return with_readers(codec, row_a, row_b, [&](auto ra, auto rb) {
    return fused_accumulate_theta_ratio_t(ra, rb, k, terms, y, ratio,
                                          f_scratch);
  });
}

}  // namespace scd::core
