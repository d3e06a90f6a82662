// The per-vertex update_phi kernel shared by the parallel and
// distributed samplers: accumulate the neighbor-set gradient (with the
// set's exact/sampled weighting) against the current rows, then stage
// the SGRLD update into `out`.
//
// Keeping this in one place is what makes the cross-sampler equivalence
// tests meaningful: every execution mode runs literally the same
// arithmetic for a given (seed, iteration, vertex, neighbor set). The
// SGRLD step's `noise_factor` and `form` have no defaults, so a caller
// cannot drop its sampler options on the phi step while the theta step
// honours them. The
// arithmetic itself is the fast_* kernels of core/kernels_simd.h, which
// have one body per formula; the dense gradient runs phi_tile_width(K)
// neighbors per kernel call.
#pragma once

#include <algorithm>
#include <array>
#include <span>

#include "core/grads.h"
#include "core/kernels_simd.h"
#include "graph/minibatch.h"

namespace scd::core {

/// Per-thread scratch reused across vertices: the exact/sampled gradient
/// accumulators (2 x K doubles) plus the fused-kernel staging buffers
/// (the w tile, Langevin noise doubles). Constructed once per
/// sampler/thread and reused every iteration — no steady-state
/// allocation.
struct PhiScratch {
  std::vector<double> exact;
  std::vector<double> sampled;
  /// Staged w tile of the tiled phi gradient, phi_tile_width(K) x K
  /// floats; the theta ratio kernel stages f_ab(k,k) in its first K.
  std::vector<float> w;
  /// Staged Langevin noise for the fused SGRLD row update.
  std::vector<double> noise;
  /// Z of each neighbor of the current phi tile.
  std::array<double, kPhiTileMax> z{};
  /// Per-neighbor-set scalar accumulators for the sparse batched phi
  /// path (core/kernels_simd.h); ignored for dense codecs.
  SparsePhiAccum exact_acc;
  SparsePhiAccum sampled_acc;

  explicit PhiScratch(std::uint32_t k)
      : exact(k), sampled(k), w(phi_tile_width(k) * k), noise(k) {}
};

namespace detail {

/// Zero scratch.exact/sampled and run `kernel(rows, links, grad, z)` over
/// the neighbor set tile by tile: phi_tile_width(k) neighbors per call,
/// the exact prefix into scratch.exact and the rest into
/// scratch.sampled, in set order. Each neighbor's Z lands in z_out[i]
/// when z_out is non-empty.
template <typename Row, typename RowOf, typename Kernel>
void accumulate_phi_tiles(std::size_t k, const graph::NeighborSet& set,
                          RowOf& row_of, PhiScratch& scratch,
                          std::span<double> z_out, Kernel&& kernel) {
  std::fill(scratch.exact.begin(), scratch.exact.end(), 0.0);
  std::fill(scratch.sampled.begin(), scratch.sampled.end(), 0.0);
  const std::size_t width = phi_tile_width(k);
  const std::size_t size = set.samples.size();
  std::array<Row, kPhiTileMax> rows{};
  std::array<bool, kPhiTileMax> links{};
  for (std::size_t first = 0; first < size;) {
    const bool exact = first < set.exact_prefix;
    const std::size_t end =
        std::min(first + width, exact ? set.exact_prefix : size);
    const std::size_t n = end - first;
    for (std::size_t t = 0; t < n; ++t) {
      rows[t] = row_of(first + t);
      links[t] = set.samples[first + t].link;
    }
    kernel(std::span<const Row>(rows.data(), n),
           std::span<const bool>(links.data(), n),
           std::span<double>(exact ? scratch.exact : scratch.sampled),
           z_out.empty() ? std::span<double>(scratch.z.data(), n)
                         : z_out.subspan(first, n));
    first = end;
  }
}

}  // namespace detail

/// The neighbor-set phi gradient of vertex row `row_a`: the exact prefix
/// summed into scratch.exact, the sampled rest into scratch.sampled
/// (both zeroed first), through the tiled kernel. Bit-identical to one
/// fast_accumulate_phi_grad call per neighbor in set order. `row_of(i)`
/// must return the [pi | phi_sum] row of set.samples[i].b; `z_out`, if
/// non-empty, receives each neighbor's Z (set.samples.size() wide).
template <typename RowOf>
void accumulate_phi_grad_set(std::span<const float> row_a,
                             const graph::NeighborSet& set, RowOf&& row_of,
                             const LikelihoodTerms& terms,
                             PhiScratch& scratch,
                             std::span<double> z_out = {}) {
  detail::accumulate_phi_tiles<std::span<const float>>(
      row_a.size() - 1, set, row_of, scratch, z_out,
      [&](auto rows, auto links, std::span<double> grad,
          std::span<double> z) {
        fast_accumulate_phi_grad_tile(row_a, rows, links, terms, grad,
                                      scratch.w, z);
      });
}

/// accumulate_phi_grad_set against encoded neighbor rows of a dense
/// codec: `row_of(i)` returns the encoded row of set.samples[i].b.
template <typename EncRowOf>
void accumulate_phi_grad_set_enc(quant::RowCodec codec,
                                 std::span<const float> row_a,
                                 const graph::NeighborSet& set,
                                 EncRowOf&& row_of,
                                 const LikelihoodTerms& terms,
                                 PhiScratch& scratch,
                                 std::span<double> z_out = {}) {
  detail::accumulate_phi_tiles<std::span<const std::byte>>(
      row_a.size() - 1, set, row_of, scratch, z_out,
      [&](auto rows, auto links, std::span<double> grad,
          std::span<double> z) {
        fast_accumulate_phi_grad_tile_enc(codec, row_a, rows, links, terms,
                                          grad, scratch.w, z);
      });
}

/// `row_of(i)` must return the [pi | phi_sum] row of set.samples[i].b.
/// `row_a` is the vertex's own current row; `out` receives the staged
/// updated row (same width).
template <typename RowOf>
void staged_phi_update(std::uint64_t seed, std::uint64_t iteration,
                       graph::Vertex a, std::span<const float> row_a,
                       const graph::NeighborSet& set, RowOf&& row_of,
                       const LikelihoodTerms& terms, double eps,
                       double alpha, std::span<float> out,
                       PhiScratch& scratch, double noise_factor,
                       GradientForm form) {
  accumulate_phi_grad_set(row_a, set, row_of, terms, scratch);
  for (std::size_t k = 0; k < scratch.exact.size(); ++k) {
    scratch.exact[k] += set.sampled_scale * scratch.sampled[k];
  }
  std::copy(row_a.begin(), row_a.end(), out.begin());
  fast_update_phi_row(seed, iteration, a, out, scratch.exact, /*scale=*/1.0,
                      eps, alpha, noise_factor, form, scratch.noise);
}

/// Encoded-row variant for the distributed sampler: neighbor rows stay in
/// the DKV's wire codec and are dequantized in-register by the enc
/// kernels. The vertex's own row is decoded once (O(K), off the
/// O(K * |set|) accumulation path) straight into `out`, which doubles as
/// the float row_a the gradient needs and the staging slot the SGRLD
/// update writes in place. `row_of(i)` must return the *encoded* row of
/// set.samples[i].b (quant::encoded_bytes(codec, k + 1) bytes). Under
/// quant::RowCodec::kFloat32 this is bit-identical to staged_phi_update.
template <typename EncRowOf>
void staged_phi_update_enc(quant::RowCodec codec, std::uint64_t seed,
                           std::uint64_t iteration, graph::Vertex a,
                           std::span<const std::byte> row_a_enc,
                           const graph::NeighborSet& set, EncRowOf&& row_of,
                           const LikelihoodTerms& terms, double eps,
                           double alpha, std::span<float> out,
                           PhiScratch& scratch, double noise_factor,
                           GradientForm form) {
  quant::decode_row(codec, row_a_enc, out);
  if (quant::is_sparse(codec)) {
    // Batched sparse path: stage the vertex row's mass/btd sums once
    // (O(K)), accumulate each neighbor in O(nnz_b) with the uniform
    // epsilon terms carried as scalars, then fold them into the gradient
    // with a single O(K) epilogue. Dense-fallback neighbors write their
    // full gradient directly inside the accumulate call.
    std::fill(scratch.exact.begin(), scratch.exact.end(), 0.0);
    std::fill(scratch.sampled.begin(), scratch.sampled.end(), 0.0);
    const SparsePhiStage stage = sparse_phi_stage(out, terms);
    scratch.exact_acc.reset();
    scratch.sampled_acc.reset();
    for (std::size_t i = 0; i < set.samples.size(); ++i) {
      const graph::NeighborSample& nb = set.samples[i];
      const bool exact = i < set.exact_prefix;
      std::span<double> target = exact ? std::span<double>(scratch.exact)
                                       : std::span<double>(scratch.sampled);
      SparsePhiAccum& acc =
          exact ? scratch.exact_acc : scratch.sampled_acc;
      sparse_accumulate_phi_grad_enc(codec, out, stage, row_of(i), terms,
                                     nb.link, target, acc);
    }
    for (std::size_t k = 0; k < scratch.exact.size(); ++k) {
      scratch.exact[k] += set.sampled_scale * scratch.sampled[k];
    }
    scratch.exact_acc.c0 += set.sampled_scale * scratch.sampled_acc.c0;
    scratch.exact_acc.ceps[0] +=
        set.sampled_scale * scratch.sampled_acc.ceps[0];
    scratch.exact_acc.ceps[1] +=
        set.sampled_scale * scratch.sampled_acc.ceps[1];
    sparse_phi_epilogue(scratch.exact_acc, terms, scratch.exact);
    fast_update_phi_row(seed, iteration, a, out, scratch.exact,
                        /*scale=*/1.0, eps, alpha, noise_factor, form,
                        scratch.noise);
    return;
  }
  accumulate_phi_grad_set_enc(codec, out, set, row_of, terms, scratch);
  for (std::size_t k = 0; k < scratch.exact.size(); ++k) {
    scratch.exact[k] += set.sampled_scale * scratch.sampled[k];
  }
  fast_update_phi_row(seed, iteration, a, out, scratch.exact, /*scale=*/1.0,
                      eps, alpha, noise_factor, form, scratch.noise);
}

}  // namespace scd::core
