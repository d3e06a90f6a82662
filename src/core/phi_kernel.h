// The per-vertex update_phi kernel shared by the sequential, parallel
// and distributed samplers: accumulate the neighbor-set gradient (with
// the set's exact/sampled weighting) against the current rows, then stage
// the SGRLD update into `out`.
//
// Keeping this in one place is what makes the cross-sampler equivalence
// tests meaningful: every execution mode runs literally the same
// arithmetic for a given (seed, iteration, vertex, neighbor set). The
// arithmetic itself is the fast_* kernels of core/kernels_simd.h, which
// have one body per formula.
#pragma once

#include <algorithm>
#include <span>

#include "core/grads.h"
#include "core/kernels_simd.h"
#include "graph/minibatch.h"

namespace scd::core {

/// Per-thread scratch reused across vertices: the exact/sampled gradient
/// accumulators (2 x K doubles) plus the fused-kernel staging buffers
/// (w_k floats, Langevin noise doubles). Constructed once per
/// sampler/thread and reused every iteration — no steady-state
/// allocation.
struct PhiScratch {
  std::vector<double> exact;
  std::vector<double> sampled;
  /// Staged w_k (phi gradient) or f_ab(k,k) (theta ratio) for the fused
  /// kernels.
  std::vector<float> w;
  /// Staged Langevin noise for the fused SGRLD row update.
  std::vector<double> noise;
  /// Per-neighbor-set scalar accumulators for the sparse batched phi
  /// path (core/kernels_simd.h); ignored for dense codecs.
  SparsePhiAccum exact_acc;
  SparsePhiAccum sampled_acc;

  explicit PhiScratch(std::uint32_t k)
      : exact(k), sampled(k), w(k), noise(k) {}
};

/// `row_of(i)` must return the [pi | phi_sum] row of set.samples[i].b.
/// `row_a` is the vertex's own current row; `out` receives the staged
/// updated row (same width).
template <typename RowOf>
void staged_phi_update(std::uint64_t seed, std::uint64_t iteration,
                       graph::Vertex a, std::span<const float> row_a,
                       const graph::NeighborSet& set, RowOf&& row_of,
                       const LikelihoodTerms& terms, double eps,
                       double alpha, std::span<float> out,
                       PhiScratch& scratch, double noise_factor = 1.0,
                       GradientForm form = GradientForm::kRawEqn3) {
  std::fill(scratch.exact.begin(), scratch.exact.end(), 0.0);
  std::fill(scratch.sampled.begin(), scratch.sampled.end(), 0.0);
  for (std::size_t i = 0; i < set.samples.size(); ++i) {
    const graph::NeighborSample& nb = set.samples[i];
    std::span<double> target = i < set.exact_prefix
                                   ? std::span<double>(scratch.exact)
                                   : std::span<double>(scratch.sampled);
    fast_accumulate_phi_grad(row_a, row_of(i), terms, nb.link, target,
                             scratch.w);
  }
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
                           PhiScratch& scratch, double noise_factor = 1.0,
                           GradientForm form = GradientForm::kRawEqn3) {
  quant::decode_row(codec, row_a_enc, out);
  std::fill(scratch.exact.begin(), scratch.exact.end(), 0.0);
  std::fill(scratch.sampled.begin(), scratch.sampled.end(), 0.0);
  if (quant::is_sparse(codec)) {
    // Batched sparse path: stage the vertex row's mass/btd sums once
    // (O(K)), accumulate each neighbor in O(nnz_b) with the uniform
    // epsilon terms carried as scalars, then fold them into the gradient
    // with a single O(K) epilogue. Dense-fallback neighbors write their
    // full gradient directly inside the accumulate call.
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
  for (std::size_t i = 0; i < set.samples.size(); ++i) {
    const graph::NeighborSample& nb = set.samples[i];
    std::span<double> target = i < set.exact_prefix
                                   ? std::span<double>(scratch.exact)
                                   : std::span<double>(scratch.sampled);
    fast_accumulate_phi_grad_enc(codec, out, row_of(i), terms, nb.link,
                                 target, scratch.w);
  }
  for (std::size_t k = 0; k < scratch.exact.size(); ++k) {
    scratch.exact[k] += set.sampled_scale * scratch.sampled[k];
  }
  fast_update_phi_row(seed, iteration, a, out, scratch.exact, /*scale=*/1.0,
                      eps, alpha, noise_factor, form, scratch.noise);
}

}  // namespace scd::core
