// The hot kernels every sampler runs: the three SG-MCMC formulas (the
// Z_ab pair likelihood, the phi gradient of Eqn 6 and the theta ratio of
// Eqn 4) plus the SGRLD row update, each with one lane-friendly body.
// The float-span entry points and the codec-encoded `_enc` entry points
// instantiate the same per-formula template with different row readers,
// so at quant::RowCodec::kFloat32 the two agree bit-for-bit.
//
// Why these are faster than the scalar forms in grads.cpp:
//   * fused single pass — the scalar phi gradient walks the row twice and
//     recomputes w_k = pi_bk * bt_k + dt * (1 - pi_bk) in both passes.
//     The fused body forms w_k = dt + pi_bk * (bt_k - dt) once (the
//     bt_k - dt table is staged by LikelihoodTerms::refresh), stores it
//     in a scratch buffer, and derives both Z and the gradient from that
//     one pass over the inputs.
//   * lane accumulation — Z is summed into kFusedLanes independent float
//     accumulators, which breaks the loop-carried add dependency the
//     scalar double accumulator serializes on and lets the compiler keep
//     the whole block in vector registers.
//   * blocked double carry — every kFusedBlock elements the float lane
//     sums are folded into a running double. All terms of Z are
//     non-negative (no cancellation), so the relative error of the
//     blocked float sum stays within a few float ulps of the scalar
//     double path (~1e-6 relative; see kFusedRelTolerance and
//     tests/core/kernels_simd_test.cpp).
//
// Instruction set: every entry point below is built as an AVX2 clone and
// a baseline x86-64 clone, and the loader binds the one the CPU supports
// (SCD_KERNEL, shared with serve::select_top in util/isa_clones.h). The
// clones return the same bits: the lane loops fix the summation order and
// the file is compiled with -ffp-contract=off, so no a*b+c is fused into
// an FMA.
// tests/core/kernels_pinned_test.cpp pins the outputs.
//
// The grads.cpp kernels are the double-precision reference the tests
// compare these against; no sampler selects between the two at run time.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>

#include "core/grads.h"
#include "quant/row_codec.h"

namespace scd::core {

/// Independent float accumulators per block (breaks the add chain; maps
/// onto two SSE registers, one AVX register, or half an AVX-512 one).
inline constexpr std::size_t kFusedLanes = 8;

/// Elements accumulated in float lanes between double-carry folds.
inline constexpr std::size_t kFusedBlock = 64;

/// Documented agreement bound between the grads.cpp reference and these
/// kernels for Z-like positive sums: the fused bodies stage w_k in float
/// (~1e-7 relative per term) and fold blocks of kFusedBlock float partial
/// sums into a double carry, so relative error grows like a few float
/// ulps per block, far below this bound for any realistic K.
inline constexpr double kFusedRelTolerance = 1e-5;

// --- float kernels ------------------------------------------------------
// Signatures mirror the reference forms in grads.h; the extra scratch
// spans must be at least K wide and are clobbered. All are defined in
// kernels_simd.cpp, which is compiled with vectorization-friendly flags
// independent of the global build type.

/// Z_ab^(y) with a fused single-pass, lane-accumulated sum.
double fast_pair_likelihood(std::span<const float> row_a,
                            std::span<const float> row_b,
                            const LikelihoodTerms& terms, bool y);

/// Phi gradient (Eqn 6): w_k staged into `w_scratch` while Z accumulates,
/// then the gradient is read back from the scratch — one pass over the
/// input rows instead of two. The one-neighbor case of
/// fast_accumulate_phi_grad_tile below. Returns Z.
double fast_accumulate_phi_grad(std::span<const float> row_a,
                                std::span<const float> row_b,
                                const LikelihoodTerms& terms, bool y,
                                std::span<double> grad,
                                std::span<float> w_scratch);

/// Most neighbors one tiled phi-gradient call takes.
inline constexpr std::size_t kPhiTileMax = 32;

/// Neighbors per phi-gradient tile at community count `k`: as many as
/// keep the staged w tile (width x k floats) within 32 KB, so it stays
/// in L1 between the two phases; 32 at K <= 256, 1 at K >= 8192.
inline constexpr std::size_t phi_tile_width(std::size_t k) {
  return std::min(kPhiTileMax, std::max<std::size_t>(1, 8192 / k));
}

/// Tiled phi gradient: one vertex `row_a` against the tile of
/// n = rows_b.size() <= kPhiTileMax neighbors `rows_b` with link flags
/// `links`. Phase A stages each neighbor's w row into `w_scratch`
/// (n * K floats) and forms its Z exactly as fast_accumulate_phi_grad
/// does; phase B walks `grad` in register-held column chunks and adds
/// the n neighbors' terms to each entry in tile order. Every entry thus
/// receives the same double additions, in the same order, as n
/// successive fast_accumulate_phi_grad calls, so the result is
/// bit-identical; the vertex-side loads and the gradient's memory
/// round trip are paid once per tile instead of once per neighbor.
/// Writes each neighbor's Z to z_out[t].
void fast_accumulate_phi_grad_tile(
    std::span<const float> row_a,
    std::span<const std::span<const float>> rows_b,
    std::span<const bool> links, const LikelihoodTerms& terms,
    std::span<double> grad, std::span<float> w_scratch,
    std::span<double> z_out);

/// Theta ratio (factored Eqn 4 form): f_ab(k,k) staged into `f_scratch`
/// while Z accumulates from the same products. Returns Z.
double fast_accumulate_theta_ratio(std::span<const float> row_a,
                                   std::span<const float> row_b,
                                   const LikelihoodTerms& terms, bool y,
                                   std::span<double> ratio,
                                   std::span<float> f_scratch);

/// SGRLD row update (Eqn 5): the Langevin noise is staged into
/// `noise_scratch` first by one rng::sample_standard_normals batch (the
/// values the reference update_phi_row draws in its even-length
/// batches), then the elementwise update runs as a
/// vectorizable pass with a lane-accumulated new_sum. Per-element row
/// values match the reference bit-for-bit; only the new_sum reduction
/// (and hence the final normalization) differs by float-level
/// reassociation. Returns false when the new phi_sum is not finite and
/// positive (a diverging step); the row is then unusable, and the caller
/// refuses the step.
bool fast_update_phi_row(std::uint64_t seed, std::uint64_t iteration,
                         std::uint32_t vertex, std::span<float> row,
                         std::span<const double> grad, double scale,
                         double eps, double alpha, double noise_factor,
                         GradientForm form, std::span<double> noise_scratch);

// --- dequant-fused kernels ---------------------------------------------
// Variants that read codec-encoded rows (quant/row_codec.h layouts)
// directly: every pi entry is dequantized in-register inside the lane
// loop, so a decoded float row never materializes on the
// O(K * |neighbors|) hot path. Under quant::RowCodec::kFloat32 the
// reader is a raw float load and the arithmetic is bit-identical to the
// float-span kernels above. `k` is the community count (decoded width
// minus the trailing phi_sum slot); encoded spans must be exactly
// quant::encoded_bytes(codec, k + 1) long.
//
// The sparse top-R codecs are accepted by every enc entry point below:
// pair likelihood becomes a sorted-index merge-intersect over the two
// supports with the dropped mass folded analytically through
// LikelihoodTerms::btd_sum, and the gradient/ratio kernels fall back to
// a correct O(K)-per-call form (the O(nnz) amortized forms live in the
// sparse kernel section below and need per-vertex/per-stratum batching
// the single-pair signatures cannot express).

/// Z_ab^(y) from two encoded rows.
double fast_pair_likelihood_enc(quant::RowCodec codec,
                                std::span<const std::byte> row_a,
                                std::span<const std::byte> row_b,
                                std::uint32_t k,
                                const LikelihoodTerms& terms, bool y);

/// Phi gradient with an encoded neighbor row. `row_a` is the updating
/// vertex's *decoded* row ([pi | phi_sum], k+1 floats) — the caller
/// already holds it in float to stage the SGRLD update, and decoding it
/// once per vertex is off the per-neighbor hot path.
double fast_accumulate_phi_grad_enc(quant::RowCodec codec,
                                    std::span<const float> row_a,
                                    std::span<const std::byte> row_b,
                                    const LikelihoodTerms& terms, bool y,
                                    std::span<double> grad,
                                    std::span<float> w_scratch);

/// Tiled phi gradient (see fast_accumulate_phi_grad_tile) against
/// encoded neighbor rows of a dense codec. The sparse codecs keep their
/// batched O(nnz) path below.
void fast_accumulate_phi_grad_tile_enc(
    quant::RowCodec codec, std::span<const float> row_a,
    std::span<const std::span<const std::byte>> rows_b,
    std::span<const bool> links, const LikelihoodTerms& terms,
    std::span<double> grad, std::span<float> w_scratch,
    std::span<double> z_out);

/// Theta ratio from two encoded rows.
double fast_accumulate_theta_ratio_enc(quant::RowCodec codec,
                                       std::span<const std::byte> row_a,
                                       std::span<const std::byte> row_b,
                                       std::uint32_t k,
                                       const LikelihoodTerms& terms, bool y,
                                       std::span<double> ratio,
                                       std::span<float> f_scratch);

// --- sparse kernels -----------------------------------------------------
// O(nnz) kernels for the quant::RowCodec sparse top-R codecs. A sparse
// row decodes to eps on every dropped community (eps = residual_mass /
// (K - nnz)), so each kernel splits into a support-driven part (O(nnz),
// scattered immediately) and a j-independent part that only depends on
// per-pair scalars — the latter is accumulated across a batch and folded
// with one O(K) epilogue, which is what makes the amortized per-neighbor
// cost O(nnz) instead of O(K). The merges are serial and accumulate in
// double, so there is no lane parallelism to exploit. A pair with a
// dense-fallback side takes an O(K) double-precision form instead; a
// fallback x fallback pair likelihood uses the fused dense body.

/// Per-vertex staging for the batched sparse phi path: mass = sum_j pi_aj
/// and sa[y] = sum_j pi_aj * btd[y][j], computed once per updating vertex
/// (O(K)) so each neighbor's Z costs only O(nnz_b).
struct SparsePhiStage {
  double mass = 0.0;
  double sa[2] = {0.0, 0.0};
};
SparsePhiStage sparse_phi_stage(std::span<const float> row_a,
                                const LikelihoodTerms& terms);

/// Scalar accumulators of the j-independent phi-gradient terms
/// ((dt/Z - 1)/phi_sum, and eps_b/(Z phi_sum) per stratum) summed over a
/// vertex's neighbor set; folded into the gradient once per vertex by
/// sparse_phi_epilogue (O(K)).
struct SparsePhiAccum {
  double c0 = 0.0;
  double ceps[2] = {0.0, 0.0};
  void reset() { c0 = ceps[0] = ceps[1] = 0.0; }
};

/// One neighbor's phi-gradient contribution against an encoded sparse
/// row: scatters the support-driven O(nnz) terms into `grad` and the
/// j-independent terms into `acc`. `row_a` is the updating vertex's
/// decoded row and `stage` its sparse_phi_stage. Dense-fallback
/// neighbors take a correct O(K) path. Returns Z.
double sparse_accumulate_phi_grad_enc(quant::RowCodec codec,
                                      std::span<const float> row_a,
                                      const SparsePhiStage& stage,
                                      std::span<const std::byte> row_b,
                                      const LikelihoodTerms& terms, bool y,
                                      std::span<double> grad,
                                      SparsePhiAccum& acc);

/// grad_j += c0 + ceps[0]*btd(0)_j + ceps[1]*btd(1)_j.
void sparse_phi_epilogue(const SparsePhiAccum& acc,
                         const LikelihoodTerms& terms,
                         std::span<double> grad);

/// One pair's theta-ratio contribution from two encoded sparse rows:
/// support-driven terms go into `ratio` (O(nnz_a + nnz_b)); the dense
/// eps_a*eps_b*bt_j/Z term is accumulated via `eps_coef` (+= eps_a*eps_b/Z)
/// and folded once per stratum by sparse_theta_epilogue. Pairs with a
/// dense-fallback side take a correct O(K) path (everything into
/// `ratio`, eps_coef untouched). Returns Z.
double sparse_accumulate_theta_ratio_enc(quant::RowCodec codec,
                                         std::span<const std::byte> row_a,
                                         std::span<const std::byte> row_b,
                                         std::uint32_t k,
                                         const LikelihoodTerms& terms,
                                         bool y, std::span<double> ratio,
                                         double& eps_coef);

/// ratio[y]_j += eps_coef[y] * bt(y)_j for both strata — the once-per-
/// stratum fold of the accumulated eps_a*eps_b/Z coefficients.
void sparse_theta_epilogue(double eps_coef_link, double eps_coef_nonlink,
                           const LikelihoodTerms& terms,
                           std::span<double> ratio_link,
                           std::span<double> ratio_nonlink);

}  // namespace scd::core
