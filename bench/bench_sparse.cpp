// Sparse top-R pi rows: wire/storage savings and end-to-end modeled
// effect on a converged model.
//
// The sparse story is the BigClam observation transplanted to a-MMSB:
// as the sampler converges, each pi row concentrates its mass on a
// handful of communities, so the adaptive top-R codec shrinks both the
// DKV traffic and the kernel work from O(K) to O(nnz). Four
// deterministic tables for the drift guard:
//
//  1. Layout: encoded bytes of a converged-shape row (8 heavy
//     communities) per sparse codec at K = 1024 and 4096, against the
//     fp32 dense row.
//  2. Converged real-mode runs at K = 1024: a planted graph fit with a
//     deliberately over-provisioned community count, resumed from a
//     checkpoint built from the planted ground truth (each vertex's mass
//     on its true communities, theta matching the planted strengths, a
//     late iteration count so the step size is in the converged regime)
//     and measured over the 20 iterations after a 40-iteration tail-in.
//     Reported: virtual time per iteration, actual charged DKV bytes per
//     iteration (per-row quant::row_bytes through avg_row_wire_bytes,
//     not slot capacity), and held-out perplexity parity against fp32.
//     This is the acceptance table: >= 2x bytes/iter reduction, >= 1.5x
//     modeled speedup, perplexity within 1%.
//  3. Dense fallback: the same model measured over its first 12
//     iterations, where the freshly initialized rows are near-uniform
//     and every row stores via the dense-fallback sentinel. The sparse
//     arm must stay within 5% of fp32 — the worst case never regresses
//     past the 8-byte header and the O(K) fallback readers.
//  4. Cost-only com-Friendster scale at K = 1024, where the phantom
//     store prices the modeled per-row sparsity (auto nnz = K/16)
//     through the same layout formula.
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "core/checkpoint.h"
#include "core/grads.h"
#include "core/kernels_simd.h"
#include "core/state.h"
#include "graph/generator.h"
#include "graph/heldout.h"
#include "quant/row_codec.h"
#include "sim/cluster.h"
#include "trace/recorder.h"
#include "util/error.h"

using namespace scd;

namespace {

constexpr std::uint32_t kModelK = 1024;
constexpr unsigned kWorkers = 4;
constexpr std::uint64_t kWarmup = 40;
constexpr std::uint64_t kTotal = 60;
constexpr std::uint64_t kFallbackIterations = 12;

/// Converged-shape row: `support` heavy communities carrying 99.8% of
/// the mass, the rest a faint uniform tail.
std::vector<float> converged_row(std::uint32_t k, std::uint32_t support) {
  std::vector<float> row(k + 1, 0.002f / static_cast<float>(k));
  for (std::uint32_t s = 0; s < support; ++s) {
    row[(s * (k / support)) % k] = 0.998f / static_cast<float>(support);
  }
  row[k] = 15.0f;
  return row;
}

/// The planted fixture both real-mode tables run on: 8192 vertices in 64
/// true communities, fit with K = 1024 — the over-provisioned regime
/// where converged rows are extremely sparse. Degree 40 with 8 non-link
/// partitions makes the per-iteration minibatch a few hundred vertices,
/// so row transfer and kernel time dominate the fixed per-collective
/// skew of the network model (a single-anchor minibatch on a small graph
/// would measure nothing but that skew).
struct Fixture {
  graph::GeneratedGraph g;
  graph::HeldOutSplit split;
};

Fixture make_fixture() {
  rng::Xoshiro256 gen_rng(4242);
  const graph::PlantedConfig config = graph::planted_config_for_degree(
      /*num_vertices=*/8192, /*num_communities=*/64, 40.0);
  graph::GeneratedGraph g = graph::generate_planted(gen_rng, config);
  rng::Xoshiro256 split_rng(4243);
  graph::HeldOutSplit split(split_rng, g.graph, g.graph.num_edges() / 20);
  return Fixture{std::move(g), std::move(split)};
}

core::Hyper model_hyper(const Fixture& f) {
  core::Hyper hyper;
  hyper.num_communities = kModelK;
  hyper.delta = core::suggested_delta(f.g.graph.density());
  return hyper;
}

/// The converged state the tail measurement resumes from, built from the
/// planted ground truth rather than burned in: each vertex splits 99.6%
/// of its pi mass across its true communities with a faint uniform tail,
/// theta reproduces the planted per-community strengths, and the
/// iteration count is far along the step-size schedule so the measured
/// tail runs at converged-regime step sizes. This is exactly the regime
/// the sparse codec targets — and what a long burn-in reaches, without
/// spending minutes of bench time getting there.
core::Checkpoint make_converged_checkpoint(const Fixture& f,
                                           quant::RowCodec codec) {
  const graph::GroundTruth& truth = f.g.truth;
  const auto n = static_cast<std::uint32_t>(f.g.graph.num_vertices());
  core::Checkpoint cp;
  cp.iteration = 20000;
  cp.hyper = model_hyper(f);
  cp.pi_codec = codec;
  cp.pi = core::PiMatrix(n, kModelK);
  for (std::uint32_t v = 0; v < n; ++v) {
    std::span<float> row = cp.pi.row(v);
    const auto& member = truth.memberships[v];
    const float tail = 0.004f / static_cast<float>(kModelK);
    for (std::uint32_t k = 0; k < kModelK; ++k) row[k] = tail;
    for (const std::uint32_t c : member) {
      row[c] = 0.996f / static_cast<float>(member.size());
    }
    // Large pseudo-count scale: the SG-MCMC noise term is
    // sqrt(step * phi_k) per entry, so the tail's share of the row mass
    // floats at a noise floor proportional to 1/phi_sum. A converged
    // vertex has accumulated enough pseudo-counts that this floor sits
    // well below the codec's 1% mass epsilon.
    row[kModelK] = 4000.0f;
  }
  cp.global = core::GlobalState(kModelK);
  cp.global.init_random(4245, cp.hyper);
  for (std::size_t k = 0; k < truth.beta.size(); ++k) {
    cp.global.set_theta(static_cast<std::uint32_t>(k), 1,
                        50.0 * truth.beta[k]);
    cp.global.set_theta(static_cast<std::uint32_t>(k), 0,
                        50.0 * (1.0 - truth.beta[k]));
  }
  cp.global.update_beta_from_theta();
  return cp;
}

struct RealRun {
  double virtual_s = 0.0;
  double dkv_rows = 0.0;         // rows read + written over the run
  double avg_row_bytes = 0.0;    // store's tracked wire bytes at the end
  double avg_nnz = 0.0;
  double perplexity = 0.0;       // last eval, 0 when eval never ran
};

RealRun run_real(const Fixture& f, quant::RowCodec codec,
                 std::uint64_t iterations,
                 const core::Checkpoint* resume = nullptr) {
  sim::SimCluster cluster(bench::das5_cluster(kWorkers));
  const core::Hyper hyper = model_hyper(f);
  core::DistributedOptions options;
  options.base.neighbor_mode = core::NeighborMode::kLinkAware;
  options.base.num_neighbors = 16;
  options.base.minibatch.nonlink_partitions = 8;
  options.base.eval_interval = 20;
  options.base.step.a = 0.05;
  options.base.step.b = 512.0;
  options.base.seed = 4244;
  options.pi_codec = codec;
  options.resume_from = resume;
  trace::TraceRecorder recorder(kWorkers + 1);
  options.trace = &recorder;
  core::DistributedSampler sampler(cluster, f.split.training(), &f.split,
                                   hyper, options);
  const core::DistributedResult result = sampler.run(iterations);
  using trace::Metric;
  const trace::MetricsRegistry& m = recorder.metrics();
  RealRun r;
  r.virtual_s = result.virtual_seconds;
  r.dkv_rows =
      static_cast<double>(m.counter_total(Metric::kDkvRowsRead) +
                          m.counter_total(Metric::kDkvRowsWritten));
  r.avg_row_bytes = sampler.store().avg_row_wire_bytes();
  r.avg_nnz = sampler.store().avg_row_nnz();
  if (!result.history.empty()) {
    r.perplexity = result.history.back().perplexity;
  }
  return r;
}

struct PhantomArm {
  double virtual_s = 0.0;
  double dkv_bytes_per_iter = 0.0;
};

PhantomArm run_phantom(quant::RowCodec codec) {
  constexpr unsigned kPhantomWorkers = 16;
  constexpr std::uint64_t kPhantomIterations = 12;
  sim::SimCluster cluster(bench::das5_cluster(kPhantomWorkers));
  core::Hyper hyper;
  hyper.num_communities = kModelK;
  core::DistributedOptions options;
  options.base.num_neighbors = 32;
  options.base.eval_interval = 0;
  options.pi_codec = codec;
  trace::TraceRecorder recorder(kPhantomWorkers + 1);
  options.trace = &recorder;
  core::PhantomWorkload workload = bench::friendster_workload(4096);
  core::DistributedSampler sampler(cluster, workload, hyper, options);
  const core::DistributedResult result = sampler.run(kPhantomIterations);
  using trace::Metric;
  const trace::MetricsRegistry& m = recorder.metrics();
  const double rows =
      static_cast<double>(m.counter_total(Metric::kDkvRowsRead) +
                          m.counter_total(Metric::kDkvRowsWritten));
  PhantomArm arm;
  arm.virtual_s = result.virtual_seconds;
  arm.dkv_bytes_per_iter = rows * sampler.store().avg_row_wire_bytes() /
                           static_cast<double>(kPhantomIterations);
  return arm;
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchIo io;
  if (!io.parse(argc, argv, "bench_sparse",
                "Sparse top-R pi rows: DKV bytes, modeled speedup,"
                " perplexity parity, dense-fallback overhead"))
    return 0;

  // ---- converged-shape row layout --------------------------------------
  {
    Table layout(
        {"codec", "k", "row_bytes", "fp32_row_bytes", "reduction"});
    for (const std::uint32_t k : {1024u, 4096u}) {
      const std::uint32_t width = core::pi_row_width(k);
      const std::vector<float> row = converged_row(k, 8);
      const auto fp32 = static_cast<double>(
          quant::encoded_bytes(quant::RowCodec::kFloat32, width));
      for (const quant::RowCodec codec :
           {quant::RowCodec::kSparseTopR, quant::RowCodec::kSparseTopRFp16,
            quant::RowCodec::kSparseTopRInt8}) {
        std::vector<std::byte> enc(quant::encoded_bytes(codec, width));
        quant::encode_row(codec, row, enc);
        const auto bytes =
            static_cast<double>(quant::row_bytes(codec, width, enc));
        layout.add_row({std::string(quant::codec_name(codec)),
                        std::int64_t(k), bytes, fp32, fp32 / bytes});
      }
    }
    io.emit(layout, "sparse_layout",
            "Actual row bytes of a converged-shape row (8 heavy"
            " communities)");
  }

  const Fixture fixture = make_fixture();

  // ---- converged real-mode runs at K = 1024 ----------------------------
  {
    Table table({"codec", "virtual_ms_per_iter", "speedup_vs_fp32",
                 "dkv_kB_per_iter", "bytes_reduction", "avg_row_nnz",
                 "final_perplexity", "rel_delta_vs_fp32"});
    struct Tail {
      double ms_per_iter;
      double bytes_per_iter;
      double perp;
    };
    Tail fp32{};
    const double tail_iters = static_cast<double>(kTotal - kWarmup);
    for (const quant::RowCodec codec :
         {quant::RowCodec::kFloat32, quant::RowCodec::kSparseTopR,
          quant::RowCodec::kSparseTopRInt8}) {
      // Two fresh deterministic runs from the same converged
      // checkpoint; the difference isolates the measured tail.
      const core::Checkpoint cp = make_converged_checkpoint(fixture, codec);
      const RealRun warm = run_real(fixture, codec, kWarmup, &cp);
      const RealRun full = run_real(fixture, codec, kTotal, &cp);
      Tail arm;
      arm.ms_per_iter =
          (full.virtual_s - warm.virtual_s) / tail_iters * 1e3;
      arm.bytes_per_iter =
          (full.dkv_rows - warm.dkv_rows) * full.avg_row_bytes / tail_iters;
      arm.perp = full.perplexity;
      SCD_REQUIRE(arm.perp > 0.0, "convergence arm produced no evals");
      if (codec == quant::RowCodec::kFloat32) fp32 = arm;
      table.add_row({std::string(quant::codec_name(codec)),
                     arm.ms_per_iter, fp32.ms_per_iter / arm.ms_per_iter,
                     arm.bytes_per_iter / 1e3,
                     fp32.bytes_per_iter / arm.bytes_per_iter, full.avg_nnz,
                     arm.perp,
                     std::abs(arm.perp - fp32.perp) / fp32.perp});
    }
    io.emit(table, "sparse_converged_k1024",
            "Converged planted model, K=1024, last 20 of 60 resumed"
            " iterations (fp32 delta exactly 0: bit-identical path)");
  }

  // ---- dense-fallback overhead -----------------------------------------
  {
    Table table({"codec", "virtual_ms_per_iter", "fallback_vs_fp32",
                 "avg_row_nnz"});
    double fp32_s = 0.0;
    for (const quant::RowCodec codec :
         {quant::RowCodec::kFloat32, quant::RowCodec::kSparseTopR}) {
      const RealRun run = run_real(fixture, codec, kFallbackIterations);
      if (codec == quant::RowCodec::kFloat32) fp32_s = run.virtual_s;
      table.add_row({std::string(quant::codec_name(codec)),
                     run.virtual_s /
                         static_cast<double>(kFallbackIterations) * 1e3,
                     run.virtual_s / fp32_s, run.avg_nnz});
    }
    io.emit(table, "sparse_dense_fallback",
            "First 12 iterations from random init: near-uniform rows"
            " store via the dense-fallback sentinel");
  }

  // ---- cost-only com-Friendster scale ----------------------------------
  {
    Table table({"codec", "dkv_MB_per_iter", "bytes_reduction",
                 "virtual_ms_per_iter", "speedup"});
    PhantomArm fp32{};
    for (const quant::RowCodec codec :
         {quant::RowCodec::kFloat32, quant::RowCodec::kSparseTopR}) {
      const PhantomArm arm = run_phantom(codec);
      if (codec == quant::RowCodec::kFloat32) fp32 = arm;
      table.add_row({std::string(quant::codec_name(codec)),
                     arm.dkv_bytes_per_iter / 1e6,
                     fp32.dkv_bytes_per_iter / arm.dkv_bytes_per_iter,
                     arm.virtual_s / 12.0 * 1e3,
                     fp32.virtual_s / arm.virtual_s});
    }
    io.emit(table, "sparse_phantom_k1024",
            "Cost-only com-Friendster scale, 16 workers, K=1024,"
            " modeled nnz = K/16");
  }

  // ---- real kernel ns/row: stdout only (machine-dependent) -------------
  {
    Table wall({"codec", "k", "pair_likelihood_ns", "vs_dense"});
    core::LikelihoodTerms terms;
    for (const std::uint32_t k : {1024u, 4096u}) {
      const std::uint32_t width = core::pi_row_width(k);
      std::vector<float> beta(k, 0.2f);
      terms.refresh(beta, 1e-4);
      const std::vector<float> row = converged_row(k, 8);
      double dense_ns = 0.0;
      for (const quant::RowCodec codec :
           {quant::RowCodec::kFloat32, quant::RowCodec::kSparseTopR}) {
        std::vector<std::byte> ea(quant::encoded_bytes(codec, width));
        std::vector<std::byte> eb(ea.size());
        quant::encode_row(codec, row, ea);
        quant::encode_row(codec, row, eb);
        constexpr int kReps = 100000;
        double sink = 0.0;
        const auto start = std::chrono::steady_clock::now();
        for (int r = 0; r < kReps; ++r) {
          sink += core::fast_pair_likelihood_enc(codec, ea, eb, k, terms,
                                                 (r & 1) != 0);
        }
        const double ns = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - start)
                              .count() /
                          kReps * 1e9;
        if (codec == quant::RowCodec::kFloat32) dense_ns = ns;
        wall.add_row({std::string(quant::codec_name(codec)),
                      std::int64_t(k), ns, dense_ns / ns});
        if (sink == 42.0) std::printf("unreachable\n");
      }
    }
    std::printf(
        "\n== Pair-likelihood wall ns/call, converged-shape rows"
        " (not baselined) ==\n%s",
        wall.to_ascii().c_str());
  }
  return 0;
}
