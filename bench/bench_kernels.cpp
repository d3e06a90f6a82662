// Micro-benchmarks of the algorithm's hot kernels (google-benchmark):
// pair likelihood, phi gradients, theta ratios, the SGRLD row update,
// neighbor sampling and minibatch drawing. These are the units whose
// cycle counts calibrate sim::ComputeModel.
//
// The headline BM_PairLikelihood / BM_PhiGradient / BM_ThetaRatio /
// BM_UpdatePhiRow series call the fast_* kernels — what the samplers
// actually run. The BM_*Scalar series measures the grads.cpp reference
// kernels for the fused-vs-scalar speedup comparison.
//
// Refresh the committed baseline with:
//   ./build/bench/bench_kernels \
//     --benchmark_min_time=0.2 --benchmark_format=json \
//     > BENCH_kernels.json
#include <benchmark/benchmark.h>

#include "core/grads.h"
#include "core/kernels_simd.h"
#include "core/state.h"
#include "graph/generator.h"
#include "graph/minibatch.h"
#include "random/distributions.h"

using namespace scd;

namespace {

struct KernelFixtureData {
  std::vector<float> row_a;
  std::vector<float> row_b;
  std::vector<float> beta;
  core::LikelihoodTerms terms;

  explicit KernelFixtureData(std::size_t k) {
    rng::Xoshiro256 rng(17);
    auto make_row = [&](std::size_t dim) {
      std::vector<double> pi(dim);
      rng::sample_dirichlet(rng, 0.5, pi);
      std::vector<float> row(dim + 1);
      for (std::size_t i = 0; i < dim; ++i) {
        row[i] = static_cast<float>(pi[i]);
      }
      row[dim] = 2.0f;
      return row;
    };
    row_a = make_row(k);
    row_b = make_row(k);
    beta.resize(k);
    for (float& b : beta) {
      b = static_cast<float>(0.1 + 0.8 * rng.next_double());
    }
    terms.refresh(beta, 1e-5);
  }
};

// --- dispatched (fused by default): what the samplers run ---------------

void BM_PairLikelihood(benchmark::State& state) {
  const KernelFixtureData f(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::fast_pair_likelihood(f.row_a, f.row_b, f.terms, true));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_PairLikelihood)->Arg(64)->Arg(1024)->Arg(12288);

void BM_PhiGradient(benchmark::State& state) {
  const auto k = static_cast<std::size_t>(state.range(0));
  const KernelFixtureData f(k);
  std::vector<double> grad(k);
  std::vector<float> w(k);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::fast_accumulate_phi_grad(
        f.row_a, f.row_b, f.terms, false, grad, w));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_PhiGradient)->Arg(64)->Arg(1024)->Arg(12288);

void BM_ThetaRatio(benchmark::State& state) {
  const auto k = static_cast<std::size_t>(state.range(0));
  const KernelFixtureData f(k);
  std::vector<double> ratio(k);
  std::vector<float> scratch(k);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::fast_accumulate_theta_ratio(
        f.row_a, f.row_b, f.terms, true, ratio, scratch));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ThetaRatio)->Arg(64)->Arg(1024)->Arg(12288);

void BM_UpdatePhiRow(benchmark::State& state) {
  const auto k = static_cast<std::size_t>(state.range(0));
  const KernelFixtureData f(k);
  std::vector<double> grad(k, 0.1);
  std::vector<double> noise(k);
  std::vector<float> row = f.row_a;
  std::uint64_t iteration = 0;
  for (auto _ : state) {
    core::fast_update_phi_row(1, iteration++, 7, row, grad, 100.0, 0.01,
                              0.1, 1.0, core::GradientForm::kRawEqn3,
                              noise);
    benchmark::DoNotOptimize(row.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_UpdatePhiRow)->Arg(64)->Arg(1024)->Arg(12288);

// --- scalar reference: the pre-fusion baselines -------------------------

void BM_PairLikelihoodScalar(benchmark::State& state) {
  const KernelFixtureData f(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::pair_likelihood(f.row_a, f.row_b, f.terms, true));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_PairLikelihoodScalar)->Arg(64)->Arg(1024)->Arg(12288);

void BM_PhiGradientScalar(benchmark::State& state) {
  const auto k = static_cast<std::size_t>(state.range(0));
  const KernelFixtureData f(k);
  std::vector<double> grad(k);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::accumulate_phi_grad(f.row_a, f.row_b, f.terms, false, grad));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_PhiGradientScalar)->Arg(64)->Arg(1024)->Arg(12288);

void BM_ThetaRatioScalar(benchmark::State& state) {
  const auto k = static_cast<std::size_t>(state.range(0));
  const KernelFixtureData f(k);
  std::vector<double> ratio(k);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::accumulate_theta_ratio(
        f.row_a, f.row_b, f.terms, true, ratio));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ThetaRatioScalar)->Arg(64)->Arg(1024)->Arg(12288);

void BM_UpdatePhiRowScalar(benchmark::State& state) {
  const auto k = static_cast<std::size_t>(state.range(0));
  const KernelFixtureData f(k);
  std::vector<double> grad(k, 0.1);
  std::vector<float> row = f.row_a;
  std::uint64_t iteration = 0;
  for (auto _ : state) {
    core::update_phi_row(1, iteration++, 7, row, grad, 100.0, 0.01, 0.1);
    benchmark::DoNotOptimize(row.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_UpdatePhiRowScalar)->Arg(64)->Arg(1024)->Arg(12288);

void BM_GammaSampling(benchmark::State& state) {
  rng::Xoshiro256 rng(3);
  const double shape = static_cast<double>(state.range(0)) / 100.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng::sample_gamma(rng, shape));
  }
}
BENCHMARK(BM_GammaSampling)->Arg(5)->Arg(100)->Arg(500);

struct GraphFixture {
  graph::GeneratedGraph generated;
  GraphFixture() {
    rng::Xoshiro256 rng(5);
    graph::PlantedConfig config;
    config.num_vertices = 20000;
    config.num_communities = 32;
    generated = graph::generate_planted(rng, config);
  }
  static const GraphFixture& instance() {
    static GraphFixture fixture;
    return fixture;
  }
};

void BM_NeighborSampling(benchmark::State& state) {
  const auto& g = GraphFixture::instance().generated.graph;
  rng::Xoshiro256 rng(9);
  const graph::Vertex a = 17;
  const auto adj = g.neighbors(a);
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::sample_neighbors(
        rng, g.num_vertices(), a, adj,
        static_cast<std::size_t>(state.range(0))));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_NeighborSampling)->Arg(32)->Arg(128);

void BM_MinibatchDraw(benchmark::State& state) {
  const auto& g = GraphFixture::instance().generated.graph;
  graph::MinibatchSampler::Options options;
  options.strategy = graph::MinibatchStrategy::kStratifiedRandomNode;
  options.nonlink_partitions = 32;
  const graph::MinibatchSampler sampler(g, nullptr, options);
  rng::Xoshiro256 rng(11);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sampler.draw(rng));
  }
}
BENCHMARK(BM_MinibatchDraw);

// The allocation-free path the samplers use: same draws, reused buffers.
void BM_MinibatchDrawInto(benchmark::State& state) {
  const auto& g = GraphFixture::instance().generated.graph;
  graph::MinibatchSampler::Options options;
  options.strategy = graph::MinibatchStrategy::kStratifiedRandomNode;
  options.nonlink_partitions = 32;
  const graph::MinibatchSampler sampler(g, nullptr, options);
  graph::Minibatch mb;
  graph::MinibatchScratch scratch;
  mb.pairs.reserve(sampler.max_pairs_bound());
  mb.vertices.reserve(sampler.max_vertices_bound());
  scratch.chosen.reset(sampler.max_pairs_bound());
  rng::Xoshiro256 rng(11);
  for (auto _ : state) {
    sampler.draw_into(rng, mb, scratch);
    benchmark::DoNotOptimize(mb.pairs.data());
  }
}
BENCHMARK(BM_MinibatchDrawInto);

void BM_EdgeMembership(benchmark::State& state) {
  const auto& g = GraphFixture::instance().generated.graph;
  rng::Xoshiro256 rng(13);
  for (auto _ : state) {
    const auto u = static_cast<graph::Vertex>(rng.next_below(20000));
    const auto v = static_cast<graph::Vertex>(rng.next_below(20000));
    benchmark::DoNotOptimize(g.has_edge(u, v));
  }
}
BENCHMARK(BM_EdgeMembership);

}  // namespace

BENCHMARK_MAIN();
