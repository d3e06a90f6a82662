// Ablations of the design choices DESIGN.md calls out:
//
//  1. update_phi prefetch chunk size (pipeline granularity);
//  2. gradient estimators: minibatch strategy x neighbor mode, by final
//     perplexity under a fixed iteration budget;
//  3. storing [pi | sum phi] (K+1 floats) vs storing phi directly
//     (2K floats) — memory and load_pi time;
//  4. DKV batching granularity: one request per row (the paper's design)
//     vs one request per owner shard;
//  5. LRU caching of pi (quantifying Section III-A's no-locality claim);
//  6. SGRLD drift form: the paper's literal Eqn 3 vs the posterior-exact
//     preconditioned form.
#include "bench/bench_util.h"
#include "core/parallel_sampler.h"
#include "dkv/cached_dkv.h"
#include "dkv/sim_rdma_dkv.h"
#include "graph/datasets.h"
#include "graph/heldout.h"
#include "sim/cluster.h"

using namespace scd;

namespace {

void ablate_chunk_size(bench::BenchIo& io) {
  const core::PhantomWorkload workload = bench::friendster_workload();
  Table table({"chunk_vertices", "pipelined_iter_ms"});
  for (std::uint32_t chunk : {4u, 16u, 32u, 64u, 256u}) {
    sim::SimCluster cluster(bench::das5_cluster(64));
    core::Hyper hyper;
    hyper.num_communities = 4096;
    core::DistributedOptions options;
    options.base.eval_interval = 0;
    options.chunk_vertices = chunk;
    core::DistributedSampler sampler(cluster, workload, hyper, options);
    table.add_row({std::int64_t(chunk),
                   sampler.run(16).avg_iteration_seconds * 1e3});
  }
  io.emit(table, "ablation_chunk_size",
          "Ablation — pipeline chunk size (64 nodes, K=4096)");
}

// Compare gradient-estimator choices by final perplexity under a fixed
// iteration budget: minibatch strategy x neighbor mode, on the
// LiveJournal convergence-scale graph. Each cell is an independent run;
// perplexity is instantaneous (single-sample evaluation at the end).
void ablate_estimators(bench::BenchIo& io) {
  rng::Xoshiro256 gen_rng(2016);
  const graph::DatasetSpec& spec =
      graph::dataset_by_name("com-LiveJournal");
  const graph::GeneratedGraph g =
      graph::generate_planted(gen_rng, graph::convergence_config(spec));
  rng::Xoshiro256 split_rng(7);
  const graph::HeldOutSplit split(split_rng, g.graph, 500);

  core::Hyper hyper;
  hyper.num_communities = spec.conv.communities;
  hyper.delta = core::suggested_delta(g.graph.density());

  constexpr std::uint64_t kIters = 20000;
  auto run_config = [&](graph::MinibatchStrategy strategy,
                        core::NeighborMode mode) {
    core::SamplerOptions options;
    options.minibatch.strategy = strategy;
    options.minibatch.num_pairs = 128;
    options.minibatch.nonlink_partitions = spec.conv.nonlink_partitions;
    options.neighbor_mode = mode;
    options.num_neighbors = 16;
    options.eval_interval = 0;
    options.step.a = spec.conv.step_a;
    options.step.b = 4096;
    options.seed = 99;
    core::ParallelSampler sampler(split.training(), &split, hyper, options,
                                  /*num_threads=*/1);
    sampler.run(kIters);
    return sampler.evaluate_perplexity();  // single-sample: instantaneous
  };

  Table table({"minibatch", "neighbor_mode", "perplexity_at_20k"});
  for (auto strategy : {graph::MinibatchStrategy::kStratifiedRandomNode,
                        graph::MinibatchStrategy::kRandomPair}) {
    for (auto mode :
         {core::NeighborMode::kLinkAware, core::NeighborMode::kUniform}) {
      table.add_row(
          {std::string(strategy == graph::MinibatchStrategy::
                                       kStratifiedRandomNode
                           ? "stratified-random-node"
                           : "random-pair"),
           std::string(mode == core::NeighborMode::kLinkAware
                           ? "link-aware"
                           : "uniform (Eqn 5)"),
           run_config(strategy, mode)});
    }
  }
  io.emit(table, "ablation_estimators",
          "Ablation — minibatch strategy x neighbor mode "
          "(LiveJournal conv-scale, 20k iterations, lower is better)");
}

void ablate_row_layout(bench::BenchIo& io) {
  // [pi | sum phi] ships K+1 floats per row; storing phi outright would
  // ship 2K+... the paper's Section III-A trade-off, quantified on the
  // dominant load_pi stage.
  const core::PhantomWorkload workload = bench::friendster_workload();
  Table table({"layout", "row_bytes", "pi_storage_TB", "load_pi_ms_iter"});
  for (bool compact : {true, false}) {
    const std::uint32_t k = 12288;
    const std::uint64_t row_floats = compact ? (k + 1) : (2ull * k);
    const double row_bytes = double(row_floats) * sizeof(float);
    const double storage_tb =
        double(workload.num_vertices) * row_bytes / 1e12;
    // Rows touched per worker per iteration in update_phi.
    const double rows = double(workload.minibatch_vertices) / 64.0 * 33.0;
    comm::NetworkModel net;
    const double load_ms =
        net.dkv_batch_time(
            static_cast<std::uint64_t>(rows),
            static_cast<std::uint64_t>(rows * row_bytes),
            static_cast<std::uint64_t>(rows * row_bytes), 64) *
        1e3;
    table.add_row({std::string(compact ? "pi + sum_phi (paper)"
                                       : "pi and phi separately"),
                   double(row_bytes), storage_tb, load_ms});
  }
  io.emit(table, "ablation_row_layout",
          "Ablation — state layout (com-Friendster, K=12288)");
}

void ablate_dkv_batching(bench::BenchIo& io) {
  // One RDMA request per row (the paper) vs batching all rows bound for
  // the same owner into one request.
  comm::NetworkModel net;
  const std::uint64_t rows = 8448;  // per-worker rows at M=16384, n=32
  const std::uint64_t row_bytes = (12288 + 1) * 4;
  Table table({"granularity", "requests", "load_ms"});
  for (bool per_row : {true, false}) {
    const std::uint64_t requests = per_row ? rows : 64;
    table.add_row(
        {std::string(per_row ? "one request per row (paper)"
                             : "one request per owner shard"),
         std::int64_t(requests),
         net.dkv_batch_time(requests, rows * row_bytes, rows * row_bytes,
                            64) *
             1e3});
  }
  io.emit(table, "ablation_dkv_batching",
          "Ablation — DKV request granularity (K=12288, 64 nodes)");
}

// Section III-A claims caching pi is pointless because accesses are
// uniformly random. Quantify it: replay the sampler's access pattern —
// random minibatch vertices and neighbor draws — against an LRU cache of
// various capacities (expressed as the RAM a worker could spare), with a
// 16-shard remote store underneath so hits translate into modeled time
// saved (a hit is a local memcpy; a miss pays the RDMA read).
void ablate_pi_caching(bench::BenchIo& io) {
  constexpr std::uint64_t kRows = 100'000;  // scaled-down key space
  constexpr std::uint32_t kWidth = 4;       // tiny rows: hit rate is
                                            // capacity-ratio driven
  sim::ComputeModel node;
  dkv::SimRdmaDkv inner(kRows, kWidth, /*num_shards=*/16,
                        comm::NetworkModel{}, node);

  Table table({"cache_fraction_of_pi", "hit_rate_pct", "read_ms_cached",
               "read_ms_uncached", "time_saved_pct"});
  for (double fraction : {0.001, 0.01, 0.05, 0.20}) {
    dkv::CachedDkv cache(
        inner,
        std::max<std::uint64_t>(
            1, static_cast<std::uint64_t>(fraction * kRows)),
        node);
    rng::Xoshiro256 rng(11);
    std::vector<std::uint64_t> keys(33);  // a vertex + its neighbor set
    std::vector<float> out(keys.size() * kWidth);
    double cached_s = 0.0;
    double uncached_s = 0.0;
    // Enough accesses to warm even the largest cache (~7x capacity).
    constexpr int kIters = 5000;
    for (int iter = 0; iter < kIters; ++iter) {
      for (auto& key : keys) key = rng.next_below(kRows);
      cached_s += cache.get_rows(0, keys, out);
      uncached_s += inner.read_cost_keys(0, keys);
    }
    table.add_row({fraction, 100.0 * cache.hit_rate(),
                   cached_s / kIters * 1e3, uncached_s / kIters * 1e3,
                   100.0 * (1.0 - cached_s / uncached_s)});
  }
  io.emit(table, "ablation_pi_caching",
          "Ablation — LRU caching of pi under the sampler's random "
          "access pattern (hit rate and time saved ~= cache fraction, "
          "as Section III-A argues)");
}

// Raw Eqn-3 drift vs Patterson-Teh preconditioned drift (see
// core::GradientForm and PosteriorTest): structure-recovery speed under a
// fixed budget vs statistical calibration of beta.
void ablate_gradient_form(bench::BenchIo& io) {
  rng::Xoshiro256 gen_rng(2016);
  const graph::DatasetSpec& spec =
      graph::dataset_by_name("com-LiveJournal");
  const graph::GeneratedGraph g =
      graph::generate_planted(gen_rng, graph::convergence_config(spec));
  rng::Xoshiro256 split_rng(7);
  const graph::HeldOutSplit split(split_rng, g.graph, 500);

  core::Hyper hyper;
  hyper.num_communities = spec.conv.communities;
  hyper.delta = core::suggested_delta(g.graph.density());

  Table table({"gradient_form", "perplexity_at_20k", "mean_beta"});
  for (auto form : {core::GradientForm::kRawEqn3,
                    core::GradientForm::kPreconditioned}) {
    core::SamplerOptions options;
    options.minibatch.nonlink_partitions = spec.conv.nonlink_partitions;
    options.neighbor_mode = core::NeighborMode::kLinkAware;
    options.num_neighbors = 16;
    options.eval_interval = 0;
    options.step.a = spec.conv.step_a;
    options.step.b = 4096;
    options.seed = 99;
    options.gradient_form = form;
    core::ParallelSampler sampler(split.training(), &split, hyper, options,
                                  /*num_threads=*/1);
    sampler.run(20000);
    double mean_beta = 0.0;
    for (std::uint32_t k = 0; k < hyper.num_communities; ++k) {
      mean_beta += sampler.global().beta(k);
    }
    mean_beta /= hyper.num_communities;
    table.add_row(
        {std::string(form == core::GradientForm::kRawEqn3
                         ? "raw Eqn 3 (paper)"
                         : "preconditioned (Patterson-Teh)"),
         sampler.evaluate_perplexity(), mean_beta});
  }
  io.emit(table, "ablation_gradient_form",
          "Ablation — SGRLD drift form (LiveJournal conv-scale)");
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchIo io;
  if (!io.parse(argc, argv, "bench_ablation",
                "Ablations of the paper's design choices")) {
    return 0;
  }
  ablate_chunk_size(io);
  ablate_estimators(io);
  ablate_row_layout(io);
  ablate_dkv_batching(io);
  ablate_pi_caching(io);
  ablate_gradient_form(io);
  return 0;
}
