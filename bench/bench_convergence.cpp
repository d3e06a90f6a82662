// Figure 6: convergence (held-out perplexity over time) for the six
// datasets, each at its paper cluster configuration.
//
// Composition: the distributed sampler runs the same estimator as the
// in-process ParallelSampler (tests/core/distributed_test.cpp holds the
// two to a tolerance on small fixtures; at this scale they differ in
// summation order only, ROADMAP item 1), so the perplexity trajectory is
// computed with the fast in-process sampler, while the *time axis* comes
// from the cost-only distributed run at the paper's node count and
// paper-scale workload.
//
// Trajectories run at each dataset's convergence scale (DatasetSpec::conv
// — a further-reduced planted graph; SG-MCMC needs thousands of updates
// per vertex, which at the 1/1000 stand-in scale would take hours on one
// core, just as the paper's full runs took hours on 65 nodes). The link-
// aware neighbor mode is used throughout: Eqn 5's uniform V_n has
// unusably high gradient variance on sparse graphs (see core/options.h).
#include <cmath>

#include "bench/bench_util.h"
#include "core/parallel_sampler.h"
#include "graph/datasets.h"
#include "graph/heldout.h"
#include "sim/cluster.h"

using namespace scd;

int main(int argc, char** argv) {
  double iteration_scale = 1.0;
  std::string only;
  ArgParser parser("bench_convergence", "Figure 6: convergence curves");
  parser.add_double("iteration-scale", &iteration_scale,
                    "multiply each dataset's iteration budget");
  parser.add_string("dataset", &only, "run a single dataset by name");
  bench::BenchIo io;
  if (!io.parse(argc, argv, "bench_convergence", "", &parser)) return 0;

  for (const graph::DatasetSpec& spec : graph::standard_datasets()) {
    if (!only.empty() && spec.name != only) continue;

    rng::Xoshiro256 gen_rng(2016);
    const graph::GeneratedGraph g =
        graph::generate_planted(gen_rng, graph::convergence_config(spec));
    const std::size_t heldout_size =
        std::min<std::size_t>(1000, g.graph.num_edges() / 10);
    rng::Xoshiro256 split_rng(7);
    const graph::HeldOutSplit split(split_rng, g.graph, heldout_size);

    const auto iterations = static_cast<std::uint64_t>(
        static_cast<double>(spec.conv.iterations) * iteration_scale);

    core::Hyper hyper;
    hyper.num_communities = spec.conv.communities;
    hyper.delta = core::suggested_delta(g.graph.density());
    core::SamplerOptions options;
    options.minibatch.strategy =
        graph::MinibatchStrategy::kStratifiedRandomNode;
    options.minibatch.nonlink_partitions = spec.conv.nonlink_partitions;
    options.neighbor_mode = core::NeighborMode::kLinkAware;
    options.num_neighbors = 16;
    options.eval_interval = std::max<std::uint64_t>(1, iterations / 12);
    options.step.a = spec.conv.step_a;
    options.step.b = 4096;
    options.seed = 2016;

    // Real numerics at convergence scale. The trajectory does not depend
    // on the thread count.
    core::ParallelSampler sampler(split.training(), &split, hyper, options,
                                  /*num_threads=*/1);
    sampler.evaluate_perplexity();  // history[0]: the diffuse start
    sampler.run(iterations);

    // Virtual time per iteration at the paper's cluster size and K, on
    // the paper-size graph.
    core::PhantomWorkload workload;
    workload.num_vertices = spec.paper_vertices;
    workload.avg_degree = 2.0 * double(spec.paper_edges) /
                          double(spec.paper_vertices);
    workload.minibatch_vertices = 16384;
    workload.minibatch_pairs = 8192;
    workload.heldout_pairs = heldout_size;
    const unsigned workers = spec.paper_cluster_nodes > 1
                                 ? spec.paper_cluster_nodes - 1
                                 : 1;
    sim::SimCluster cluster(bench::das5_cluster(workers));
    core::DistributedOptions dist_options;
    dist_options.base = options;
    core::Hyper paper_hyper = hyper;
    paper_hyper.num_communities = spec.paper_communities;
    core::DistributedSampler timing(cluster, workload, paper_hyper,
                                    dist_options);
    const double sec_per_iter = timing.run(8).avg_iteration_seconds;

    Table curve(
        {"iteration", "virtual_hours_at_paper_scale", "perplexity"});
    // history[0] is the pre-training evaluation at iteration 0.
    for (const core::HistoryPoint& point : sampler.history()) {
      curve.add_row({static_cast<std::int64_t>(point.iteration),
                     double(point.iteration) * sec_per_iter / 3600.0,
                     point.perplexity});
    }
    io.emit(curve, "fig6_convergence_" + spec.name,
            "Fig 6 — " + spec.name + " (conv-scale N=" +
                std::to_string(spec.conv.vertices) + " K=" +
                std::to_string(spec.conv.communities) + "; time axis: " +
                std::to_string(workers) + "+1 nodes at paper scale, K=" +
                std::to_string(spec.paper_communities) + ")");
  }
  return 0;
}
