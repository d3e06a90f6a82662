// Convergence study: track held-out perplexity over a long run on a
// configurable planted graph and write the curve to CSV for plotting.
//
//   ./convergence_study --vertices 2000 --communities 64 --degree 17 \
//       --iterations 50000 --out curve.csv
#include <cstdio>

#include "core/parallel_sampler.h"
#include "graph/generator.h"
#include "graph/heldout.h"
#include "util/cli.h"
#include "util/table.h"

using namespace scd;

int main(int argc, char** argv) {
  std::uint64_t vertices = 2000;
  std::uint64_t communities = 64;
  double degree = 17.0;
  std::int64_t iterations = 50000;
  std::int64_t eval_every = 2000;
  double step_a = 0.01;
  std::string out;
  std::uint64_t seed = 2016;
  ArgParser parser("convergence_study", "perplexity-vs-iteration curves");
  parser.add_uint("vertices", &vertices, "graph size N")
      .add_uint("communities", &communities, "planted and inferred K")
      .add_double("degree", &degree, "average degree")
      .add_int("iterations", &iterations, "total iterations")
      .add_int("eval-every", &eval_every, "evaluation interval")
      .add_double("step-a", &step_a, "step size a")
      .add_string("out", &out, "CSV output path (optional)")
      .add_uint("seed", &seed, "root seed");
  if (!parser.parse(argc, argv)) return 0;

  rng::Xoshiro256 gen_rng(seed);
  const graph::PlantedConfig config = graph::planted_config_for_degree(
      static_cast<graph::Vertex>(vertices),
      static_cast<std::uint32_t>(communities), degree);
  const graph::GeneratedGraph g = graph::generate_planted(gen_rng, config);
  rng::Xoshiro256 split_rng(seed + 1);
  const graph::HeldOutSplit split(
      split_rng, g.graph,
      std::min<std::size_t>(1000, g.graph.num_edges() / 10));

  core::Hyper hyper;
  hyper.num_communities = static_cast<std::uint32_t>(communities);
  hyper.delta = core::suggested_delta(g.graph.density());
  core::SamplerOptions options;
  options.neighbor_mode = core::NeighborMode::kLinkAware;
  options.num_neighbors = 16;
  options.minibatch.nonlink_partitions = 8;
  options.eval_interval = static_cast<std::uint64_t>(eval_every);
  options.step.a = step_a;
  options.step.b = 4096;
  options.seed = seed;

  core::ParallelSampler sampler(split.training(), &split, hyper, options,
                                /*num_threads=*/1);
  const double initial = sampler.evaluate_perplexity();
  std::printf("N=%llu K=%llu deg=%.1f: initial perplexity %.3f\n",
              static_cast<unsigned long long>(vertices),
              static_cast<unsigned long long>(communities), degree,
              initial);
  sampler.run(static_cast<std::uint64_t>(iterations));

  Table curve({"iteration", "wall_seconds", "perplexity"});
  curve.add_row({std::int64_t(0), 0.0, initial});
  for (const core::HistoryPoint& p : sampler.history()) {
    std::printf("  iter %6llu  perplexity %.3f\n",
                static_cast<unsigned long long>(p.iteration),
                p.perplexity);
    curve.add_row({static_cast<std::int64_t>(p.iteration), p.seconds,
                   p.perplexity});
  }
  if (!out.empty()) {
    curve.write_csv(out);
    std::printf("curve written to %s\n", out.c_str());
  }
  return 0;
}
