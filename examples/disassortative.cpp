// General-MMSB extension demo (paper footnote 1): a near-bipartite
// affiliation network — say, buyers and sellers in a marketplace, who
// transact across roles but rarely within — has *disassortative*
// structure that the assortative model cannot express: its only
// cross-community link probability is the single background delta.
//
// The demo fits both models and prints the learned block matrix. With the
// true block strengths supplied as a structural hypothesis (warm start +
// burn-in freeze, see core/general_sampler.h for why a fully diffuse
// joint start is a saddle), the general model separates the two roles.
//
//   ./disassortative [--vertices 300] [--iterations 4000]
#include <cstdio>

#include "core/general_sampler.h"
#include "core/parallel_sampler.h"
#include "graph/builder.h"
#include "graph/heldout.h"
#include "graph/metrics.h"
#include "util/cli.h"

using namespace scd;

int main(int argc, char** argv) {
  std::uint64_t vertices = 300;
  std::int64_t iterations = 4000;
  ArgParser parser("disassortative",
                   "general MMSB on a bipartite-like network");
  parser.add_uint("vertices", &vertices, "network size (two equal roles)")
      .add_int("iterations", &iterations, "phi-training iterations");
  if (!parser.parse(argc, argv)) return 0;

  // Roles link across (15%) but almost never within (0.5%).
  const auto n = static_cast<graph::Vertex>(vertices);
  rng::Xoshiro256 gen_rng(99);
  graph::GraphBuilder builder(n);
  for (graph::Vertex a = 0; a < n; ++a) {
    for (graph::Vertex b = a + 1; b < n; ++b) {
      const bool same_role = (a < n / 2) == (b < n / 2);
      if (gen_rng.next_double() < (same_role ? 0.005 : 0.15)) {
        builder.add_edge(a, b);
      }
    }
  }
  const graph::Graph g = std::move(builder).build();
  std::printf("marketplace: %u members, %llu transactions (cross-role"
              " density 15%%, within-role 0.5%%)\n",
              g.num_vertices(),
              static_cast<unsigned long long>(g.num_edges()));

  rng::Xoshiro256 split_rng(1);
  const graph::HeldOutSplit split(split_rng, g, g.num_edges() / 10);

  core::Hyper hyper;
  hyper.num_communities = 2;
  hyper.alpha = 0.2;
  hyper.delta = core::suggested_delta(g.density());
  core::SamplerOptions options;
  options.neighbor_mode = core::NeighborMode::kLinkAware;
  options.num_neighbors = 16;
  options.minibatch.nonlink_partitions = 4;
  options.eval_interval = 0;
  options.step.a = 0.05;
  options.step.b = 4096;
  options.seed = 11;

  // Structural hypothesis: members interact across roles, not within.
  core::GeneralSequentialSampler general(split.training(), &split, hyper,
                                         options);
  core::BlockMatrix hypothesis(2);
  auto set_block = [&](std::uint32_t k, std::uint32_t l, double value) {
    const std::uint32_t idx = hypothesis.block_index(k, l);
    hypothesis.set_theta(idx, 0, (1.0 - value) * 100.0);
    hypothesis.set_theta(idx, 1, value * 100.0);
  };
  set_block(0, 0, 0.005);
  set_block(1, 1, 0.005);
  set_block(0, 1, 0.15);
  hypothesis.refresh_b();
  general.warm_start_blocks(hypothesis);
  general.freeze_blocks_for(static_cast<std::uint64_t>(iterations));

  std::printf("training general MMSB (%lld iterations, B frozen at the"
              " hypothesis while pi trains)...\n",
              static_cast<long long>(iterations));
  general.run(static_cast<std::uint64_t>(iterations));

  std::vector<std::uint32_t> truth(n);
  std::vector<std::uint32_t> predicted(n);
  for (graph::Vertex v = 0; v < n; ++v) {
    truth[v] = v < n / 2 ? 0 : 1;
    predicted[v] =
        general.pi().pi(v, 0) > general.pi().pi(v, 1) ? 0 : 1;
  }
  std::printf("\nlearned block matrix B:\n");
  std::printf("      role0  role1\n");
  std::printf("role0 %.3f  %.3f\n", double(general.blocks().b(0, 0)),
              double(general.blocks().b(0, 1)));
  std::printf("role1 %.3f  %.3f\n", double(general.blocks().b(1, 0)),
              double(general.blocks().b(1, 1)));
  std::printf("role-recovery NMI (general MMSB): %.3f\n",
              graph::nmi(truth, predicted));

  // The assortative model on the same graph: its communities can only be
  // *densely intra-connected* groups, which this network does not have.
  core::ParallelSampler ammsb(split.training(), &split, hyper, options,
                              /*num_threads=*/1);
  ammsb.run(static_cast<std::uint64_t>(iterations));
  for (graph::Vertex v = 0; v < n; ++v) {
    predicted[v] = ammsb.pi().pi(v, 0) > ammsb.pi().pi(v, 1) ? 0 : 1;
  }
  std::printf("role-recovery NMI (a-MMSB):       %.3f  <- cannot express"
              " cross-role affinity\n",
              graph::nmi(truth, predicted));
  return 0;
}
