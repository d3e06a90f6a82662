// Chaos study: cost and convergence impact of injected faults.
//
// Two questions. First, does arming fault injection cost anything when
// nothing fails? A run with an empty plan must equal the run without a
// plan in numbers (asserted here) and in virtual time — the committed
// baseline drift-guards the 0% overhead. Second, how does convergence
// degrade as fault intensity rises?
// Each intensity level runs the same planted-graph workload under
// progressively harsher plans (lossy links -> straggler + DKV stall ->
// worker crashes) and reports the virtual-time overhead and the gap in
// final held-out perplexity versus the clean run. Everything is
// deterministic: same binary, same numbers.
#include <cmath>

#include "bench/bench_util.h"
#include "fault/fault_plan.h"
#include "graph/generator.h"
#include "graph/heldout.h"
#include "sim/cluster.h"
#include "util/error.h"

using namespace scd;

namespace {

constexpr unsigned kWorkers = 4;
constexpr std::uint64_t kIterations = 120;

struct Arm {
  core::DistributedResult result;
  double final_perplexity = 0.0;
};

struct Workload {
  graph::GeneratedGraph generated;
  std::unique_ptr<graph::HeldOutSplit> split;
  core::Hyper hyper;
  core::DistributedOptions options;
};

Workload make_workload() {
  Workload w;
  rng::Xoshiro256 gen_rng(4242);
  graph::PlantedConfig config;
  config.num_vertices = 200;
  config.num_communities = 4;
  config.p_two_memberships = 0.2;
  config.beta_lo = 0.25;
  config.beta_hi = 0.4;
  config.delta = 2e-3;
  w.generated = graph::generate_planted(gen_rng, config);
  rng::Xoshiro256 split_rng(4243);
  w.split = std::make_unique<graph::HeldOutSplit>(split_rng,
                                                  w.generated.graph, 100);
  w.hyper.num_communities = 4;
  w.hyper.delta = core::suggested_delta(w.generated.graph.density());
  w.options.base.minibatch.strategy =
      graph::MinibatchStrategy::kStratifiedRandomNode;
  w.options.base.minibatch.nonlink_partitions = 8;
  w.options.base.num_neighbors = 24;
  w.options.base.eval_interval = 30;
  w.options.base.step.a = 0.05;
  w.options.base.step.b = 512.0;
  w.options.base.step.c = 0.55;
  w.options.base.seed = 4244;
  w.options.chunk_vertices = 8;
  return w;
}

Arm run_arm(const fault::FaultPlan* plan) {
  Workload w = make_workload();
  sim::SimCluster cluster(bench::das5_cluster(kWorkers));
  w.options.fault_plan = plan;
  core::DistributedSampler sampler(cluster, w.split->training(),
                                   w.split.get(), w.hyper, w.options);
  Arm arm;
  arm.result = sampler.run(kIterations);
  SCD_REQUIRE(!arm.result.history.empty(), "chaos arm produced no evals");
  arm.final_perplexity = arm.result.history.back().perplexity;
  return arm;
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchIo io;
  if (!io.parse(argc, argv, "bench_chaos",
                "Chaos study: empty-plan parity and fault-intensity "
                "degradation"))
    return 0;

  // ---- no-fault parity: no plan vs an empty plan ----------------------
  const Arm no_plan = run_arm(nullptr);
  const fault::FaultPlan empty;
  const Arm nofault = run_arm(&empty);
  SCD_REQUIRE(nofault.final_perplexity == no_plan.final_perplexity,
              "an empty fault plan changed the numbers");
  const double overhead_pct = 100.0 *
                              (nofault.result.virtual_seconds -
                               no_plan.result.virtual_seconds) /
                              no_plan.result.virtual_seconds;

  Table parity({"arm", "virtual_s", "final_perplexity",
                "nofault_overhead_pct"});
  parity.add_row({std::string("no_plan"), no_plan.result.virtual_seconds,
                  no_plan.final_perplexity, 0.0});
  parity.add_row({std::string("empty_plan"),
                  nofault.result.virtual_seconds, nofault.final_perplexity,
                  overhead_pct});
  io.emit(parity, "nofault_parity", "Empty fault plan overhead, no faults");

  // ---- fault-intensity sweep ------------------------------------------
  const double total = nofault.result.virtual_seconds;
  const double per_iter = total / static_cast<double>(kIterations);

  Table chaos({"intensity", "virtual_s", "time_overhead_pct",
               "final_perplexity", "perplexity_gap_pct", "crashed_ranks",
               "redone_iterations"});
  struct Level {
    const char* name;
    double drop;
    double slowdown;
    double stall_s;
    unsigned crashes;
  };
  const Level levels[] = {
      {"light", 0.05, 1.5, 1e-6, 0},
      {"medium", 0.15, 3.0, 5e-6, 1},
      {"heavy", 0.30, 6.0, 2e-5, 2},
  };
  for (const Level& level : levels) {
    fault::FaultPlan plan;
    plan.seed = 17;
    plan.heartbeat_timeout_s = per_iter;
    for (unsigned rank = 1; rank <= kWorkers; ++rank) {
      plan.links.push_back(
          {0, rank, 0.0, 1e9, level.drop, level.drop / 2.0, 1e-6});
      plan.links.push_back(
          {rank, 0, 0.0, 1e9, level.drop, level.drop / 2.0, 1e-6});
    }
    plan.stragglers.push_back({1, 0.0, 1e9, level.slowdown});
    plan.dkv_stalls.push_back({2, 0.0, 1e9, level.stall_s});
    for (unsigned i = 0; i < level.crashes; ++i) {
      plan.crashes.push_back(
          {kWorkers - i, total * (0.4 + 0.2 * static_cast<double>(i))});
    }
    const Arm arm = run_arm(&plan);
    chaos.add_row(
        {std::string(level.name), arm.result.virtual_seconds,
         100.0 * (arm.result.virtual_seconds - total) / total,
         arm.final_perplexity,
         100.0 * (arm.final_perplexity - nofault.final_perplexity) /
             nofault.final_perplexity,
         static_cast<std::int64_t>(arm.result.crashed_ranks.size()),
         static_cast<std::int64_t>(arm.result.redone_iterations)});
  }
  io.emit(chaos, "chaos_sweep", "Degradation vs fault intensity");
  return 0;
}
