// Figure 1: strong scaling on com-Friendster.
//
//  (a) execution time of 2048 iterations (total + per-phase cumulative)
//      for cluster sizes 8..64 worker nodes, K = 1024, M = 16384, n = 32;
//  (b) speedup relative to the 8-node configuration.
//
// Cost-only execution at the paper's full problem size. The cost-only
// iteration is deterministic, so 64 iterations are measured and scaled to
// the paper's 2048.
#include "bench/bench_util.h"
#include "sim/cluster.h"

using namespace scd;
using comm::Phase;

int main(int argc, char** argv) {
  std::int64_t report_iters = 2048;
  std::int64_t k = 1024;
  ArgParser parser("bench_strong_scaling", "Figure 1: strong scaling");
  parser.add_int("iterations", &report_iters, "iterations to report");
  parser.add_int("k", &k, "number of communities");
  bench::BenchIo io;
  if (!io.parse(argc, argv, "bench_strong_scaling", "", &parser)) return 0;

  const core::PhantomWorkload workload = bench::friendster_workload();
  const unsigned sizes[] = {8, 16, 32, 64};

  Table fig1a({"workers", "total_s", "update_phi_pi_s", "load_pi_s",
               "update_phi_s", "deploy_s", "update_beta_theta_s",
               "draw_minibatch_s"});
  Table fig1b({"workers", "speedup_vs_8"});
  double time_at_8 = 0.0;
  for (unsigned workers : sizes) {
    const core::DistributedResult result = bench::run_cost_only(
        workers, static_cast<std::uint32_t>(k), workload,
        /*measured=*/64, static_cast<std::uint64_t>(report_iters));
    const comm::PhaseStats& cp = result.critical_path;
    const double phi_pi = cp.get(Phase::kSampleNeighbors) +
                          cp.get(Phase::kLoadPi) +
                          cp.get(Phase::kUpdatePhi) +
                          cp.get(Phase::kUpdatePi);
    fig1a.add_row({std::int64_t(workers), result.virtual_seconds, phi_pi,
                   cp.get(Phase::kLoadPi), cp.get(Phase::kUpdatePhi),
                   cp.get(Phase::kDeployMinibatch),
                   cp.get(Phase::kUpdateBetaTheta),
                   cp.get(Phase::kDrawMinibatch)});
    if (workers == 8) time_at_8 = result.virtual_seconds;
    fig1b.add_row({std::int64_t(workers),
                   time_at_8 / result.virtual_seconds});
  }
  io.emit(fig1a, "fig1a_strong_scaling_time",
          "Fig 1a — execution time of " + std::to_string(report_iters) +
              " iterations, com-Friendster, K=" + std::to_string(k));
  io.emit(fig1b, "fig1b_strong_scaling_speedup",
          "Fig 1b — speedup vs 8 worker nodes");
  return 0;
}
