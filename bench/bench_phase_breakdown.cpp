// Table III: per-stage time breakdown of one iteration on com-Friendster
// with 64 worker nodes and K = 12288, non-pipelined vs pipelined.
//
// Paper reference values (ms/iteration):
//                          non-pipelined   pipelined
//   total                       450            365
//   draw/deploy mini-batch       45.6          26.2 (hidden inside phi)
//   update_phi                  285            241
//     load pi                   205            209
//     update phi (compute)       74             74
//   update_pi                     3.8            4.6
//   update beta/theta            25.9           33.6
//
// In the pipelined column load_pi/update_phi/draw are *sub-stage* views:
// they overlap, so they exceed the stage's critical path — exactly as in
// the paper's table.
#include "bench/bench_util.h"
#include "sim/cluster.h"

using namespace scd;
using comm::Phase;

int main(int argc, char** argv) {
  std::int64_t k = 12288;
  std::int64_t workers = 64;
  ArgParser parser("bench_phase_breakdown", "Table III: stage breakdown");
  parser.add_int("k", &k, "number of communities");
  parser.add_int("workers", &workers, "cluster size (worker nodes)");
  bench::BenchIo io;
  if (!io.parse(argc, argv, "bench_phase_breakdown", "", &parser)) return 0;

  const core::PhantomWorkload workload = bench::friendster_workload();
  constexpr std::uint64_t kIters = 32;

  auto run = [&](bool pipeline) {
    core::DistributedResult r = bench::run_cost_only(
        static_cast<unsigned>(workers), static_cast<std::uint32_t>(k),
        workload, kIters, kIters, pipeline);
    r.critical_path.scale(1.0 / static_cast<double>(kIters));
    r.avg_iteration_seconds = r.virtual_seconds / double(kIters);
    return r;
  };
  const core::DistributedResult serial = run(false);
  const core::DistributedResult pipelined = run(true);

  auto ms = [](double s) { return s * 1e3; };
  auto row = [&](const std::string& name, Phase p) {
    return std::vector<Cell>{
        name, ms(serial.critical_path.get(p)),
        ms(pipelined.critical_path.get(p))};
  };

  Table t3({"stage", "non_pipelined_ms", "pipelined_ms"});
  t3.add_row({std::string("total"), ms(serial.avg_iteration_seconds),
              ms(pipelined.avg_iteration_seconds)});
  t3.add_row(row("draw/deploy mini-batch (master)", Phase::kDrawMinibatch));
  t3.add_row(row("deploy wait (worker)", Phase::kDeployMinibatch));
  t3.add_row(row("sample_neighbors", Phase::kSampleNeighbors));
  t3.add_row(row("load pi [substage]", Phase::kLoadPi));
  t3.add_row(row("update phi [substage]", Phase::kUpdatePhi));
  t3.add_row(row("update_pi", Phase::kUpdatePi));
  t3.add_row(row("update beta/theta", Phase::kUpdateBetaTheta));
  t3.add_row(row("barrier wait", Phase::kBarrierWait));
  io.emit(t3, "table3_phase_breakdown",
          "Table III — ms per iteration, com-Friendster, " +
              std::to_string(workers) + " workers, K=" + std::to_string(k));

  std::printf(
      "\npaper reference: total 450 -> 365; load pi 205/209; update phi"
      " 74/74; update_pi 3.8/4.6; update beta/theta 25.9/33.6;"
      " draw/deploy 45.6 -> 26.2\n");
  return 0;
}
