// Autotuner study: tuned vs default configurations on two deliberately
// mis-configured workloads.
//
// Two claims to pin down. First, the attribution-guided search pays for
// itself: starting from the conventional all-zeros corner of the default
// search space, `tune()` must reach a materially better objective while
// probing a small fraction of the grid — the committed baseline
// drift-guards the probe count, the probed fraction, and both objective
// values (all deterministic virtual time, so the 20% drift gate of
// tools/check_bench.py applies cleanly). Second, the tuned configs
// themselves are stable: the baseline pins the chosen workers / threads
// / minibatch / codec knobs, so a pruning-rule change that flips the
// search outcome shows up as a diff, not silently.
//
// No exhaustive sweep here — the acceptance comparison against the
// brute-force optimum lives in tests/tune/tune_test.cpp where the grids
// are sized for it. This harness runs the product path (default_space)
// on paper-scale inputs.
#include <cmath>
#include <string>

#include "bench/bench_util.h"
#include "tune/report.h"
#include "tune/tuner.h"

using namespace scd;

namespace {

/// Comms-bound: com-Friendster scale. Collective skew and remote pi
/// reads dominate the small default minibatch, so the tuner must grow M
/// and shrink the rows on the wire.
tune::TuneWorkload friendster_tune_workload() {
  tune::TuneWorkload w;
  w.num_vertices = 65'608'366;
  w.avg_degree = 55.06;
  w.num_communities = 1024;
  w.sat_vertices = 16384.0;
  return w;
}

/// Compute-bound: a small dense-community problem where the phi kernel
/// owns the critical path; the win is threads, not comm knobs.
tune::TuneWorkload compute_tune_workload() {
  tune::TuneWorkload w;
  w.num_vertices = 1u << 18;
  w.avg_degree = 16.0;
  w.num_communities = 8192;
  w.sat_vertices = 2048.0;
  return w;
}

struct Row {
  std::string name;
  tune::TuneResult result;
};

}  // namespace

int main(int argc, char** argv) {
  bench::BenchIo io;
  if (!io.parse(argc, argv, "bench_tune",
                "Autotuner: tuned vs default configs on mis-configured "
                "workloads"))
    return 0;

  Row rows[] = {
      {"friendster_comms", tune::tune(friendster_tune_workload(),
                                      tune::SearchSpace::default_space())},
      {"compute_bound", tune::tune(compute_tune_workload(),
                                   tune::SearchSpace::default_space())},
  };

  Table summary({"workload", "grid_size", "probes", "probe_fraction_pct",
                 "default_ms", "tuned_ms", "speedup_pct", "prunes"});
  for (const Row& row : rows) {
    const tune::ProbeResult& start = row.result.probes.front();
    const tune::ProbeResult& best = row.result.best;
    SCD_REQUIRE(best.objective <= start.objective,
                "tuner finished worse than its starting corner");
    summary.add_row(
        {row.name, static_cast<std::int64_t>(row.result.grid_size),
         static_cast<std::int64_t>(row.result.probes.size()),
         100.0 * row.result.probe_fraction(), 1e3 * start.objective,
         1e3 * best.objective,
         100.0 * (start.objective / best.objective - 1.0),
         static_cast<std::int64_t>(row.result.prunes.size())});
  }
  io.emit(summary, "tune_summary",
          "Tuned vs default objective (per-iteration virtual ms / "
          "progress credit)");

  Table config({"workload", "workers", "threads", "pipeline",
                "minibatch_vertices", "pi_codec", "sparse_eps_bp"});
  for (const Row& row : rows) {
    const tune::TuneConfig& c = row.result.best.config;
    config.add_row({row.name, static_cast<std::int64_t>(c.workers),
                    static_cast<std::int64_t>(c.threads_per_node),
                    static_cast<std::int64_t>(c.pipeline ? 1 : 0),
                    static_cast<std::int64_t>(c.minibatch_vertices),
                    std::string(quant::codec_name(c.pi_codec)),
                    static_cast<std::int64_t>(
                        std::lround(c.sparse_eps * 1e4))});
  }
  io.emit(config, "tuned_configs", "Configurations the tuner settled on");
  return 0;
}
