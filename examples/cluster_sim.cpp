// Distributed-run walkthrough: execute the full master/worker algorithm
// on the virtual-time cluster (real inference, modeled time), print the
// per-stage breakdown, and contrast pipelined vs non-pipelined execution
// — a miniature of the paper's Section IV on your laptop.
//
//   ./cluster_sim [--workers 8] [--iterations 6000] [--communities 32]
//               [--seed 5] [--pi-codec fp32|fp16|int8|sparse-topr|...]
//               [--sparse-eps 0.01]
//               [--fault-plan chaos.json] [--trace-out trace.json]
#include <cstdio>
#include <memory>
#include <string>

#include "core/distributed_sampler.h"
#include "fault/fault_plan.h"
#include "quant/row_codec.h"
#include "graph/generator.h"
#include "graph/heldout.h"
#include "sim/cluster.h"
#include "trace/chrome_trace.h"
#include "trace/critical_path.h"
#include "trace/recorder.h"
#include "util/cli.h"
#include "util/table.h"
#include "util/units.h"

using namespace scd;
using comm::Phase;

int main(int argc, char** argv) {
  std::uint64_t workers = 8;
  std::int64_t iterations = 6000;
  std::uint64_t communities = 32;
  std::uint64_t vertices = 1000;
  std::uint64_t seed = 5;
  std::string pi_codec = "fp32";
  double sparse_eps = quant::kDefaultSparseEps;
  std::string fault_plan_path;
  std::string trace_out;
  ArgParser parser("cluster_sim",
                   "distributed sampler on the virtual cluster");
  parser.add_uint("workers", &workers, "simulated worker nodes")
      .add_int("iterations", &iterations, "iterations to run")
      .add_uint("communities", &communities, "inferred K")
      .add_uint("vertices", &vertices, "graph size")
      .add_uint("seed", &seed, "root seed (same seed => same run)")
      .add_string("pi-codec", &pi_codec,
                  "pi row codec in the DKV and on the wire:"
                  " fp32 (exact), fp16, int8, sparse-topr,"
                  " sparse-topr-fp16, or sparse-topr-int8")
      .add_double("sparse-eps", &sparse_eps,
                  "sparse codecs: top-R mass tolerance per row")
      .add_string("fault-plan", &fault_plan_path,
                  "JSON fault schedule to inject (see src/fault)")
      .add_string("trace-out", &trace_out,
                  "trace the pipelined run; write Chrome trace_event"
                  " JSON here (optional)");
  if (!parser.parse(argc, argv)) return 0;

  fault::FaultPlan fault_plan;
  const bool chaos = !fault_plan_path.empty();
  if (chaos) {
    fault_plan = fault::FaultPlan::from_file(fault_plan_path);
    fault_plan.validate(static_cast<unsigned>(workers) + 1);
  }

  rng::Xoshiro256 gen_rng(11);
  const graph::PlantedConfig config = graph::planted_config_for_degree(
      static_cast<graph::Vertex>(vertices),
      static_cast<std::uint32_t>(communities), 20.0);
  const graph::GeneratedGraph g = graph::generate_planted(gen_rng, config);
  rng::Xoshiro256 split_rng(12);
  const graph::HeldOutSplit split(split_rng, g.graph,
                                  g.graph.num_edges() / 20);

  core::Hyper hyper;
  hyper.num_communities = static_cast<std::uint32_t>(communities);
  hyper.delta = core::suggested_delta(g.graph.density());

  // The recorder traces only the pipelined run (the headline mode);
  // tracing never perturbs modeled time, so the comparison stands.
  std::unique_ptr<trace::TraceRecorder> recorder;
  if (!trace_out.empty()) {
    recorder = std::make_unique<trace::TraceRecorder>(
        static_cast<unsigned>(workers) + 1);
  }

  auto run_mode = [&](bool pipeline) {
    sim::SimCluster::Config cluster_config;
    cluster_config.num_ranks = static_cast<unsigned>(workers) + 1;
    sim::SimCluster cluster(cluster_config);
    core::DistributedOptions options;
    options.base.neighbor_mode = core::NeighborMode::kLinkAware;
    options.base.num_neighbors = 16;
    options.base.eval_interval =
        static_cast<std::uint64_t>(iterations) / 4;
    options.base.step.a = 0.03;
    options.base.step.b = 4096;
    options.base.seed = seed;
    options.pipeline = pipeline;
    options.pi_codec = quant::codec_from_name(pi_codec);
    options.sparse_eps = static_cast<float>(sparse_eps);
    if (chaos) options.fault_plan = &fault_plan;
    if (pipeline) options.trace = recorder.get();
    core::DistributedSampler sampler(cluster, split.training(), &split,
                                     hyper, options);
    return sampler.run(static_cast<std::uint64_t>(iterations));
  };

  std::printf("running %lld iterations on %llu workers + master"
              " (virtual DAS5 cluster)...\n",
              static_cast<long long>(iterations),
              static_cast<unsigned long long>(workers));
  const core::DistributedResult pipelined = run_mode(true);
  const core::DistributedResult serial = run_mode(false);

  Table breakdown({"stage", "pipelined_ms_iter", "single_buffer_ms_iter"});
  auto add = [&](const char* name, Phase p) {
    const double iters = static_cast<double>(iterations);
    breakdown.add_row(
        {std::string(name),
         pipelined.critical_path.get(p) / iters * 1e3,
         serial.critical_path.get(p) / iters * 1e3});
  };
  add("draw minibatch (master)", Phase::kDrawMinibatch);
  add("deploy wait (worker)", Phase::kDeployMinibatch);
  add("sample neighbors", Phase::kSampleNeighbors);
  add("load pi (DKV)", Phase::kLoadPi);
  add("update phi", Phase::kUpdatePhi);
  add("update pi", Phase::kUpdatePi);
  add("update beta/theta", Phase::kUpdateBetaTheta);
  add("perplexity", Phase::kPerplexity);
  add("barrier wait", Phase::kBarrierWait);
  std::printf("\n%s", breakdown.to_ascii().c_str());

  std::printf("\nvirtual time: %s pipelined vs %s single-buffered"
              " (%.1f%% saved)\n",
              format_duration(pipelined.virtual_seconds).c_str(),
              format_duration(serial.virtual_seconds).c_str(),
              100.0 * (serial.virtual_seconds - pipelined.virtual_seconds) /
                  serial.virtual_seconds);
  if (chaos) {
    auto fault_summary = [](const char* mode,
                            const core::DistributedResult& r) {
      std::printf("%s: %zu crashed rank(s)", mode, r.crashed_ranks.size());
      for (unsigned rank : r.crashed_ranks) std::printf(" %u", rank);
      std::printf(", %llu iteration(s) redone after recovery\n",
                  static_cast<unsigned long long>(r.redone_iterations));
    };
    fault_summary("pipelined", pipelined);
    fault_summary("single-buffered", serial);
    // Both modes deploy and recover alike, so crashes anchored at an
    // (iteration, point) give them the same numbers; crash *times* are
    // virtual-time triggers, and the two modes run on different virtual
    // clocks, so such crashes may land elsewhere and change the numbers.
    std::printf("perplexity trace (pipelined run):\n");
  } else {
    std::printf("perplexity trace (identical in both modes — pipelining"
                " changes time, not numbers):\n");
  }
  for (const core::HistoryPoint& p : pipelined.history) {
    std::printf("  iter %5llu  virtual %-10s perplexity %.3f\n",
                static_cast<unsigned long long>(p.iteration),
                format_duration(p.seconds).c_str(), p.perplexity);
  }

  if (recorder != nullptr) {
    trace::write_chrome_trace(*recorder, trace_out);
    std::printf("\ntrace of the pipelined run written to %s (%zu spans;"
                " load in Perfetto or chrome://tracing)\n",
                trace_out.c_str(), recorder->total_spans());
    const trace::CriticalPathReport report =
        trace::analyze_critical_path(*recorder);
    std::printf("critical path: %s over %zu step(s)\n",
                format_duration(report.total_s).c_str(),
                report.steps.size());
    std::printf("%s", report.table().to_ascii().c_str());
  }
  return 0;
}
