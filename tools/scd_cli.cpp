// scd — command-line front end to the library.
//
//   scd generate  --out graph.txt [--vertices N --communities K ...]
//   scd info      --graph graph.txt
//   scd fit       --graph graph.txt --communities K [--checkpoint f ...]
//   scd resume    --graph graph.txt --checkpoint f --iterations N
//   scd eval      --communities detected.txt --truth truth.txt
//   scd run       [--backend sim|proc --workers C --iterations N ...]
//   scd simulate  [--workers C --communities K --iterations N ...]
//   scd trace     [--workers C --iterations N --out trace.json ...]
//   scd tune      [--vertices N --communities K --log tune.json ...]
//   scd serve     --checkpoint f [--queries q.txt | --ops N ...]
//
// Every subcommand prints --help. Exit codes: 0 success, 1 usage error,
// 2 runtime/data error. Usage errors (unknown command, unknown flag,
// missing required option) print to stderr and point at --help.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <memory>
#include <string>

#include "core/checkpoint.h"
#include "core/parallel_sampler.h"
#include "fault/fault_plan.h"
#include "core/report.h"
#include "graph/datasets.h"
#include "graph/generator.h"
#include "graph/heldout.h"
#include "graph/metrics.h"
#include "graph/snap_loader.h"
#include "quant/row_codec.h"
#include "proc/proc_cluster.h"
#include "serve/query_engine.h"
#include "serve/serving_index.h"
#include "serve/traffic.h"
#include "sim/cluster.h"
#include "threading/thread_pool.h"
#include "core/distributed_sampler.h"
#include "trace/chrome_trace.h"
#include "trace/critical_path.h"
#include "trace/recorder.h"
#include "tune/report.h"
#include "tune/tuner.h"
#include "util/cli.h"
#include "util/table.h"
#include "util/units.h"

using namespace scd;

namespace {

/// Rank count for `workers` worker ranks plus the master. Refuses the one
/// worker count whose total would wrap to zero.
unsigned num_ranks_for(std::uint32_t workers) {
  if (workers == std::numeric_limits<std::uint32_t>::max()) {
    throw UsageError("--workers must be below 4294967295");
  }
  return workers + 1;
}

int cmd_generate(int argc, const char* const* argv) {
  std::uint32_t vertices = 2000;
  std::uint32_t communities = 32;
  double degree = 16.0;
  double overlap2 = 0.3;
  double overlap3 = 0.1;
  std::uint64_t seed = 1;
  std::string out;
  std::string truth_out;
  ArgParser parser("scd generate",
                   "write a planted-overlap graph as a SNAP edge list");
  parser.add_uint("vertices", &vertices, "graph size N")
      .add_uint("communities", &communities, "planted community count")
      .add_double("degree", &degree, "target average degree")
      .add_double("overlap2", &overlap2, "P(vertex holds 2 memberships)")
      .add_double("overlap3", &overlap3, "P(vertex holds 3 memberships)")
      .add_uint("seed", &seed, "generator seed")
      .add_string("out", &out, "edge-list output path (required)")
      .add_string("truth-out", &truth_out,
                  "ground-truth communities output path (optional)");
  if (!parser.parse(argc, argv)) return 0;
  SCD_REQUIRE(!out.empty(), "--out is required");

  rng::Xoshiro256 rng(seed);
  const graph::PlantedConfig config = graph::planted_config_for_degree(
      vertices, communities, degree, overlap2, overlap3);
  const graph::GeneratedGraph g = graph::generate_planted(rng, config);

  std::ofstream f(out);
  SCD_REQUIRE(f.is_open(), "cannot open --out for writing");
  graph::write_snap_stream(
      f, g.graph,
      "planted-overlap graph: " + std::to_string(g.graph.num_vertices()) +
          " vertices, " + std::to_string(g.graph.num_edges()) + " edges, " +
          std::to_string(communities) + " communities");
  f.close();
  std::printf("wrote %s: %u vertices, %s edges\n", out.c_str(),
              g.graph.num_vertices(),
              format_count(g.graph.num_edges()).c_str());

  if (!truth_out.empty()) {
    std::FILE* t = std::fopen(truth_out.c_str(), "w");
    SCD_REQUIRE(t != nullptr, "cannot open --truth-out for writing");
    for (const auto& members : g.truth.communities) {
      for (std::size_t i = 0; i < members.size(); ++i) {
        std::fprintf(t, "%s%u", i ? "\t" : "", members[i]);
      }
      std::fputc('\n', t);
    }
    std::fclose(t);
    std::printf("wrote %s: %zu communities\n", truth_out.c_str(),
                g.truth.communities.size());
  }
  return 0;
}

int cmd_info(int argc, const char* const* argv) {
  std::string path;
  ArgParser parser("scd info", "summarize a SNAP edge-list graph");
  parser.add_string("graph", &path, "edge-list file (required)");
  if (!parser.parse(argc, argv)) return 0;
  SCD_REQUIRE(!path.empty(), "--graph is required");
  const graph::SnapLoadResult loaded = graph::load_snap_file(path);
  const graph::Graph& g = loaded.graph;
  std::printf("%s\n", path.c_str());
  std::printf("  vertices:    %s\n", format_count(g.num_vertices()).c_str());
  std::printf("  edges:       %s\n", format_count(g.num_edges()).c_str());
  std::printf("  avg degree:  %.2f\n",
              2.0 * double(g.num_edges()) / double(g.num_vertices()));
  std::printf("  max degree:  %s\n", format_count(g.max_degree()).c_str());
  std::printf("  density:     %.3g\n", g.density());
  std::printf("  suggested delta: %.3g\n",
              core::suggested_delta(g.density()));
  return 0;
}

struct FitOptions {
  std::string graph_path;
  std::uint32_t communities = 64;
  std::int64_t iterations = 20000;
  std::uint32_t threads = 4;
  std::uint64_t heldout = 1000;
  double step_a = 0.02;
  std::uint64_t seed = 1;
  std::string checkpoint_out;
  std::string communities_out;

  void add_common(ArgParser& parser) {
    parser.add_string("graph", &graph_path, "edge-list file (required)")
        .add_int("iterations", &iterations, "iterations to run")
        .add_uint("threads", &threads, "worker threads")
        .add_uint("heldout", &heldout, "held-out pair count")
        .add_double("step-a", &step_a, "step size a")
        .add_uint("seed", &seed, "root seed")
        .add_string("checkpoint-out", &checkpoint_out,
                    "write final state here (optional)")
        .add_string("communities-out", &communities_out,
                    "write detected communities here (optional)");
  }
};

void report_and_save(const core::ParallelSampler& sampler,
                     const graph::SnapLoadResult& loaded,
                     const FitOptions& opts, std::uint32_t k) {
  for (const core::HistoryPoint& p : sampler.history()) {
    std::printf("  iter %7llu  %-9s perplexity %.3f\n",
                static_cast<unsigned long long>(p.iteration),
                format_duration(p.seconds).c_str(), p.perplexity);
  }
  if (!opts.checkpoint_out.empty()) {
    core::save_checkpoint_file(opts.checkpoint_out, sampler.checkpoint());
    std::printf("checkpoint written to %s (iteration %llu)\n",
                opts.checkpoint_out.c_str(),
                static_cast<unsigned long long>(sampler.iteration()));
  }
  if (!opts.communities_out.empty()) {
    const core::CommunityReport report = core::extract_communities(
        sampler.pi(), core::default_membership_threshold(k));
    std::FILE* f = std::fopen(opts.communities_out.c_str(), "w");
    SCD_REQUIRE(f != nullptr, "cannot open --communities-out");
    for (const auto& c : report.communities) {
      if (c.empty()) continue;
      for (std::size_t i = 0; i < c.size(); ++i) {
        std::fprintf(f, "%s%llu", i ? "\t" : "",
                     static_cast<unsigned long long>(
                         loaded.original_ids[c[i]]));
      }
      std::fputc('\n', f);
    }
    std::fclose(f);
    std::printf("communities written to %s\n",
                opts.communities_out.c_str());
  }
}

int cmd_fit(int argc, const char* const* argv) {
  FitOptions opts;
  ArgParser parser("scd fit", "train a-MMSB on an edge-list graph");
  parser.add_uint("communities", &opts.communities, "inferred K");
  opts.add_common(parser);
  if (!parser.parse(argc, argv)) return 0;
  SCD_REQUIRE(!opts.graph_path.empty(), "--graph is required");

  const graph::SnapLoadResult loaded =
      graph::load_snap_file(opts.graph_path);
  rng::Xoshiro256 split_rng(opts.seed);
  const graph::HeldOutSplit split(
      split_rng, loaded.graph,
      std::min<std::size_t>(opts.heldout, loaded.graph.num_edges() / 5));

  core::Hyper hyper;
  hyper.num_communities = opts.communities;
  hyper.delta = core::suggested_delta(loaded.graph.density());
  core::SamplerOptions options;
  options.neighbor_mode = core::NeighborMode::kLinkAware;
  options.num_neighbors = 16;
  options.eval_interval = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(opts.iterations) / 10);
  options.step.a = opts.step_a;
  options.step.b = 4096;
  options.seed = opts.seed;

  core::ParallelSampler sampler(split.training(), &split, hyper, options,
                                opts.threads);
  std::printf("training K=%llu on %s (%lld iterations)...\n",
              static_cast<unsigned long long>(opts.communities),
              opts.graph_path.c_str(),
              static_cast<long long>(opts.iterations));
  sampler.run(static_cast<std::uint64_t>(opts.iterations));
  report_and_save(sampler, loaded, opts, hyper.num_communities);
  return 0;
}

int cmd_resume(int argc, const char* const* argv) {
  FitOptions opts;
  std::string checkpoint_in;
  ArgParser parser("scd resume", "continue training from a checkpoint");
  parser.add_string("checkpoint", &checkpoint_in,
                    "checkpoint to resume (required)");
  opts.add_common(parser);
  if (!parser.parse(argc, argv)) return 0;
  SCD_REQUIRE(!opts.graph_path.empty() && !checkpoint_in.empty(),
              "--graph and --checkpoint are required");

  const graph::SnapLoadResult loaded =
      graph::load_snap_file(opts.graph_path);
  const core::Checkpoint checkpoint =
      core::load_checkpoint_file(checkpoint_in);
  rng::Xoshiro256 split_rng(opts.seed);
  const graph::HeldOutSplit split(
      split_rng, loaded.graph,
      std::min<std::size_t>(opts.heldout, loaded.graph.num_edges() / 5));

  core::SamplerOptions options;
  options.neighbor_mode = core::NeighborMode::kLinkAware;
  options.num_neighbors = 16;
  options.eval_interval = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(opts.iterations) / 10);
  options.step.a = opts.step_a;
  options.step.b = 4096;
  options.seed = opts.seed;

  core::ParallelSampler sampler(split.training(), &split,
                                checkpoint.hyper, options,
                                opts.threads);
  sampler.restore(checkpoint);
  std::printf("resumed at iteration %llu; running %lld more...\n",
              static_cast<unsigned long long>(sampler.iteration()),
              static_cast<long long>(opts.iterations));
  sampler.run(static_cast<std::uint64_t>(opts.iterations));
  report_and_save(sampler, loaded, opts,
                  checkpoint.hyper.num_communities);
  return 0;
}

void write_text_file(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  SCD_REQUIRE(f != nullptr, "cannot open '" + path + "' for writing");
  std::fwrite(text.data(), 1, text.size(), f);
  SCD_REQUIRE(std::fclose(f) == 0, "short write to '" + path + "'");
}

/// Shared tail of --trace-out handling: export the Chrome trace and
/// print the critical-path breakdown.
void export_trace(const trace::TraceRecorder& recorder,
                  const std::string& path) {
  trace::write_chrome_trace(recorder, path);
  std::printf("trace written to %s (%zu spans; load in Perfetto or"
              " chrome://tracing)\n",
              path.c_str(), recorder.total_spans());
  const trace::CriticalPathReport report =
      trace::analyze_critical_path(recorder);
  std::printf("critical path: %s over %zu step(s)\n",
              format_duration(report.total_s).c_str(),
              report.steps.size());
  std::printf("%s", report.table().to_ascii().c_str());
}

int cmd_simulate(int argc, const char* const* argv) {
  std::uint32_t workers = 64;
  std::uint32_t communities = 1024;
  std::int64_t iterations = 64;
  std::uint32_t minibatch = 16384;
  std::uint32_t vertices = 1000;
  std::uint64_t seed = 1;
  bool no_pipeline = false;
  std::string pi_codec = "fp32";
  double sparse_eps = quant::kDefaultSparseEps;
  std::string fault_plan_path;
  std::string trace_out;
  ArgParser parser("scd simulate",
                   "cost-only distributed run at com-Friendster scale");
  parser.add_uint("workers", &workers, "cluster size (worker nodes)")
      .add_uint("communities", &communities, "number of communities K")
      .add_int("iterations", &iterations, "iterations to simulate")
      .add_uint("minibatch", &minibatch, "minibatch vertices M")
      .add_uint("seed", &seed, "root seed (same seed => same run)")
      .add_flag("no-pipeline", &no_pipeline, "disable double buffering")
      .add_string("pi-codec", &pi_codec,
                  "pi row codec in the DKV and on the wire:"
                  " fp32 (exact), fp16, int8, sparse-topr,"
                  " sparse-topr-fp16, or sparse-topr-int8")
      .add_double("sparse-eps", &sparse_eps,
                  "sparse codecs: top-R mass tolerance per row"
                  " (smaller = denser rows)")
      .add_string("fault-plan", &fault_plan_path,
                  "JSON fault schedule; switches to a real-inference"
                  " planted-graph chaos run")
      .add_uint("vertices", &vertices,
                "planted graph size (--fault-plan runs only)")
      .add_string("trace-out", &trace_out,
                  "record a virtual-time trace and write it here as"
                  " Chrome trace_event JSON (optional)");
  if (!parser.parse(argc, argv)) return 0;

  sim::SimCluster::Config config;
  config.num_ranks = num_ranks_for(workers);
  sim::SimCluster cluster(config);
  core::Hyper hyper;
  hyper.num_communities = communities;
  core::DistributedOptions options;
  options.pipeline = !no_pipeline;
  options.pi_codec = quant::codec_from_name(pi_codec);
  options.sparse_eps = static_cast<float>(sparse_eps);
  std::unique_ptr<trace::TraceRecorder> recorder;
  if (!trace_out.empty()) {
    recorder = std::make_unique<trace::TraceRecorder>(config.num_ranks);
    options.trace = recorder.get();
  }

  if (!fault_plan_path.empty()) {
    // Fault tolerance needs real inference (recovery replays real
    // numbers), so chaos runs use a planted graph instead of the
    // cost-only phantom workload.
    const fault::FaultPlan plan =
        fault::FaultPlan::from_file(fault_plan_path);
    plan.validate(config.num_ranks);

    rng::Xoshiro256 gen_rng(seed);
    const graph::PlantedConfig planted =
        graph::planted_config_for_degree(vertices, communities, 20.0);
    const graph::GeneratedGraph g =
        graph::generate_planted(gen_rng, planted);
    rng::Xoshiro256 split_rng(seed + 1);
    const graph::HeldOutSplit split(split_rng, g.graph,
                                    g.graph.num_edges() / 20);
    hyper.delta = core::suggested_delta(g.graph.density());
    options.base.neighbor_mode = core::NeighborMode::kLinkAware;
    options.base.num_neighbors = 16;
    options.base.eval_interval = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(iterations) / 4);
    options.base.seed = seed;
    options.fault_plan = &plan;
    core::DistributedSampler sampler(cluster, split.training(), &split,
                                     hyper, options);
    const core::DistributedResult result =
        sampler.run(static_cast<std::uint64_t>(iterations));

    std::printf("chaos run: %llu workers, K=%llu, %u-vertex planted"
                " graph, plan %s, seed %llu\n",
                static_cast<unsigned long long>(workers),
                static_cast<unsigned long long>(communities),
                g.graph.num_vertices(), fault_plan_path.c_str(),
                static_cast<unsigned long long>(seed));
    std::printf("  virtual time: %s  (%zu crashed rank(s), %llu"
                " iteration(s) redone)\n",
                format_duration(result.virtual_seconds).c_str(),
                result.crashed_ranks.size(),
                static_cast<unsigned long long>(result.redone_iterations));
    for (const core::HistoryPoint& p : result.history) {
      std::printf("  iter %5llu  virtual %-10s perplexity %.3f\n",
                  static_cast<unsigned long long>(p.iteration),
                  format_duration(p.seconds).c_str(), p.perplexity);
    }
    if (recorder != nullptr) export_trace(*recorder, trace_out);
    return 0;
  }

  core::PhantomWorkload workload;
  workload.num_vertices = 65'608'366;
  workload.avg_degree = 55.06;
  workload.minibatch_vertices = minibatch;
  workload.minibatch_pairs = minibatch / 2;

  options.base.eval_interval = 0;
  options.base.seed = seed;
  core::DistributedSampler sampler(cluster, workload, hyper, options);
  const core::DistributedResult result =
      sampler.run(static_cast<std::uint64_t>(iterations));

  std::printf("com-Friendster scale, %llu workers, K=%llu, M=%llu,"
              " pipeline=%s, pi-codec=%s\n",
              static_cast<unsigned long long>(workers),
              static_cast<unsigned long long>(communities),
              static_cast<unsigned long long>(minibatch),
              no_pipeline ? "off" : "on",
              quant::codec_name(options.pi_codec));
  std::printf("  virtual time/iteration: %s\n",
              format_duration(result.avg_iteration_seconds).c_str());
  Table table({"stage", "ms_per_iteration"});
  for (std::size_t i = 0; i < comm::kNumPhases; ++i) {
    const auto phase = static_cast<comm::Phase>(i);
    table.add_row({std::string(comm::phase_name(phase)),
                   result.critical_path.get(phase) /
                       double(iterations) * 1e3});
  }
  std::printf("%s", table.to_ascii().c_str());
  if (recorder != nullptr) export_trace(*recorder, trace_out);
  return 0;
}

/// Backend-selectable real-inference run: the same DistributedSampler
/// loops on a planted graph, executed either on the virtual-time
/// simulator or on real forked worker processes (--backend=proc). Same
/// seed + fp32 codec => identical perplexity trajectories on both;
/// only the time column changes meaning (virtual vs wall).
int cmd_run(int argc, const char* const* argv) {
  std::uint32_t workers = 2;
  std::uint32_t vertices = 300;
  std::uint32_t communities = 4;
  std::int64_t iterations = 60;
  std::uint64_t heldout = 200;
  std::uint64_t seed = 1;
  std::uint64_t rollback_interval = 0;
  bool no_pipeline = false;
  std::string backend = "sim";
  std::string pi_codec = "fp32";
  double sparse_eps = quant::kDefaultSparseEps;
  std::string fault_plan_path;
  ArgParser parser("scd run",
                   "real-inference distributed run on a planted graph,"
                   " on the simulated or the multi-process backend");
  parser.add_string("backend", &backend,
                    "execution backend: sim (virtual-time simulator) or"
                    " proc (forked worker processes on this host)")
      .add_uint("workers", &workers, "cluster size (worker ranks)")
      .add_uint("vertices", &vertices, "planted graph size")
      .add_uint("communities", &communities, "number of communities K")
      .add_int("iterations", &iterations, "iterations to run")
      .add_uint("heldout", &heldout, "held-out pair count")
      .add_uint("seed", &seed, "root seed (same seed => same numbers"
                " on both backends)")
      .add_flag("no-pipeline", &no_pipeline, "disable double buffering")
      .add_string("pi-codec", &pi_codec,
                  "pi row codec in the DKV and on the wire: fp32 (exact),"
                  " fp16, int8, sparse-topr, sparse-topr-fp16,"
                  " sparse-topr-int8")
      .add_double("sparse-eps", &sparse_eps,
                  "sparse codecs: top-R mass tolerance per row")
      .add_string("fault-plan", &fault_plan_path,
                  "JSON fault schedule (proc: crash-only plans with"
                  " iteration-triggered crashes)")
      .add_uint("rollback-interval", &rollback_interval,
                "snapshot every N iterations for crash rollback"
                " (0 = off: redo the interrupted iteration in place)");
  if (!parser.parse(argc, argv)) return 0;
  SCD_REQUIRE(backend == "sim" || backend == "proc",
              "unknown --backend '" + backend + "' (want sim or proc)");

  const unsigned num_ranks = num_ranks_for(workers);
  std::unique_ptr<comm::Cluster> cluster;
  if (backend == "proc") {
    proc::ProcCluster::Config config;
    config.num_ranks = num_ranks;
    cluster = std::make_unique<proc::ProcCluster>(config);
  } else {
    sim::SimCluster::Config config;
    config.num_ranks = num_ranks;
    cluster = std::make_unique<sim::SimCluster>(config);
  }

  fault::FaultPlan plan;
  if (!fault_plan_path.empty()) {
    plan = fault::FaultPlan::from_file(fault_plan_path);
    plan.validate(num_ranks);
  }

  rng::Xoshiro256 gen_rng(seed);
  const graph::PlantedConfig planted =
      graph::planted_config_for_degree(vertices, communities, 20.0);
  const graph::GeneratedGraph g = graph::generate_planted(gen_rng, planted);
  rng::Xoshiro256 split_rng(seed + 1);
  const graph::HeldOutSplit split(
      split_rng, g.graph,
      std::min<std::size_t>(heldout, g.graph.num_edges() / 5));

  core::Hyper hyper;
  hyper.num_communities = communities;
  hyper.delta = core::suggested_delta(g.graph.density());
  core::DistributedOptions options;
  options.pipeline = !no_pipeline;
  options.pi_codec = quant::codec_from_name(pi_codec);
  options.sparse_eps = static_cast<float>(sparse_eps);
  options.rollback_interval = rollback_interval;
  if (!fault_plan_path.empty()) options.fault_plan = &plan;
  options.base.neighbor_mode = core::NeighborMode::kLinkAware;
  options.base.num_neighbors = 16;
  options.base.eval_interval = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(iterations) / 4);
  options.base.seed = seed;

  core::DistributedSampler sampler(*cluster, split.training(), &split,
                                   hyper, options);
  const core::DistributedResult result =
      sampler.run(static_cast<std::uint64_t>(iterations));

  const char* clock_kind = backend == "proc" ? "wall" : "virtual";
  std::printf("%s backend: %llu workers, K=%llu, %u-vertex planted"
              " graph, pi-codec=%s, seed %llu\n",
              backend.c_str(), static_cast<unsigned long long>(workers),
              static_cast<unsigned long long>(communities),
              g.graph.num_vertices(), quant::codec_name(options.pi_codec),
              static_cast<unsigned long long>(seed));
  std::printf("  %s time: %s  (%.1f iterations/s", clock_kind,
              format_duration(result.virtual_seconds).c_str(),
              static_cast<double>(iterations) /
                  std::max(result.virtual_seconds, 1e-12));
  if (!result.crashed_ranks.empty()) {
    std::printf("; %zu crashed rank(s), %llu iteration(s) redone",
                result.crashed_ranks.size(),
                static_cast<unsigned long long>(result.redone_iterations));
  }
  std::printf(")\n");
  for (const core::HistoryPoint& p : result.history) {
    std::printf("  iter %5llu  %s %-10s perplexity %.6f\n",
                static_cast<unsigned long long>(p.iteration), clock_kind,
                format_duration(p.seconds).c_str(), p.perplexity);
  }
  Table table({"phase", "ms_per_iteration"});
  const comm::PhaseStats stats = cluster->max_stats();
  for (std::size_t i = 0; i < comm::kNumPhases; ++i) {
    const auto phase = static_cast<comm::Phase>(i);
    table.add_row({std::string(comm::phase_name(phase)),
                   stats.get(phase) / double(iterations) * 1e3});
  }
  std::printf("%s", table.to_ascii().c_str());
  return 0;
}

/// Trace-first front end: a short simulated run with the recorder always
/// installed, reporting the per-stage summary, metrics, and critical
/// path (and optionally the Chrome trace file).
int cmd_trace(int argc, const char* const* argv) {
  std::uint32_t workers = 4;
  std::uint32_t communities = 256;
  std::int64_t iterations = 16;
  std::uint32_t minibatch = 4096;
  std::uint64_t seed = 1;
  bool no_pipeline = false;
  std::string out;
  std::string metrics_out;
  ArgParser parser("scd trace",
                   "trace a simulated distributed run and analyze its"
                   " critical path");
  parser.add_uint("workers", &workers, "cluster size (worker nodes)")
      .add_uint("communities", &communities, "number of communities K")
      .add_int("iterations", &iterations, "iterations to simulate")
      .add_uint("minibatch", &minibatch, "minibatch vertices M")
      .add_uint("seed", &seed, "root seed (same seed => same run)")
      .add_flag("no-pipeline", &no_pipeline, "disable double buffering")
      .add_string("out", &out,
                  "Chrome trace_event JSON output path (optional)")
      .add_string("metrics-out", &metrics_out,
                  "metrics snapshot JSON output path (optional)");
  if (!parser.parse(argc, argv)) return 0;

  sim::SimCluster::Config config;
  config.num_ranks = num_ranks_for(workers);
  sim::SimCluster cluster(config);
  core::Hyper hyper;
  hyper.num_communities = communities;
  core::PhantomWorkload workload;
  workload.num_vertices = 65'608'366;
  workload.avg_degree = 55.06;
  workload.minibatch_vertices = minibatch;
  workload.minibatch_pairs = minibatch / 2;

  trace::TraceRecorder recorder(config.num_ranks);
  core::DistributedOptions options;
  options.pipeline = !no_pipeline;
  options.base.eval_interval = 0;
  options.base.seed = seed;
  options.trace = &recorder;
  core::DistributedSampler sampler(cluster, workload, hyper, options);
  const core::DistributedResult result =
      sampler.run(static_cast<std::uint64_t>(iterations));

  std::printf("traced %lld iteration(s), %llu workers, K=%llu:"
              " virtual time %s\n",
              static_cast<long long>(iterations),
              static_cast<unsigned long long>(workers),
              static_cast<unsigned long long>(communities),
              format_duration(result.virtual_seconds).c_str());
  std::printf("\nper-stage span summary:\n%s",
              recorder.summary_table().to_ascii().c_str());
  std::printf("\nmetrics (totals with per-rank min/max):\n%s",
              recorder.metrics().table().to_ascii().c_str());
  const trace::CriticalPathReport report =
      trace::analyze_critical_path(recorder);
  std::printf("\ncritical path: %s over %zu step(s)\n",
              format_duration(report.total_s).c_str(),
              report.steps.size());
  std::printf("%s", report.table().to_ascii().c_str());
  if (!out.empty()) {
    trace::write_chrome_trace(recorder, out);
    std::printf("\ntrace written to %s (%zu spans; load in Perfetto or"
                " chrome://tracing)\n",
                out.c_str(), recorder.total_spans());
  }
  if (!metrics_out.empty()) {
    write_text_file(metrics_out, recorder.metrics().to_json() + "\n");
    std::printf("\nmetrics written to %s\n", metrics_out.c_str());
  }
  return 0;
}

/// Trace-attributed autotuner: search the configuration grid with short
/// deterministic simulated probes, pruning directions the critical-path
/// attribution rules out, and explain every decision.
int cmd_tune(int argc, const char* const* argv) {
  std::uint64_t vertices = 1'000'000;
  double avg_degree = 32.0;
  std::uint32_t communities = 1024;
  std::uint32_t neighbors = 32;
  std::uint64_t probe_iterations = 6;
  std::uint64_t seed = 1;
  double sat_vertices = 8192.0;
  std::string log_out;
  std::string report_out;
  ArgParser parser("scd tune",
                   "search rank/thread/pipeline/minibatch/codec settings"
                   " with attributed simulated probes");
  parser.add_uint("vertices", &vertices, "workload graph size N")
      .add_double("avg-degree", &avg_degree, "workload average degree")
      .add_uint("communities", &communities, "number of communities K")
      .add_uint("neighbors", &neighbors, "neighbor sample size |V_n|")
      .add_uint("probe-iterations", &probe_iterations,
                "iterations per probe")
      .add_uint("seed", &seed, "root seed (same seed => same output)")
      .add_double("sat-vertices", &sat_vertices,
                  "minibatch saturation scale of the objective")
      .add_string("log", &log_out,
                  "machine-readable JSON tuning log path (optional)")
      .add_string("report", &report_out,
                  "human-readable why-report path (optional)");
  if (!parser.parse(argc, argv)) return 0;

  tune::TuneWorkload workload;
  workload.num_vertices = vertices;
  workload.avg_degree = avg_degree;
  workload.num_communities = communities;
  workload.num_neighbors = neighbors;
  workload.probe_iterations = probe_iterations;
  workload.seed = seed;
  workload.sat_vertices = sat_vertices;

  const tune::TuneResult result =
      tune::tune(workload, tune::SearchSpace::default_space());

  const std::string report = tune::why_report(result);
  std::fputs(report.c_str(), stdout);
  if (!log_out.empty()) {
    write_text_file(log_out, tune::tuning_log_json(result));
    std::printf("\ntuning log written to %s (%zu probes)\n",
                log_out.c_str(), result.probes.size());
  }
  if (!report_out.empty()) {
    write_text_file(report_out, report);
    std::printf("why-report written to %s\n", report_out.c_str());
  }
  return 0;
}

/// Serving front end: build a ServingIndex from a checkpoint, then either
/// answer a scripted query file or drive the seeded synthetic load
/// generator and report throughput/latency.
int cmd_serve(int argc, const char* const* argv) {
  std::string checkpoint_path;
  std::string queries_path;
  std::uint64_t ops = 100'000;
  std::uint32_t threads = 4;
  std::uint32_t top_k = 8;
  std::uint32_t members_k = 16;
  std::uint32_t top_r = 32;
  std::uint32_t refreshes = 0;
  std::uint64_t seed = 1;
  double zipf = 0.99;
  double mix_top = 0.70;
  double mix_link = 0.25;
  double mix_members = 0.05;
  std::string refresh_codec = "fp32";
  bool json = false;
  ArgParser parser("scd serve",
                   "serve membership queries from a checkpoint: run a"
                   " query script, or a Zipf-skewed synthetic load with"
                   " optional mid-load snapshot refreshes");
  parser.add_string("checkpoint", &checkpoint_path,
                    "checkpoint to serve (required)")
      .add_string("queries", &queries_path,
                  "query script (`top u k` / `link u v` / `members c k`"
                  " lines); replaces the synthetic load")
      .add_uint("ops", &ops, "synthetic load: total queries")
      .add_uint("threads", &threads, "query worker threads")
      .add_double("zipf", &zipf, "node popularity Zipf exponent"
                  " (0 = uniform)")
      .add_double("mix-top", &mix_top, "share of top-community queries")
      .add_double("mix-link", &mix_link, "share of link-probability queries")
      .add_double("mix-members", &mix_members, "share of member queries")
      .add_uint("top-k", &top_k, "k of synthetic top queries")
      .add_uint("members-k", &members_k, "k of synthetic member queries")
      .add_uint("top-r", &top_r, "per-node top list capacity R")
      .add_uint("refreshes", &refreshes,
                "snapshot refreshes to publish mid-load")
      .add_string("refresh-codec", &refresh_codec,
                  "checkpoint codec of the refresh round-trip: fp32,"
                  " fp16, int8, sparse-topr, sparse-topr-fp16,"
                  " sparse-topr-int8")
      .add_uint("seed", &seed, "load generator seed")
      .add_flag("json", &json, "print the load report as JSON");
  if (!parser.parse(argc, argv)) return 0;
  SCD_REQUIRE(!checkpoint_path.empty(), "--checkpoint is required");

  core::Checkpoint checkpoint = core::load_checkpoint_file(checkpoint_path);
  serve::ServingIndexOptions index_options;
  index_options.top_r = top_r;
  threading::ThreadPool build_pool(threads);
  serve::ServingSnapshots snapshots;
  const auto build_begin = std::chrono::steady_clock::now();
  snapshots.publish(serve::build_serving_index(std::move(checkpoint),
                                               index_options, build_pool));
  const double build_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - build_begin)
          .count();

  std::uint32_t n = 0;
  std::uint32_t k = 0;
  std::uint64_t inverted = 0;
  std::size_t bytes = 0;
  {
    const serve::ServingSnapshots::Ref index = snapshots.acquire();
    n = index->num_vertices();
    k = index->num_communities();
    inverted = index->inverted_entries();
    bytes = index->index_bytes();
  }
  if (!json) {
    std::printf("serving %s: %s vertices, %u communities, top-%llu index"
                " (%s inverted entries, %s, built in %s)\n",
                checkpoint_path.c_str(), format_count(n).c_str(), k,
                static_cast<unsigned long long>(
                    std::min<std::uint64_t>(top_r, k)),
                format_count(inverted).c_str(),
                format_bytes(bytes).c_str(),
                format_duration(build_ms / 1e3).c_str());
  }

  if (!queries_path.empty()) {
    const std::vector<serve::ScriptedQuery> queries =
        serve::load_query_script(queries_path);
    serve::QueryEngine engine(snapshots);
    for (const serve::ScriptedQuery& q : queries) {
      switch (q.kind) {
        case serve::QueryKind::kTop: {
          std::printf("top %u:", q.a);
          for (const serve::TopEntry& e :
               engine.top_communities(q.a, q.b)) {
            std::printf(" %u:%.4f", e.community, double(e.weight));
          }
          std::printf("\n");
          break;
        }
        case serve::QueryKind::kLink:
          std::printf("link %u %u: %.6f\n", q.a, q.b,
                      engine.link_probability(q.a, q.b));
          break;
        case serve::QueryKind::kMembers: {
          std::printf("members %u:", q.a);
          for (const serve::MemberEntry& e :
               engine.community_members(q.a, q.b)) {
            std::printf(" %u:%.4f", e.vertex, double(e.weight));
          }
          std::printf("\n");
          break;
        }
      }
    }
    return 0;
  }

  serve::TrafficOptions traffic;
  traffic.ops = ops;
  traffic.threads = threads;
  traffic.zipf_s = zipf;
  traffic.mix_top = mix_top;
  traffic.mix_link = mix_link;
  traffic.mix_members = mix_members;
  traffic.top_k = top_k;
  traffic.members_k = members_k;
  traffic.seed = seed;
  traffic.refreshes = refreshes;
  traffic.refresh_codec = quant::codec_from_name(refresh_codec);
  const serve::TrafficReport report = serve::run_traffic(snapshots, traffic);

  if (json) {
    std::printf(
        "{\"checkpoint\": \"%s\", \"vertices\": %u, \"communities\": %u,"
        " \"top_r\": %llu, \"build_ms\": %.3f, \"ops\": %llu,"
        " \"ops_top\": %llu, \"ops_link\": %llu, \"ops_members\": %llu,"
        " \"threads\": %llu, \"qps\": %.1f, \"p50_us\": %.2f,"
        " \"p95_us\": %.2f, \"p99_us\": %.2f, \"max_us\": %.2f,"
        " \"refreshes\": %llu, \"acquire_retries\": %llu,"
        " \"reader_stalls\": %llu, \"checksum\": %.17g}\n",
        checkpoint_path.c_str(), n, k,
        static_cast<unsigned long long>(std::min<std::uint64_t>(top_r, k)),
        build_ms, static_cast<unsigned long long>(report.ops),
        static_cast<unsigned long long>(report.ops_top),
        static_cast<unsigned long long>(report.ops_link),
        static_cast<unsigned long long>(report.ops_members),
        static_cast<unsigned long long>(threads), report.qps,
        report.p50_us, report.p95_us, report.p99_us, report.max_us,
        static_cast<unsigned long long>(report.refreshes),
        static_cast<unsigned long long>(report.acquire_retries),
        static_cast<unsigned long long>(report.reader_stalls),
        report.checksum);
  } else {
    std::printf("%llu queries (%llu top / %llu link / %llu members),"
                " %llu thread(s), %llu refresh(es)\n",
                static_cast<unsigned long long>(report.ops),
                static_cast<unsigned long long>(report.ops_top),
                static_cast<unsigned long long>(report.ops_link),
                static_cast<unsigned long long>(report.ops_members),
                static_cast<unsigned long long>(threads),
                static_cast<unsigned long long>(report.refreshes));
    std::printf("  throughput: %.0f queries/s over %s\n", report.qps,
                format_duration(report.wall_s).c_str());
    std::printf("  latency:    p50 %.1fus  p95 %.1fus  p99 %.1fus"
                "  max %.1fus\n",
                report.p50_us, report.p95_us, report.p99_us,
                report.max_us);
    std::printf("  snapshots:  %llu acquire retries, %llu reader"
                " stalls\n",
                static_cast<unsigned long long>(report.acquire_retries),
                static_cast<unsigned long long>(report.reader_stalls));
  }
  return 0;
}

int cmd_eval(int argc, const char* const* argv) {
  std::string detected_path;
  std::string truth_path;
  ArgParser parser("scd eval",
                   "score detected communities against ground truth");
  parser.add_string("communities", &detected_path,
                    "detected cover file (required)")
      .add_string("truth", &truth_path,
                  "ground-truth cover file (required)");
  if (!parser.parse(argc, argv)) return 0;
  SCD_REQUIRE(!detected_path.empty() && !truth_path.empty(),
              "--communities and --truth are required");
  const graph::Cover detected = graph::load_cover_file(detected_path);
  const graph::Cover truth = graph::load_cover_file(truth_path);
  std::size_t detected_nonempty = 0;
  for (const auto& c : detected) {
    if (!c.empty()) ++detected_nonempty;
  }
  std::printf("truth:    %zu communities\n", truth.size());
  std::printf("detected: %zu communities\n", detected_nonempty);
  std::printf("best-match F1: %.4f\n",
              graph::best_match_f1(truth, detected));
  return 0;
}

void print_usage(std::FILE* out) {
  std::fputs(
      "scd — scalable overlapping community detection\n"
      "usage: scd <command> [options]\n\n"
      "commands:\n"
      "  generate   write a planted-overlap graph as a SNAP edge list\n"
      "  info       summarize an edge-list graph\n"
      "  fit        train a-MMSB on an edge-list graph\n"
      "  eval       score detected communities against ground truth\n"
      "  resume     continue training from a checkpoint\n"
      "  run        real-inference distributed run on the simulated or"
      " multi-process backend\n"
      "  serve      serve membership queries from a checkpoint\n"
      "  simulate   cost-only distributed run on the virtual cluster\n"
      "  trace      trace a simulated run; report its critical path\n"
      "  tune       autotune cluster/sampler knobs with attributed"
      " probes\n\n"
      "run `scd <command> --help` for the command's options.\n",
      out);
}

}  // namespace

int main(int argc, char** argv) {
  // Exit-code/stream contract, uniform across subcommands: requested
  // help goes to stdout and exits 0; any usage problem (no command,
  // unknown command, unknown or malformed flag, missing required
  // option) diagnoses on stderr and exits 1; runtime/data errors exit 2.
  if (argc < 2) {
    std::fprintf(stderr, "error: no command given\n\n");
    print_usage(stderr);
    return 1;
  }
  if (std::strcmp(argv[1], "--help") == 0 ||
      std::strcmp(argv[1], "-h") == 0) {
    print_usage(stdout);
    return 0;
  }
  const std::string command = argv[1];
  const int sub_argc = argc - 1;
  const char* const* sub_argv = argv + 1;
  try {
    if (command == "generate") return cmd_generate(sub_argc, sub_argv);
    if (command == "info") return cmd_info(sub_argc, sub_argv);
    if (command == "fit") return cmd_fit(sub_argc, sub_argv);
    if (command == "resume") return cmd_resume(sub_argc, sub_argv);
    if (command == "eval") return cmd_eval(sub_argc, sub_argv);
    if (command == "serve") return cmd_serve(sub_argc, sub_argv);
    if (command == "run") return cmd_run(sub_argc, sub_argv);
    if (command == "simulate") return cmd_simulate(sub_argc, sub_argv);
    if (command == "trace") return cmd_trace(sub_argc, sub_argv);
    if (command == "tune") return cmd_tune(sub_argc, sub_argv);
    std::fprintf(stderr, "error: unknown command '%s'\n\n",
                 command.c_str());
    print_usage(stderr);
    return 1;
  } catch (const UsageError& e) {
    std::fprintf(stderr, "error: %s\nrun `scd %s --help` for usage.\n",
                 e.what(), command.c_str());
    return 1;
  } catch (const Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
}
