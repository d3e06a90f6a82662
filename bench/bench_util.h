// Shared helpers for the paper-reproduction benchmark harnesses.
//
// Each bench binary regenerates one table or figure of the paper. The
// harnesses run the distributed sampler in cost-only mode for paper-scale
// configurations (com-Friendster, K up to 12288, 64 workers) and in real
// mode for the convergence studies on the dataset stand-ins. Results are
// printed as aligned tables; pass --csv <dir> to also write CSV series.
#pragma once

#include <cstdio>
#include <string>

#include "core/distributed_sampler.h"
#include "core/hyper.h"
#include "sim/cluster.h"
#include "util/cli.h"
#include "util/error.h"
#include "util/table.h"
#include "util/units.h"

namespace scd::bench {

/// The paper's headline workload: com-Friendster with the Fig. 1
/// minibatch configuration (M = 16384 vertices, n = 32 neighbors).
inline core::PhantomWorkload friendster_workload(
    std::uint32_t minibatch_vertices = 16384) {
  core::PhantomWorkload w;
  w.num_vertices = 65'608'366;
  w.avg_degree = 55.06;
  w.minibatch_vertices = minibatch_vertices;
  // Half as many pairs as vertices — the random-pair relation.
  w.minibatch_pairs = minibatch_vertices / 2;
  w.heldout_pairs = 0;
  return w;
}

/// A DAS5-like cluster of `workers` worker nodes plus the master.
inline sim::SimCluster::Config das5_cluster(unsigned workers) {
  sim::SimCluster::Config config;
  config.num_ranks = workers + 1;
  config.network = comm::NetworkModel{};
  config.compute = sim::das5_node();
  return config;
}

/// Run a cost-only distributed experiment and return the result. The
/// cost-only iteration is deterministic, so `measured_iterations` are
/// executed and scaled to `reported_iterations`.
inline core::DistributedResult run_cost_only(
    unsigned workers, std::uint32_t k, const core::PhantomWorkload& workload,
    std::uint64_t measured_iterations, std::uint64_t reported_iterations,
    bool pipeline = true, std::uint32_t num_neighbors = 32) {
  sim::SimCluster cluster(das5_cluster(workers));
  core::Hyper hyper;
  hyper.num_communities = k;
  core::DistributedOptions options;
  options.base.num_neighbors = num_neighbors;
  options.base.eval_interval = 0;
  options.pipeline = pipeline;
  core::DistributedSampler sampler(cluster, workload, hyper, options);
  core::DistributedResult result = sampler.run(measured_iterations);
  const double scale = static_cast<double>(reported_iterations) /
                       static_cast<double>(measured_iterations);
  result.iterations = reported_iterations;
  result.virtual_seconds *= scale;
  result.critical_path.scale(scale);
  return result;
}

/// Common bench CLI: --csv <dir> writes each table as <dir>/<name>.csv;
/// --json <path> collects every emitted table into one JSON document
/// (written by the destructor, or explicitly via write_json). The JSON
/// form is the committed-baseline format tools/check_bench.py diffs
/// against for regression detection.
struct BenchIo {
  std::string csv_dir;
  std::string json_path;

  bool parse(int argc, const char* const* argv, const std::string& name,
             const std::string& description, ArgParser* extra = nullptr) {
    ArgParser own(name, description);
    ArgParser& parser = extra != nullptr ? *extra : own;
    parser.add_string("csv", &csv_dir,
                      "directory to write CSV output (optional)");
    parser.add_string("json", &json_path,
                      "file to write all tables as one JSON doc (optional)");
    return parser.parse(argc, argv);
  }

  void emit(const Table& table, const std::string& name,
            const std::string& title) {
    std::printf("\n== %s ==\n%s", title.c_str(), table.to_ascii().c_str());
    if (!csv_dir.empty()) {
      table.write_csv(csv_dir + "/" + name + ".csv");
    }
    if (!json_path.empty()) {
      if (!json_body_.empty()) json_body_ += ",\n";
      json_body_ += "  \"" + name + "\": " + table.to_json();
    }
    std::fflush(stdout);
  }

  void write_json() {
    if (json_path.empty() || json_body_.empty()) return;
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    SCD_REQUIRE(f != nullptr, "cannot open '" + json_path + "' for writing");
    std::fprintf(f, "{\n%s\n}\n", json_body_.c_str());
    std::fclose(f);
    json_body_.clear();
  }

  ~BenchIo() { write_json(); }

 private:
  std::string json_body_;
};

}  // namespace scd::bench
