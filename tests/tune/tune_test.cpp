#include "tune/tuner.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>

#include "tune/report.h"

namespace scd::tune {
namespace {

// Two deliberately mis-configured synthetic workloads. The all-zeros
// grid corner (where the tuner starts) is the bad configuration; the
// acceptance criteria below hold the tuner to finding a near-optimal
// one while probing a fraction of the grid.

/// Comms-bound: a large sparse graph with a small minibatch, so the
/// fixed per-iteration collective skew (4 collectives x ~3 ms) dwarfs
/// the per-minibatch compute. The tuner must discover that a bigger M
/// amortizes the synchronization.
TuneWorkload comms_bound_workload() {
  TuneWorkload w;
  w.num_vertices = 1u << 21;
  w.avg_degree = 32.0;
  w.num_communities = 1024;
  w.sat_vertices = 8192.0;
  return w;
}

constexpr auto kFp32 = static_cast<std::uint64_t>(quant::RowCodec::kFloat32);
constexpr auto kInt8 = static_cast<std::uint64_t>(quant::RowCodec::kInt8);

SearchSpace comms_bound_space() {
  SearchSpace s;
  s.dim(Dim::kWorkers) = {2, 4, 8, 16};
  s.dim(Dim::kThreadsPerNode) = {16};
  s.dim(Dim::kPipeline) = {0, 1};
  s.dim(Dim::kMinibatchVertices) = {1024, 2048, 4096, 8192};
  s.dim(Dim::kPiCodec) = {kFp32, kInt8};
  s.dim(Dim::kSparsity) = {0};
  s.validate();
  return s;  // grid: 4 * 1 * 2 * 4 * 2 * 1 = 64
}

/// Compute-bound: many communities on few, single-threaded workers —
/// the phi kernel owns the critical path. The tuner must discover
/// threads and workers, and leave the comm knobs alone.
TuneWorkload compute_bound_workload() {
  TuneWorkload w;
  w.num_vertices = 1u << 18;
  w.avg_degree = 16.0;
  w.num_communities = 4096;
  w.sat_vertices = 2048.0;
  return w;
}

SearchSpace compute_bound_space() {
  SearchSpace s;
  s.dim(Dim::kWorkers) = {2, 4, 8};
  s.dim(Dim::kThreadsPerNode) = {1, 2, 4, 16};
  s.dim(Dim::kPipeline) = {0, 1};
  s.dim(Dim::kMinibatchVertices) = {1024, 4096};
  s.dim(Dim::kPiCodec) = {kFp32, kInt8};
  s.dim(Dim::kSparsity) = {0, 100};
  s.validate();
  return s;  // grid: 3 * 4 * 2 * 2 * 2 * 2 = 192
}

/// Ground truth by brute force: probe every grid point.
double exhaustive_min_objective(const TuneWorkload& workload,
                                const SearchSpace& space) {
  double best = std::numeric_limits<double>::infinity();
  ConfigIndex index{};
  for (;;) {
    best = std::min(best,
                    run_probe(workload, space.materialize(index)).objective);
    // Odometer increment.
    std::size_t d = 0;
    for (; d < kNumDims; ++d) {
      if (++index[d] < space.values[d].size()) break;
      index[d] = 0;
    }
    if (d == kNumDims) return best;
  }
}

void check_acceptance(const TuneWorkload& workload,
                      const SearchSpace& space, const char* label) {
  SCOPED_TRACE(label);
  const TuneResult result = tune(workload, space);

  // The start really is mis-configured: the tuner found something
  // materially better than the all-zeros corner.
  ASSERT_FALSE(result.probes.empty());
  EXPECT_GE(result.probes.front().objective, 1.10 * result.best.objective)
      << "starting config is not mis-configured enough to mean anything";

  // Within 10% of the exhaustive optimum...
  const double optimum = exhaustive_min_objective(workload, space);
  EXPECT_LE(result.best.objective, 1.10 * optimum);

  // ...while probing at most 40% of the grid.
  EXPECT_EQ(result.grid_size, space.grid_size());
  EXPECT_LE(static_cast<double>(result.probes.size()),
            0.40 * static_cast<double>(result.grid_size));

  // Attribution fired and every decision carries its citation.
  EXPECT_FALSE(result.prunes.empty());
  for (const PruneRecord& r : result.prunes) {
    EXPECT_GE(r.round, 1u);
    EXPECT_FALSE(r.decision.rule.empty());
    EXPECT_FALSE(r.decision.cited_share_name.empty());
    EXPECT_FALSE(r.decision.why.empty());
    EXPECT_GT(r.decision.threshold, 0.0);
    EXPECT_GE(r.decision.cited_share, 0.0);
    // The why sentence must actually cite the share: rules quote it as
    // a percentage with one decimal.
    EXPECT_NE(r.decision.why.find('%'), std::string::npos);
  }

  // The why report names every pruned dimension with its share.
  const std::string report = why_report(result);
  for (const PruneRecord& r : result.prunes) {
    EXPECT_NE(report.find(r.decision.rule), std::string::npos)
        << "why report must trace rule " << r.decision.rule;
    EXPECT_NE(report.find(r.decision.cited_share_name), std::string::npos);
  }

  // Bit-stable: a rerun with the same inputs serializes byte-identically.
  const TuneResult rerun = tune(workload, space);
  EXPECT_EQ(tuning_log_json(result), tuning_log_json(rerun));
  EXPECT_EQ(why_report(result), why_report(rerun));
}

TEST(TuneTest, CommsBoundWorkloadMeetsAcceptanceCriteria) {
  check_acceptance(comms_bound_workload(), comms_bound_space(), "comms");
}

TEST(TuneTest, ComputeBoundWorkloadMeetsAcceptanceCriteria) {
  check_acceptance(compute_bound_workload(), compute_bound_space(),
                   "compute");
}

TEST(TuneTest, SearchSpaceMaterializesAndValidates) {
  const SearchSpace s = SearchSpace::default_space();
  EXPECT_EQ(s.grid_size(), 4u * 3 * 2 * 4 * 3 * 3);
  ConfigIndex index{};
  const TuneConfig base = s.materialize(index);
  EXPECT_EQ(base.workers, 4u);
  EXPECT_EQ(base.threads_per_node, 4u);
  EXPECT_FALSE(base.pipeline);
  EXPECT_EQ(base.minibatch_vertices, 2048u);
  EXPECT_EQ(base.pi_codec, quant::RowCodec::kFloat32);
  EXPECT_EQ(base.sparse_eps, 0.0);
  EXPECT_EQ(base.key(),
            "w4 t4 pipe=0 M2048 codec=fp32 seps=0");

  SearchSpace bad = s;
  bad.dim(Dim::kWorkers).clear();
  EXPECT_THROW(bad.validate(), UsageError);
  SearchSpace bad_bool = s;
  bad_bool.dim(Dim::kPipeline) = {0, 2};
  EXPECT_THROW(bad_bool.validate(), UsageError);
  SearchSpace bad_codec = s;
  bad_codec.dim(Dim::kPiCodec) = {quant::kNumCodecs};
  EXPECT_THROW(bad_codec.validate(), UsageError);
  EXPECT_THROW(s.materialize(ConfigIndex{9, 0, 0, 0, 0, 0}), UsageError);
}

// Workloads no probe can price are refused up front, naming the field:
// a non-finite saturation scale would turn every objective into inf/NaN,
// and an average degree past N - 1 (or non-finite) has no graph behind it
// and overflows the modeled adjacency counts.
TEST(TuneTest, ImpossibleWorkloadsAreRefused) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const auto refuses = [](const TuneWorkload& w, const char* field) {
    try {
      w.validate();
    } catch (const UsageError& e) {
      return std::string(e.what()).find(field) != std::string::npos;
    }
    return false;
  };
  for (const double sat : {inf, nan, 0.0, -1.0}) {
    TuneWorkload w;
    w.sat_vertices = sat;
    EXPECT_TRUE(refuses(w, "sat_vertices")) << sat;
  }
  for (const double degree : {inf, nan, 1e300, 0.0, -1.0}) {
    TuneWorkload w;
    w.avg_degree = degree;
    EXPECT_TRUE(refuses(w, "avg_degree")) << degree;
  }
  TuneWorkload w;
  w.num_vertices = 100;
  w.avg_degree = 99.0;  // the complete graph
  EXPECT_NO_THROW(w.validate());
  w.avg_degree = std::nextafter(99.0, inf);
  EXPECT_TRUE(refuses(w, "avg_degree"));
  TuneConfig c;
  c.workers = 2;
  w.avg_degree = 1e300;
  EXPECT_THROW(run_probe(w, c), UsageError);
}

TEST(TuneTest, ProgressCreditSaturates) {
  EXPECT_DOUBLE_EQ(progress(8192.0, 8192.0), 0.5);
  EXPECT_LT(progress(1024.0, 8192.0), progress(16384.0, 8192.0));
  EXPECT_LT(progress(1u << 20, 8192.0), 1.0);
}

TEST(TuneTest, ProbeIsDeterministicAndTiled) {
  const TuneWorkload w = comms_bound_workload();
  TuneConfig c;
  c.workers = 4;
  c.threads_per_node = 16;
  c.pipeline = true;
  c.minibatch_vertices = 4096;
  const ProbeResult a = run_probe(w, c);
  const ProbeResult b = run_probe(w, c);
  EXPECT_EQ(a.virtual_s, b.virtual_s);
  EXPECT_EQ(a.objective, b.objective);
  EXPECT_EQ(a.metrics_json, b.metrics_json);
  for (std::size_t s = 0; s < trace::kNumStages; ++s) {
    EXPECT_EQ(a.on_path_s[s], b.on_path_s[s]);
  }
  // Critical-path buckets tile the probe's virtual time.
  double sum = 0.0;
  for (double s : a.on_path_s) sum += s;
  EXPECT_NEAR(sum, a.virtual_s, 1e-9 * a.virtual_s);
}

// Pruner rules on synthetic attributions: each rule must fire exactly
// on its own signal and cite it.
TEST(TuneTest, PrunerCitesTheShareThatFired) {
  ProbeResult p;
  p.virtual_s = 1.0;
  p.per_iteration_s = 1.0;
  p.config.pipeline = true;
  // 70% collective + 20% phi-compute: sync-bound.
  p.on_path_s[static_cast<std::size_t>(trace::Stage::kCollective)] = 0.7;
  p.on_path_s[static_cast<std::size_t>(trace::Stage::kUpdatePhi)] = 0.2;
  p.phi_compute_s = 0.2;
  p.compute_share = 0.2;
  p.comm_share = 0.7;

  const std::vector<PruneDecision> decisions = prune_directions(p);
  bool saw_sync = false;
  for (const PruneDecision& d : decisions) {
    if (d.rule == "sync-bound-workers-up") {
      saw_sync = true;
      EXPECT_EQ(d.dim, Dim::kWorkers);
      EXPECT_TRUE(d.upward);
      EXPECT_EQ(d.cited_share_name, "sync_share");
      EXPECT_NEAR(d.cited_share, 0.7, 1e-12);
      EXPECT_NEAR(d.threshold, kPruneRules.sync_bound, 1e-12);
      EXPECT_NE(d.why.find("70.0%"), std::string::npos);
    }
  }
  EXPECT_TRUE(saw_sync);
}

TEST(TuneTest, TuningLogIsValidStructuredJson) {
  // Cheap structural checks (full parsing belongs to check_bench's
  // Python); the log must carry every contract field.
  const TuneResult result =
      tune(compute_bound_workload(), compute_bound_space());
  const std::string json = tuning_log_json(result);
  for (const char* field :
       {"\"grid_size\"", "\"probes_run\"", "\"probe_fraction\"",
        "\"rounds\"", "\"best\"", "\"probes\"", "\"prunes\"",
        "\"critical_path\"", "\"metrics\"", "\"objective\"",
        "\"virtual_s\"", "\"config\"", "\"why\"", "\"share\"",
        "\"threshold\"", "\"rule\"", "\"direction\""}) {
    EXPECT_NE(json.find(field), std::string::npos) << field;
  }
  // Stage buckets are keyed by stage name.
  EXPECT_NE(json.find("\"update_phi\""), std::string::npos);
  EXPECT_NE(json.find("\"collective\""), std::string::npos);
}

}  // namespace
}  // namespace scd::tune
