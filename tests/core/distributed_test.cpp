#include "core/distributed_sampler.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <type_traits>
#include <vector>

#include "core/parallel_sampler.h"
#include "sim/cluster.h"
#include "tests/core/test_fixtures.h"

namespace scd::core {
namespace {

using testing::small_planted_fixture;

sim::SimCluster::Config cluster_config(unsigned workers) {
  sim::SimCluster::Config config;
  config.num_ranks = workers + 1;
  return config;
}

// ctest names each case after the raw bytes of its parameter, so the
// struct has no padding: `name_bytes` fills the bytes after `pipeline`,
// whose contents would otherwise change from run to run. Its values keep
// the case names the suite has always listed.
struct EquivParam {
  unsigned workers;
  bool pipeline;
  std::uint8_t name_bytes[3];
};
static_assert(std::has_unique_object_representations_v<EquivParam>);

class DistributedEquivalenceTest
    : public ::testing::TestWithParam<EquivParam> {};

// The headline integration property: the distributed sampler on any
// worker count, pipelined or not, reproduces the single-thread
// ParallelSampler trajectory to within the tolerances below (virtual
// time differs). The two fold the theta ratios in different orders, so
// they are not bit-equal in general (ROADMAP item 1).
TEST_P(DistributedEquivalenceTest, MatchesSequentialTrajectory) {
  const auto& [workers, pipeline, name_bytes] = GetParam();
  auto f = small_planted_fixture(1618, 150, 4, 80);
  f.options.eval_interval = 20;

  ParallelSampler single(f.split->training(), f.split.get(), f.hyper,
                         f.options, 1);
  single.run(60);

  sim::SimCluster cluster(cluster_config(workers));
  DistributedOptions options;
  options.base = f.options;
  options.pipeline = pipeline;
  options.chunk_vertices = 8;
  DistributedSampler dist(cluster, f.split->training(), f.split.get(),
                          f.hyper, options);
  const DistributedResult result = dist.run(60);

  ASSERT_EQ(result.history.size(), single.history().size());
  for (std::size_t i = 0; i < result.history.size(); ++i) {
    EXPECT_EQ(result.history[i].iteration, single.history()[i].iteration);
    EXPECT_NEAR(result.history[i].perplexity,
                single.history()[i].perplexity,
                1e-6 * single.history()[i].perplexity)
        << "eval point " << i;
  }
  for (std::uint32_t k = 0; k < f.hyper.num_communities; ++k) {
    EXPECT_NEAR(dist.global().beta(k), single.global().beta(k), 1e-6);
  }
  const PiMatrix snapshot = dist.snapshot_pi();
  const PiMatrix& ps = single.pi();
  for (std::uint32_t v = 0; v < ps.num_vertices(); ++v) {
    for (std::uint32_t k = 0; k < ps.num_communities(); ++k) {
      ASSERT_NEAR(snapshot.pi(v, k), ps.pi(v, k), 1e-5) << "v=" << v;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Topologies, DistributedEquivalenceTest,
    ::testing::Values(EquivParam{1, true, {0x00, 0x00, 0x00}},
                      EquivParam{2, true, {0xFF, 0xFF, 0xFF}},
                      EquivParam{4, true, {0x00, 0x00, 0x00}},
                      EquivParam{4, false, {0x55, 0x00, 0x00}},
                      EquivParam{7, true, {0x7F, 0x00, 0x00}}));

TEST(DistributedSamplerTest, PipeliningReducesVirtualTimeNotNumbers) {
  auto f = small_planted_fixture(2020, 150, 4, 80);
  f.options.eval_interval = 30;

  auto run_mode = [&](bool pipeline) {
    sim::SimCluster cluster(cluster_config(4));
    DistributedOptions options;
    options.base = f.options;
    options.pipeline = pipeline;
    options.chunk_vertices = 4;
    DistributedSampler dist(cluster, f.split->training(), f.split.get(),
                            f.hyper, options);
    return dist.run(60);
  };
  const DistributedResult with = run_mode(true);
  const DistributedResult without = run_mode(false);

  ASSERT_EQ(with.history.size(), without.history.size());
  for (std::size_t i = 0; i < with.history.size(); ++i) {
    EXPECT_NEAR(with.history[i].perplexity, without.history[i].perplexity,
                1e-9 * without.history[i].perplexity);
  }
  EXPECT_LT(with.virtual_seconds, without.virtual_seconds);
}

TEST(DistributedSamplerTest, PhaseStatsCoverTheIteration) {
  auto f = small_planted_fixture(7, 120, 4, 60);
  f.options.eval_interval = 0;
  sim::SimCluster cluster(cluster_config(3));
  DistributedOptions options;
  options.base = f.options;
  DistributedSampler dist(cluster, f.split->training(), f.split.get(),
                          f.hyper, options);
  const DistributedResult result = dist.run(20);
  const comm::PhaseStats& cp = result.critical_path;
  EXPECT_GT(cp.get(comm::Phase::kLoadPi), 0.0);
  EXPECT_GT(cp.get(comm::Phase::kUpdatePhi), 0.0);
  EXPECT_GT(cp.get(comm::Phase::kUpdatePi), 0.0);
  EXPECT_GT(cp.get(comm::Phase::kUpdateBetaTheta), 0.0);
  EXPECT_GT(cp.get(comm::Phase::kDrawMinibatch), 0.0);
  EXPECT_GT(result.virtual_seconds, 0.0);
  EXPECT_GT(result.avg_iteration_seconds, 0.0);
}

TEST(DistributedSamplerTest, CostOnlyModeNeedsNoGraphAndScales) {
  PhantomWorkload workload;
  workload.num_vertices = 65'608'366;  // com-Friendster
  workload.avg_degree = 55.0;
  workload.minibatch_vertices = 16384;
  workload.minibatch_pairs = 8192;
  workload.heldout_pairs = 0;
  Hyper hyper;
  hyper.num_communities = 1024;

  auto run_with_workers = [&](unsigned workers) {
    sim::SimCluster cluster(cluster_config(workers));
    DistributedOptions options;
    options.base.eval_interval = 0;
    DistributedSampler dist(cluster, workload, hyper, options);
    return dist.run(8);
  };
  const DistributedResult small = run_with_workers(8);
  const DistributedResult large = run_with_workers(64);
  // Strong scaling: more workers -> less virtual time per iteration.
  EXPECT_LT(large.avg_iteration_seconds, small.avg_iteration_seconds);
  EXPECT_GT(small.avg_iteration_seconds, 0.0);
}

// A phantom average degree must describe a graph on N vertices: the
// cost-only deploy prices M/W * avg_degree adjacency entries as an
// integer count, which a non-finite or huge degree would overflow.
TEST(DistributedSamplerTest, CostOnlyRefusesImpossibleAverageDegree) {
  PhantomWorkload workload;
  workload.num_vertices = 1000;
  workload.minibatch_vertices = 64;
  workload.minibatch_pairs = 32;
  Hyper hyper;
  hyper.num_communities = 8;
  DistributedOptions options;
  options.base.eval_interval = 0;
  sim::SimCluster cluster(cluster_config(2));
  for (const double degree :
       {std::numeric_limits<double>::infinity(),
        std::numeric_limits<double>::quiet_NaN(), 1e300, 1000.0, -1.0}) {
    workload.avg_degree = degree;
    try {
      DistributedSampler(cluster, workload, hyper, options);
      ADD_FAILURE() << "avg_degree " << degree << " was accepted";
    } catch (const scd::UsageError& e) {
      EXPECT_NE(std::string(e.what()).find("avg_degree"), std::string::npos)
          << e.what();
    }
  }
  for (const double degree : {0.0, 999.0}) {
    workload.avg_degree = degree;
    sim::SimCluster fresh(cluster_config(2));
    DistributedSampler dist(fresh, workload, hyper, options);
    EXPECT_GT(dist.run(1).avg_iteration_seconds, 0.0) << degree;
  }
}

TEST(DistributedSamplerTest, CostOnlyTimesTrackRealTimes) {
  // Same workload executed real vs phantom: virtual time per iteration
  // should agree within a modest tolerance (the phantom uses expected
  // locality and average degrees).
  auto f = small_planted_fixture(909, 600, 4, 60);
  f.options.eval_interval = 0;
  f.options.minibatch.strategy = graph::MinibatchStrategy::kRandomPair;
  f.options.minibatch.num_pairs = 48;
  f.options.num_neighbors = 16;

  constexpr unsigned kWorkers = 4;
  constexpr std::uint64_t kIters = 24;

  sim::SimCluster real_cluster(cluster_config(kWorkers));
  DistributedOptions options;
  options.base = f.options;
  DistributedSampler real_sampler(real_cluster, f.split->training(),
                                  f.split.get(), f.hyper, options);
  const DistributedResult real_result = real_sampler.run(kIters);

  PhantomWorkload workload;
  workload.num_vertices = f.split->training().num_vertices();
  workload.avg_degree =
      2.0 * double(f.split->training().num_edges()) /
      double(f.split->training().num_vertices());
  // 48 random pairs touch ~96 distinct vertices on a 600-vertex graph.
  workload.minibatch_vertices = 92;
  workload.minibatch_pairs = 48;
  workload.heldout_pairs = 0;
  sim::SimCluster phantom_cluster(cluster_config(kWorkers));
  DistributedSampler phantom(phantom_cluster, workload, f.hyper, options);
  const DistributedResult phantom_result = phantom.run(kIters);

  EXPECT_NEAR(phantom_result.avg_iteration_seconds,
              real_result.avg_iteration_seconds,
              0.25 * real_result.avg_iteration_seconds);
}


TEST(DistributedSamplerTest, LinkAwareModeAlsoMatchesSequential) {
  auto f = small_planted_fixture(2468, 150, 4, 80);
  f.options.eval_interval = 20;
  f.options.neighbor_mode = NeighborMode::kLinkAware;

  ParallelSampler single(f.split->training(), f.split.get(), f.hyper,
                         f.options, 1);
  single.run(40);

  sim::SimCluster cluster(cluster_config(3));
  DistributedOptions options;
  options.base = f.options;
  options.chunk_vertices = 8;
  DistributedSampler dist(cluster, f.split->training(), f.split.get(),
                          f.hyper, options);
  const DistributedResult result = dist.run(40);

  ASSERT_EQ(result.history.size(), single.history().size());
  for (std::size_t i = 0; i < result.history.size(); ++i) {
    EXPECT_NEAR(result.history[i].perplexity,
                single.history()[i].perplexity,
                1e-6 * single.history()[i].perplexity);
  }
}

// The store image is built on a transient pool, from the per-vertex
// streams ParallelSampler draws (a fresh run) or from the checkpoint's
// rows (resume_from): either way it is ParallelSampler's pi, byte for
// byte. K = 16 puts 64 rows in a claim, so N = 600 spreads over threads.
TEST(DistributedSamplerTest, StoreImageMatchesParallelSamplerPi) {
  using testing::pi_bits;
  auto f = small_planted_fixture(2718, 600, 16, 80);
  ParallelSampler local(f.split->training(), f.split.get(), f.hyper,
                        f.options, 3);
  const std::vector<std::uint32_t> initial = pi_bits(local.pi());
  local.run(10);
  const Checkpoint cp = local.checkpoint();
  const std::vector<std::uint32_t> resumed = pi_bits(cp.pi);
  for (const unsigned workers : {1u, 2u, 4u}) {
    for (const bool resume : {false, true}) {
      sim::SimCluster cluster(cluster_config(workers));
      DistributedOptions options;
      options.base = f.options;
      options.resume_from = resume ? &cp : nullptr;
      DistributedSampler dist(cluster, f.split->training(), f.split.get(),
                              f.hyper, options);
      EXPECT_EQ(pi_bits(dist.snapshot_pi()), resume ? resumed : initial)
          << "W=" << workers << (resume ? " resume_from" : " fresh");
    }
  }
}

TEST(DistributedSamplerTest, RunIsOneShot) {
  auto f = small_planted_fixture(3, 80, 3, 40);
  sim::SimCluster cluster(cluster_config(2));
  DistributedOptions options;
  options.base = f.options;
  DistributedSampler dist(cluster, f.split->training(), f.split.get(),
                          f.hyper, options);
  dist.run(2);
  EXPECT_THROW(dist.run(2), scd::UsageError);
}

// On the sim backend a worker whose phi step diverges refuses it; the
// cluster stops the other ranks and run() rethrows the worker's
// UsageError, which names the iteration.
TEST(DistributedSamplerTest, DivergingStepIsRefusedNamingTheIteration) {
  auto f = small_planted_fixture(3, 80, 3, 40);
  f.options.step.a = 1e30;
  sim::SimCluster cluster(cluster_config(2));
  DistributedOptions options;
  options.base = f.options;
  DistributedSampler dist(cluster, f.split->training(), f.split.get(),
                          f.hyper, options);
  try {
    dist.run(20);
    ADD_FAILURE() << "diverging step accepted";
  } catch (const scd::UsageError& e) {
    const std::string what = e.what();
    EXPECT_EQ(what.rfind("iteration ", 0), 0u) << what;
    EXPECT_NE(what.find("diverged at the phi row of vertex"),
              std::string::npos)
        << what;
  }
}

TEST(DistributedSamplerTest, NeedsAtLeastOneWorker) {
  auto f = small_planted_fixture(3, 80, 3, 40);
  sim::SimCluster cluster(cluster_config(0));  // 1 rank: master only
  DistributedOptions options;
  options.base = f.options;
  EXPECT_THROW(DistributedSampler(cluster, f.split->training(),
                                  f.split.get(), f.hyper, options),
               scd::UsageError);
}

}  // namespace
}  // namespace scd::core
