// The tentpole acceptance property: the SAME DistributedSampler loops,
// run on forked processes over real sockets, reproduce the simulator's
// model trajectory bit-for-bit at fp32 — perplexity history, beta, and
// every pi entry compared with EXPECT_EQ, clean run and crash-plan FT
// run alike. Virtual and wall clocks differ by construction; numbers
// must not.
#include "core/distributed_sampler.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/parallel_sampler.h"
#include "fault/fault_plan.h"
#include "proc/proc_cluster.h"
#include "sim/cluster.h"
#include "tests/core/test_fixtures.h"

namespace scd::core {
namespace {

using testing::small_planted_fixture;

struct Trajectory {
  DistributedResult result;
  PiMatrix pi{1, 1};
  std::vector<float> beta;
};

/// One sampler run on `cluster`; the fixture is rebuilt from the same
/// seed per call so both backends see identical inputs.
Trajectory run_on(comm::Cluster& cluster, std::uint64_t iterations,
                  const fault::FaultPlan* plan,
                  std::uint64_t rollback_interval, bool pipeline = false) {
  auto f = small_planted_fixture(1618, 120, 4, 60);
  f.options.eval_interval = 10;
  DistributedOptions options;
  options.base = f.options;
  options.pipeline = pipeline;
  options.chunk_vertices = 8;
  options.fault_plan = plan;
  options.rollback_interval = rollback_interval;
  DistributedSampler dist(cluster, f.split->training(), f.split.get(),
                          f.hyper, options);
  Trajectory out;
  out.result = dist.run(iterations);
  out.pi = dist.snapshot_pi();
  out.beta.assign(dist.global().beta_all().begin(),
                  dist.global().beta_all().end());
  return out;
}

void expect_bit_identical(const Trajectory& sim, const Trajectory& proc) {
  ASSERT_EQ(sim.result.history.size(), proc.result.history.size());
  for (std::size_t i = 0; i < sim.result.history.size(); ++i) {
    EXPECT_EQ(sim.result.history[i].iteration,
              proc.result.history[i].iteration);
    EXPECT_EQ(sim.result.history[i].perplexity,
              proc.result.history[i].perplexity)
        << "eval point " << i;
  }
  ASSERT_EQ(sim.beta.size(), proc.beta.size());
  for (std::size_t k = 0; k < sim.beta.size(); ++k) {
    EXPECT_EQ(sim.beta[k], proc.beta[k]) << "beta " << k;
  }
  ASSERT_EQ(sim.pi.num_vertices(), proc.pi.num_vertices());
  ASSERT_EQ(sim.pi.num_communities(), proc.pi.num_communities());
  for (std::uint32_t v = 0; v < sim.pi.num_vertices(); ++v) {
    for (std::uint32_t k = 0; k < sim.pi.num_communities(); ++k) {
      ASSERT_EQ(sim.pi.pi(v, k), proc.pi.pi(v, k))
          << "v=" << v << " k=" << k;
    }
  }
}

TEST(ProcDistributedTest, MatchesSimulatorTrajectoryBitExact) {
  constexpr unsigned kWorkers = 2;
  constexpr std::uint64_t kIterations = 30;

  sim::SimCluster::Config sim_config;
  sim_config.num_ranks = kWorkers + 1;
  sim::SimCluster sim_cluster(sim_config);
  const Trajectory sim = run_on(sim_cluster, kIterations, nullptr, 0);

  proc::ProcCluster::Config proc_config;
  proc_config.num_ranks = kWorkers + 1;
  proc_config.recv_timeout_s = 60.0;
  proc::ProcCluster proc_cluster(proc_config);
  const Trajectory proc = run_on(proc_cluster, kIterations, nullptr, 0);

  expect_bit_identical(sim, proc);
  EXPECT_GT(proc.result.virtual_seconds, 0.0);  // wall time on proc
  // The measured breakdown covers the phases the modeled one covers.
  EXPECT_GT(proc_cluster.max_stats().get(comm::Phase::kUpdatePhi), 0.0);
  EXPECT_GT(proc_cluster.max_stats().get(comm::Phase::kLoadPi), 0.0);
}

TEST(ProcDistributedTest, CrashPlanMatchesSimulatorRecoveryBitExact) {
  // One worker fail-stops at a protocol point of a fixed iteration (the
  // cross-backend crash anchor); both backends must detect it at the
  // same seam, re-home the same shard, roll back to the same snapshot,
  // and land on identical numbers. Swept over every crash point, early
  // and mid-run anchors, redo-in-place (rollback 0: the pi writes the
  // dead worker made before the crash stay) and two rollback intervals.
  // A before-eval crash can only fire on an eval iteration (9, with
  // eval_interval 10); run() refuses it at any other anchor (ChaosTest
  // covers the refusal). Pipelining moves only the clocks: the deploy
  // prefetched before a crash is dropped, so pipelined and unpipelined
  // runs land on the same numbers too.
  constexpr unsigned kWorkers = 3;
  constexpr std::uint64_t kIterations = 15;

  for (unsigned point = 0; point < fault::kNumCrashPoints; ++point) {
    for (const std::uint64_t anchor : {0, 6, 9}) {
      if (point == static_cast<unsigned>(fault::CrashPoint::kBeforeEval) &&
          anchor != 9) {
        continue;
      }
      for (const std::uint64_t rollback_interval : {0, 1, 3}) {
        fault::FaultPlan plan;
        plan.seed = 5;
        plan.crashes.push_back(
            {.rank = 2,
             .at_iteration = anchor,
             .at_point = static_cast<fault::CrashPoint>(point)});

        std::vector<Trajectory> unpipelined;  // [sim, proc]
        for (const bool pipeline : {false, true}) {
          SCOPED_TRACE("point " + std::to_string(point) + " at iteration " +
                       std::to_string(anchor) + ", rollback every " +
                       std::to_string(rollback_interval) +
                       (pipeline ? ", pipelined" : ", unpipelined"));
          sim::SimCluster::Config sim_config;
          sim_config.num_ranks = kWorkers + 1;
          sim::SimCluster sim_cluster(sim_config);
          const Trajectory sim = run_on(sim_cluster, kIterations, &plan,
                                        rollback_interval, pipeline);

          proc::ProcCluster::Config proc_config;
          proc_config.num_ranks = kWorkers + 1;
          proc_config.recv_timeout_s = 60.0;
          proc::ProcCluster proc_cluster(proc_config);
          const Trajectory proc = run_on(proc_cluster, kIterations, &plan,
                                         rollback_interval, pipeline);

          EXPECT_EQ(sim.result.crashed_ranks, std::vector<unsigned>{2});
          EXPECT_EQ(proc.result.crashed_ranks, sim.result.crashed_ranks);
          EXPECT_EQ(proc.result.redone_iterations,
                    sim.result.redone_iterations);
          if (rollback_interval == 0 &&
              point ==
                  static_cast<unsigned>(fault::CrashPoint::kBeforeEval)) {
            // Redo-in-place has nothing to redo: the crashed iteration's
            // pi and theta updates had all landed before the eval round.
            EXPECT_EQ(sim.result.redone_iterations, 0u);
          } else {
            EXPECT_GE(sim.result.redone_iterations, 1u);
          }
          EXPECT_EQ(proc.result.iterations, sim.result.iterations);
          expect_bit_identical(sim, proc);
          if (!pipeline) {
            unpipelined = {sim, proc};
          } else {
            EXPECT_EQ(sim.result.redone_iterations,
                      unpipelined[0].result.redone_iterations);
            expect_bit_identical(unpipelined[0], sim);
            expect_bit_identical(unpipelined[1], proc);
          }
        }
      }
    }
  }
}

// The launcher builds the shared row region on a transient pool that is
// joined before run() forks: fresh and resumed images are
// ParallelSampler's pi byte for byte, and the workers fork and run from
// them.
TEST(ProcDistributedTest, StoreImageMatchesParallelSamplerPi) {
  using testing::pi_bits;
  auto f = small_planted_fixture(2718, 600, 16, 80);
  ParallelSampler local(f.split->training(), f.split.get(), f.hyper,
                        f.options, 3);
  const std::vector<std::uint32_t> initial = pi_bits(local.pi());
  local.run(10);
  const Checkpoint cp = local.checkpoint();
  for (const bool resume : {false, true}) {
    proc::ProcCluster::Config config;
    config.num_ranks = 3;
    config.recv_timeout_s = 60.0;
    proc::ProcCluster cluster(config);
    DistributedOptions options;
    options.base = f.options;
    options.resume_from = resume ? &cp : nullptr;
    DistributedSampler dist(cluster, f.split->training(), f.split.get(),
                            f.hyper, options);
    EXPECT_EQ(pi_bits(dist.snapshot_pi()), resume ? pi_bits(cp.pi) : initial)
        << (resume ? "resume_from" : "fresh");
    dist.run(2);
  }
}

TEST(ProcDistributedTest, WallBackendRejectsSimOnlyFeatures) {
  auto f = small_planted_fixture(3, 80, 3, 40);

  // Virtual-time-priced faults cannot replay on a wall clock.
  {
    proc::ProcCluster::Config config;
    config.num_ranks = 3;
    proc::ProcCluster cluster(config);
    fault::FaultPlan plan;
    plan.stragglers.push_back({1, 0.0, 1e9, 2.0});
    DistributedOptions options;
    options.base = f.options;
    options.fault_plan = &plan;
    DistributedSampler dist(cluster, f.split->training(), f.split.get(),
                            f.hyper, options);
    EXPECT_THROW(dist.run(2), scd::UsageError);
  }
  // Virtual-time-anchored crashes have no wall-clock meaning either.
  {
    proc::ProcCluster::Config config;
    config.num_ranks = 3;
    proc::ProcCluster cluster(config);
    fault::FaultPlan plan;
    plan.crashes.push_back({.rank = 1, .time_s = 0.5});
    DistributedOptions options;
    options.base = f.options;
    options.fault_plan = &plan;
    options.rollback_interval = 2;
    DistributedSampler dist(cluster, f.split->training(), f.split.get(),
                            f.hyper, options);
    EXPECT_THROW(dist.run(2), scd::UsageError);
  }
}

}  // namespace
}  // namespace scd::core
