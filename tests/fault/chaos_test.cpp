// Chaos integration tests for the fault-tolerant distributed sampler.
//
// The acceptance bar: an empty plan reproduces the run without a plan
// bit-for-bit, virtual time included; with a plan, the faulted
// trajectory is a deterministic function of (plan, seed), pipelined or
// not; and a mid-run worker crash is detected, its shard and slices
// re-homed, and the run still converges.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "core/distributed_sampler.h"
#include "fault/fault_plan.h"
#include "quant/row_codec.h"
#include "sim/cluster.h"
#include "tests/core/test_fixtures.h"

namespace scd::core {
namespace {

using testing::small_planted_fixture;

constexpr unsigned kWorkers = 4;
constexpr std::uint64_t kIterations = 60;

sim::SimCluster::Config cluster_config() {
  sim::SimCluster::Config config;
  config.num_ranks = kWorkers + 1;
  return config;
}

DistributedResult run_sampler(
    const fault::FaultPlan* plan, std::uint64_t rollback_interval,
    PiMatrix* pi_out = nullptr, std::vector<float>* beta_out = nullptr,
    quant::RowCodec pi_codec = quant::RowCodec::kFloat32,
    bool pipeline = false) {
  auto f = small_planted_fixture(1618, 150, 4, 80);
  f.options.eval_interval = 20;
  sim::SimCluster cluster(cluster_config());
  DistributedOptions options;
  options.base = f.options;
  options.pipeline = pipeline;
  options.chunk_vertices = 8;
  options.fault_plan = plan;
  options.rollback_interval = rollback_interval;
  options.pi_codec = pi_codec;
  DistributedSampler dist(cluster, f.split->training(), f.split.get(),
                          f.hyper, options);
  DistributedResult result = dist.run(kIterations);
  if (pi_out != nullptr) *pi_out = dist.snapshot_pi();
  if (beta_out != nullptr) {
    beta_out->assign(dist.global().beta_all().begin(),
                     dist.global().beta_all().end());
  }
  return result;
}

void expect_identical(const DistributedResult& a,
                      const DistributedResult& b) {
  ASSERT_EQ(a.history.size(), b.history.size());
  for (std::size_t i = 0; i < a.history.size(); ++i) {
    EXPECT_EQ(a.history[i].iteration, b.history[i].iteration);
    EXPECT_EQ(a.history[i].perplexity, b.history[i].perplexity)
        << "eval point " << i;
    EXPECT_EQ(a.history[i].seconds, b.history[i].seconds)
        << "eval point " << i;
  }
  EXPECT_EQ(a.virtual_seconds, b.virtual_seconds);
  EXPECT_EQ(a.crashed_ranks, b.crashed_ranks);
  EXPECT_EQ(a.redone_iterations, b.redone_iterations);
}

// An *empty* plan installs the fault injector but injects nothing: the
// run must equal the run without a plan bit-for-bit, in numbers and in
// virtual time. Swept over every pi codec, with and without
// pipelining, so the dense and sparse ratio paths and both deploy
// schedules run.
TEST(ChaosTest, EmptyPlanMatchesNoPlanBitExact) {
  const fault::FaultPlan empty;
  for (std::size_t c = 0; c < quant::kNumCodecs; ++c) {
    const auto codec = static_cast<quant::RowCodec>(c);
    for (const bool pipeline : {false, true}) {
      SCOPED_TRACE(std::string(quant::codec_name(codec)) +
                   (pipeline ? " pipelined" : " unpipelined"));
      PiMatrix plain_pi(1, 1);
      std::vector<float> plain_beta;
      const DistributedResult plain =
          run_sampler(nullptr, 0, &plain_pi, &plain_beta, codec, pipeline);

      PiMatrix ft_pi(1, 1);
      std::vector<float> ft_beta;
      const DistributedResult ft =
          run_sampler(&empty, 0, &ft_pi, &ft_beta, codec, pipeline);

      EXPECT_TRUE(ft.crashed_ranks.empty());
      EXPECT_EQ(ft.redone_iterations, 0u);
      expect_identical(ft, plain);
      ASSERT_EQ(plain_beta.size(), ft_beta.size());
      for (std::size_t i = 0; i < ft_beta.size(); ++i) {
        EXPECT_EQ(ft_beta[i], plain_beta[i]) << "beta " << i;
      }
      ASSERT_EQ(ft_pi.num_vertices(), plain_pi.num_vertices());
      for (std::uint32_t v = 0; v < ft_pi.num_vertices(); ++v) {
        for (std::uint32_t k = 0; k < ft_pi.num_communities(); ++k) {
          ASSERT_EQ(ft_pi.pi(v, k), plain_pi.pi(v, k)) << "v=" << v;
        }
      }
    }
  }
}

// Transient link faults (drops, duplicates, delays) cost virtual time
// via retries and backoff but never change delivered data: the numbers
// stay bit-identical to the clean run.
TEST(ChaosTest, LinkFaultsCostTimeNotNumbers) {
  const fault::FaultPlan empty;
  const DistributedResult clean = run_sampler(&empty, 0);

  fault::FaultPlan lossy;
  lossy.seed = 11;
  // Lossy both ways between the master and worker 1, the whole run.
  lossy.links.push_back({0, 1, 0.0, 1e9, 0.3, 0.2, 5e-6});
  lossy.links.push_back({1, 0, 0.0, 1e9, 0.3, 0.2, 5e-6});
  const DistributedResult faulted = run_sampler(&lossy, 0);

  EXPECT_TRUE(faulted.crashed_ranks.empty());
  ASSERT_EQ(faulted.history.size(), clean.history.size());
  for (std::size_t i = 0; i < faulted.history.size(); ++i) {
    EXPECT_EQ(faulted.history[i].perplexity, clean.history[i].perplexity)
        << "eval point " << i;
  }
  EXPECT_GT(faulted.virtual_seconds, clean.virtual_seconds);
}

TEST(ChaosTest, StragglerSlowsTheRunNotTheNumbers) {
  const fault::FaultPlan empty;
  const DistributedResult clean = run_sampler(&empty, 0);

  fault::FaultPlan slow;
  slow.stragglers.push_back({2, 0.0, 1e9, 8.0});
  const DistributedResult faulted = run_sampler(&slow, 0);

  ASSERT_EQ(faulted.history.size(), clean.history.size());
  for (std::size_t i = 0; i < faulted.history.size(); ++i) {
    EXPECT_EQ(faulted.history[i].perplexity, clean.history[i].perplexity);
  }
  // This small fixture is network-dominated, so the slowdown shows up as
  // a modest but strictly positive critical-path increase.
  EXPECT_GT(faulted.virtual_seconds, clean.virtual_seconds);
}

TEST(ChaosTest, DkvShardStallCostsTimeNotNumbers) {
  const fault::FaultPlan empty;
  const DistributedResult clean = run_sampler(&empty, 0);

  fault::FaultPlan stall;
  stall.dkv_stalls.push_back({1, 0.0, 1e9, 1e-5});
  const DistributedResult faulted = run_sampler(&stall, 0);

  ASSERT_EQ(faulted.history.size(), clean.history.size());
  for (std::size_t i = 0; i < faulted.history.size(); ++i) {
    EXPECT_EQ(faulted.history[i].perplexity, clean.history[i].perplexity);
  }
  EXPECT_GT(faulted.virtual_seconds, clean.virtual_seconds);
}

// A worker dies mid-run: the run must detect it by its missing
// message, re-home its DKV shard and slices onto the survivors, and
// finish the run with held-out perplexity close to the no-fault run's.
TEST(ChaosTest, WorkerCrashIsDetectedAndRecovered) {
  const fault::FaultPlan empty;
  const DistributedResult clean = run_sampler(&empty, 0);
  ASSERT_FALSE(clean.history.empty());

  fault::FaultPlan plan;
  plan.seed = 5;
  plan.heartbeat_timeout_s = clean.virtual_seconds / kIterations;
  plan.crashes.push_back({2, clean.virtual_seconds / 2.0});
  const DistributedResult faulted = run_sampler(&plan, 0);

  ASSERT_EQ(faulted.crashed_ranks, std::vector<unsigned>{2});
  EXPECT_GE(faulted.redone_iterations, 1u);
  EXPECT_EQ(faulted.iterations, kIterations);
  ASSERT_EQ(faulted.history.size(), clean.history.size());
  // Evals before the crash are untouched; the final one (over the
  // survivors' re-sliced held-out set) must still be converged.
  EXPECT_EQ(faulted.history.front().perplexity,
            clean.history.front().perplexity);
  const double final_clean = clean.history.back().perplexity;
  const double final_faulted = faulted.history.back().perplexity;
  EXPECT_NEAR(final_faulted, final_clean, 0.15 * final_clean)
      << "post-recovery perplexity diverged";
}

// Workers reach the before-eval seam only on eval iterations (every
// 20th here), so a kBeforeEval crash anchored anywhere else would never
// fire and the "faulted" run would silently have no fault: refused.
TEST(ChaosTest, BeforeEvalCrashOffAnEvalIterationIsRefused) {
  fault::FaultPlan plan;
  plan.crashes.push_back({.rank = 1,
                          .at_iteration = 10,
                          .at_point = fault::CrashPoint::kBeforeEval});
  EXPECT_THROW(run_sampler(&plan, 0), scd::UsageError);
}

// Same plan + same seed => bit-identical faulted trajectory, including
// detection times, redone iterations and every perplexity point, with
// and without pipelined deploys.
TEST(ChaosTest, FaultedRunsAreDeterministic) {
  for (const bool pipeline : {false, true}) {
    SCOPED_TRACE(pipeline ? "pipelined" : "unpipelined");
    const fault::FaultPlan empty;
    const DistributedResult clean = run_sampler(
        &empty, 0, nullptr, nullptr, quant::RowCodec::kFloat32, pipeline);

    fault::FaultPlan plan;
    plan.seed = 21;
    plan.heartbeat_timeout_s = clean.virtual_seconds / kIterations;
    plan.crashes.push_back({3, clean.virtual_seconds / 3.0});
    plan.links.push_back({0, 2, 0.0, 1e9, 0.25, 0.1, 1e-5});
    plan.stragglers.push_back({1, 0.0, clean.virtual_seconds, 2.0});
    plan.dkv_stalls.push_back({0, 0.0, 1e9, 5e-6});

    PiMatrix pi_a(1, 1);
    PiMatrix pi_b(1, 1);
    const DistributedResult a = run_sampler(
        &plan, 0, &pi_a, nullptr, quant::RowCodec::kFloat32, pipeline);
    const DistributedResult b = run_sampler(
        &plan, 0, &pi_b, nullptr, quant::RowCodec::kFloat32, pipeline);
    expect_identical(a, b);
    ASSERT_EQ(a.crashed_ranks, std::vector<unsigned>{3});
    for (std::uint32_t v = 0; v < pi_a.num_vertices(); ++v) {
      for (std::uint32_t k = 0; k < pi_a.num_communities(); ++k) {
        ASSERT_EQ(pi_a.pi(v, k), pi_b.pi(v, k)) << "v=" << v;
      }
    }
  }
}

// With rollback_interval set, a crash restores the last checkpoint
// snapshot instead of patching forward; the run completes, replays the
// rolled-back iterations, and remains deterministic.
TEST(ChaosTest, RollbackRecoveryReplaysFromSnapshot) {
  const fault::FaultPlan empty;
  const DistributedResult clean = run_sampler(&empty, 0);

  fault::FaultPlan plan;
  plan.seed = 8;
  plan.heartbeat_timeout_s = clean.virtual_seconds / kIterations;
  plan.crashes.push_back({2, clean.virtual_seconds / 2.0});

  const DistributedResult a = run_sampler(&plan, /*rollback_interval=*/10);
  const DistributedResult b = run_sampler(&plan, /*rollback_interval=*/10);
  expect_identical(a, b);
  ASSERT_EQ(a.crashed_ranks, std::vector<unsigned>{2});
  // Rolling back to a multiple-of-10 snapshot replays more work than the
  // single interrupted iteration.
  EXPECT_GE(a.redone_iterations, 1u);
  ASSERT_FALSE(a.history.empty());
  const double final_clean = clean.history.back().perplexity;
  EXPECT_NEAR(a.history.back().perplexity, final_clean,
              0.15 * final_clean);
}

}  // namespace
}  // namespace scd::core
