#include "sim/cluster.h"

#include <gtest/gtest.h>

#include <atomic>

#include "util/error.h"

namespace scd::sim {
namespace {

SimCluster::Config small_config(unsigned ranks) {
  SimCluster::Config config;
  config.num_ranks = ranks;
  config.network.collective_skew_s = 0.0;
  return config;
}

TEST(ClusterTest, RunsEveryRankExactlyOnce) {
  SimCluster cluster(small_config(5));
  std::atomic<unsigned> mask{0};
  cluster.run([&](RankContext& ctx) {
    mask.fetch_or(1u << ctx.rank());
    EXPECT_EQ(ctx.num_ranks(), 5u);
  });
  EXPECT_EQ(mask.load(), 0b11111u);
}

TEST(ClusterTest, ChargeAdvancesClockAndStats) {
  SimCluster cluster(small_config(2));
  cluster.run([&](RankContext& ctx) {
    if (ctx.rank() == 0) {
      ctx.charge(comm::Phase::kUpdatePhi, 0.25);
      ctx.charge(comm::Phase::kUpdatePhi, 0.25);
      ctx.charge(comm::Phase::kLoadPi, 1.0);
    }
  });
  EXPECT_DOUBLE_EQ(cluster.clock(0).now(), 1.5);
  EXPECT_DOUBLE_EQ(cluster.stats(0).get(comm::Phase::kUpdatePhi), 0.5);
  EXPECT_DOUBLE_EQ(cluster.stats(0).get(comm::Phase::kLoadPi), 1.0);
  EXPECT_DOUBLE_EQ(cluster.max_clock(), 1.5);
}

TEST(ClusterTest, ChargeKernelScalesWithThreadModel) {
  SimCluster::Config config = small_config(1);
  config.compute.clock_hz = 1e9;
  config.compute.threads_per_node = 4;
  config.compute.thread_efficiency = 1.0;
  SimCluster cluster(config);
  cluster.run([&](RankContext& ctx) {
    // 4e9 cycles / 4 GHz eff
    ctx.charge_kernel(comm::Phase::kUpdatePhi, 4e9, 1.0);
    ctx.charge_serial(comm::Phase::kUpdateBetaTheta, 1e9, 1.0);
  });
  EXPECT_DOUBLE_EQ(cluster.stats(0).get(comm::Phase::kUpdatePhi), 1.0);
  EXPECT_DOUBLE_EQ(cluster.stats(0).get(comm::Phase::kUpdateBetaTheta), 1.0);
}

TEST(ClusterTest, TimedBarrierBooksWaitTime) {
  SimCluster cluster(small_config(2));
  cluster.run([&](RankContext& ctx) {
    if (ctx.rank() == 1) ctx.charge(comm::Phase::kUpdatePhi, 2.0);
    ctx.timed_barrier();
  });
  // Rank 0 waited ~2 s for rank 1.
  EXPECT_NEAR(cluster.stats(0).get(comm::Phase::kBarrierWait), 2.0, 1e-3);
  EXPECT_NEAR(cluster.stats(1).get(comm::Phase::kBarrierWait), 0.0, 1e-3);
  EXPECT_NEAR(cluster.max_clock(), cluster.clock(0).now(), 1e-12);
}

TEST(ClusterTest, MaxStatsTakesPerPhaseMaximum) {
  SimCluster cluster(small_config(2));
  cluster.run([&](RankContext& ctx) {
    if (ctx.rank() == 0) {
      ctx.charge(comm::Phase::kLoadPi, 3.0);
      ctx.charge(comm::Phase::kUpdatePhi, 1.0);
    } else {
      ctx.charge(comm::Phase::kLoadPi, 1.0);
      ctx.charge(comm::Phase::kUpdatePhi, 2.0);
    }
  });
  const comm::PhaseStats stats = cluster.max_stats();
  EXPECT_DOUBLE_EQ(stats.get(comm::Phase::kLoadPi), 3.0);
  EXPECT_DOUBLE_EQ(stats.get(comm::Phase::kUpdatePhi), 2.0);
}

TEST(ClusterTest, ExceptionInOneRankPropagatesWithoutDeadlock) {
  SimCluster cluster(small_config(3));
  EXPECT_THROW(cluster.run([&](RankContext& ctx) {
    if (ctx.rank() == 1) throw scd::Error("rank 1 exploded");
    ctx.transport().barrier(ctx.rank());  // would deadlock without abort
  }),
               scd::Error);
}

TEST(ClusterTest, ResetClearsClocksAndStats) {
  SimCluster cluster(small_config(2));
  cluster.run([&](RankContext& ctx) { ctx.charge(comm::Phase::kLoadPi, 1.0); });
  cluster.reset();
  EXPECT_DOUBLE_EQ(cluster.max_clock(), 0.0);
  EXPECT_DOUBLE_EQ(cluster.stats(0).get(comm::Phase::kLoadPi), 0.0);
  // Cluster remains usable after reset.
  cluster.run([&](RankContext& ctx) {
    ctx.transport().barrier(ctx.rank());
  });
}

TEST(ClusterTest, SingleRankRunsInline) {
  SimCluster cluster(small_config(1));
  bool ran = false;
  cluster.run([&](RankContext& ctx) {
    ran = true;
    EXPECT_TRUE(ctx.is_master());
  });
  EXPECT_TRUE(ran);
}

TEST(PhaseStatsTest, NamesAreDistinct) {
  std::set<std::string> names;
  for (std::size_t i = 0; i < comm::kNumPhases; ++i) {
    names.insert(comm::phase_name(static_cast<comm::Phase>(i)));
  }
  EXPECT_EQ(names.size(), comm::kNumPhases);
}

TEST(PhaseStatsTest, ArithmeticHelpers) {
  comm::PhaseStats a;
  a.add(comm::Phase::kLoadPi, 1.0);
  comm::PhaseStats b;
  b.add(comm::Phase::kLoadPi, 2.0);
  b.add(comm::Phase::kUpdatePi, 0.5);
  a += b;
  EXPECT_DOUBLE_EQ(a.get(comm::Phase::kLoadPi), 3.0);
  EXPECT_DOUBLE_EQ(a.total(), 3.5);
  a.scale(2.0);
  EXPECT_DOUBLE_EQ(a.get(comm::Phase::kUpdatePi), 1.0);
  a.clear();
  EXPECT_DOUBLE_EQ(a.total(), 0.0);
}

}  // namespace
}  // namespace scd::sim
