// Stress and property tests for the simulated transport: many ranks,
// random traffic patterns, interleaved collectives on multiple channels,
// and virtual-clock invariants that must hold for any schedule.
#include <gtest/gtest.h>

#include <thread>

#include "random/xoshiro.h"
#include "sim/cluster.h"
#include "sim/transport.h"

namespace scd::sim {
namespace {

comm::NetworkModel quiet_net() {
  comm::NetworkModel net;
  net.collective_skew_s = 0.0;
  return net;
}

class TransportStressTest : public ::testing::TestWithParam<unsigned> {};

// Ring exchange: every rank sends to its right neighbor R rounds; data
// integrity and causality (receive clock >= send completion) must hold.
TEST_P(TransportStressTest, RingExchangeKeepsDataAndCausality) {
  const unsigned ranks = GetParam();
  SimCluster::Config config;
  config.num_ranks = ranks;
  config.network = quiet_net();
  SimCluster cluster(config);
  constexpr int kRounds = 25;

  cluster.run([&](RankContext& ctx) {
    const unsigned self = ctx.rank();
    const unsigned right = (self + 1) % ranks;
    const unsigned left = (self + ranks - 1) % ranks;
    for (int round = 0; round < kRounds; ++round) {
      const std::vector<std::uint64_t> payload = {
          std::uint64_t{self}, static_cast<std::uint64_t>(round)};
      ctx.transport().send(self, right, /*tag=*/7,
                           std::span<const std::uint64_t>(payload));
      const auto got =
          ctx.transport().recv<std::uint64_t>(self, left, /*tag=*/7);
      ASSERT_EQ(got.size(), 2u);
      ASSERT_EQ(got[0], left);
      ASSERT_EQ(got[1], static_cast<std::uint64_t>(round));
    }
  });
  // All clocks advanced (messages cost time) and are finite.
  for (unsigned r = 0; r < ranks; ++r) {
    EXPECT_GT(cluster.clock(r).now(), 0.0);
    EXPECT_LT(cluster.clock(r).now(), 1.0);
  }
}

// Random compute + barrier rounds: after every barrier all clocks agree,
// and the common clock equals the running maximum of work done.
TEST_P(TransportStressTest, BarrierRoundsSynchronizeToRunningMax) {
  const unsigned ranks = GetParam();
  SimCluster::Config config;
  config.num_ranks = ranks;
  config.network = quiet_net();
  SimCluster cluster(config);
  constexpr int kRounds = 12;

  std::vector<std::vector<double>> work(ranks,
                                        std::vector<double>(kRounds));
  rng::Xoshiro256 rng(99);
  for (auto& per_rank : work) {
    for (double& w : per_rank) w = rng.next_double() * 1e-3;
  }

  cluster.run([&](RankContext& ctx) {
    for (int round = 0; round < kRounds; ++round) {
      ctx.charge(comm::Phase::kUpdatePhi, work[ctx.rank()][round]);
      ctx.transport().barrier(ctx.rank());
    }
  });

  // Expected: sum over rounds of (max over ranks of cumulative skew)...
  // simpler invariant: every clock equals every other clock, and is at
  // least the largest per-rank total and at most the sum of per-round
  // maxima plus barrier costs.
  const double clock0 = cluster.clock(0).now();
  for (unsigned r = 1; r < ranks; ++r) {
    EXPECT_DOUBLE_EQ(cluster.clock(r).now(), clock0);
  }
  double sum_of_maxima = 0.0;
  for (int round = 0; round < kRounds; ++round) {
    double round_max = 0.0;
    for (unsigned r = 0; r < ranks; ++r) {
      round_max = std::max(round_max, work[r][round]);
    }
    sum_of_maxima += round_max;
  }
  EXPECT_GE(clock0, sum_of_maxima);  // barriers only add time
  EXPECT_LE(clock0, sum_of_maxima +
                        kRounds * config.network.collective_time(ranks, 0) +
                        1e-12);
}

// Reduce correctness under permuted arrival order: each rank sleeps a
// different (virtual) time before contributing; the rank-ordered fold
// must make the result arrival-order independent and exactly equal to
// the arithmetic sum.
TEST_P(TransportStressTest, ReduceIsArrivalOrderIndependent) {
  const unsigned ranks = GetParam();
  SimCluster::Config config;
  config.num_ranks = ranks;
  config.network = quiet_net();
  SimCluster cluster(config);

  std::vector<double> expected(4, 0.0);
  for (unsigned r = 0; r < ranks; ++r) {
    for (int i = 0; i < 4; ++i) {
      expected[static_cast<std::size_t>(i)] += r * 10.0 + i;
    }
  }
  std::vector<double> result(4);
  cluster.run([&](RankContext& ctx) {
    // Stagger real arrival with a real sleep keyed off rank.
    std::this_thread::sleep_for(
        std::chrono::microseconds((ctx.rank() * 7919) % 1500));
    std::vector<double> contribution(4);
    for (int i = 0; i < 4; ++i) {
      contribution[static_cast<std::size_t>(i)] = ctx.rank() * 10.0 + i;
    }
    ctx.transport().reduce_sum(ctx.rank(), 0, contribution);
    if (ctx.is_master()) result = contribution;
  });
  for (int i = 0; i < 4; ++i) {
    EXPECT_DOUBLE_EQ(result[static_cast<std::size_t>(i)],
                     expected[static_cast<std::size_t>(i)]);
  }
}

// Two channels running different collective sequences concurrently:
// evens barrier among themselves on channel 2 while everyone reduces on
// channel 0 — ordering within each channel is preserved, no deadlock.
TEST_P(TransportStressTest, ConcurrentChannelsDoNotInterfere) {
  const unsigned ranks = GetParam();
  if (ranks < 4) GTEST_SKIP() << "needs >= 4 ranks";
  const unsigned evens = (ranks + 1) / 2;
  SimCluster::Config config;
  config.num_ranks = ranks;
  config.network = quiet_net();
  SimCluster cluster(config);

  cluster.run([&](RankContext& ctx) {
    for (int round = 0; round < 10; ++round) {
      if (ctx.rank() % 2 == 0) {
        ctx.transport().barrier(ctx.rank(), /*channel=*/2, evens);
      }
      std::vector<double> acc = {1.0};
      ctx.transport().reduce_sum(ctx.rank(), 0, acc, /*channel=*/0);
      if (ctx.is_master()) {
        ASSERT_DOUBLE_EQ(acc[0], static_cast<double>(ranks));
      }
    }
  });
}

// Broadcast fan-out with rotating roots: every rank gets exactly the
// root's payload each round.
TEST_P(TransportStressTest, RotatingRootBroadcast) {
  const unsigned ranks = GetParam();
  SimCluster::Config config;
  config.num_ranks = ranks;
  config.network = quiet_net();
  SimCluster cluster(config);

  cluster.run([&](RankContext& ctx) {
    for (unsigned root = 0; root < ranks; ++root) {
      std::vector<float> data(8, ctx.rank() == root
                                     ? static_cast<float>(root) + 0.5f
                                     : -1.0f);
      ctx.transport().broadcast(ctx.rank(), root, std::span<float>(data));
      for (float v : data) {
        ASSERT_EQ(v, static_cast<float>(root) + 0.5f);
      }
    }
  });
}

INSTANTIATE_TEST_SUITE_P(Ranks, TransportStressTest,
                         ::testing::Values(2u, 3u, 8u, 17u));

// Heavy random point-to-point fan-in to one sink: FIFO per channel and
// no message loss even when 16 producers blast concurrently.
TEST(TransportStressTest, ManyToOneFanInPreservesPerSenderOrder) {
  constexpr unsigned kRanks = 17;  // rank 0 is the sink
  constexpr int kPerSender = 50;
  SimCluster::Config config;
  config.num_ranks = kRanks;
  config.network = quiet_net();
  SimCluster cluster(config);

  cluster.run([&](RankContext& ctx) {
    if (ctx.rank() == 0) {
      for (unsigned sender = 1; sender < kRanks; ++sender) {
        for (int i = 0; i < kPerSender; ++i) {
          const auto got = ctx.transport().recv<std::uint64_t>(
              0, sender, static_cast<int>(sender));
          ASSERT_EQ(got.size(), 1u);
          ASSERT_EQ(got[0], static_cast<std::uint64_t>(i))
              << "sender " << sender;
        }
      }
    } else {
      for (int i = 0; i < kPerSender; ++i) {
        const std::vector<std::uint64_t> payload = {
            static_cast<std::uint64_t>(i)};
        ctx.transport().send(ctx.rank(), 0,
                             static_cast<int>(ctx.rank()),
                             std::span<const std::uint64_t>(payload));
      }
    }
  });
}

}  // namespace
}  // namespace scd::sim
