// ProcTransport over real forked processes: tag matching, FIFO, the
// rank-ordered reduce fold, broadcast, barriers, and dead-rank drain
// semantics. The master rank runs in the parent process, so gtest
// assertions placed there report normally; worker-side checks throw,
// which ProcCluster::run surfaces as an exception.
#include "proc/proc_transport.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "proc/proc_cluster.h"

namespace scd::proc {
namespace {

ProcCluster::Config cluster_config(unsigned ranks) {
  ProcCluster::Config config;
  config.num_ranks = ranks;
  config.recv_timeout_s = 30.0;
  return config;
}

void require(bool cond, const std::string& what) {
  if (!cond) throw std::runtime_error(what);
}

TEST(ProcTransportTest, TagMatchingDeliversAcrossArrivalOrder) {
  ProcCluster cluster(cluster_config(2));
  cluster.run([](comm::Context& ctx) {
    comm::Transport& net = ctx.transport();
    if (ctx.rank() == 1) {
      const double a[] = {1.0, 2.0};
      const double b[] = {3.0};
      const double c[] = {4.0, 5.0, 6.0};
      net.send<double>(1, 0, /*tag=*/7, a);
      net.send<double>(1, 0, /*tag=*/7, b);
      net.send<double>(1, 0, /*tag=*/9, c);
      return;
    }
    // Ask for the LAST-sent tag first: the two tag-7 frames must be
    // parked, then delivered in send order.
    const std::vector<double> c = net.recv<double>(0, 1, 9);
    EXPECT_EQ(c, (std::vector<double>{4.0, 5.0, 6.0}));
    const std::vector<double> a = net.recv<double>(0, 1, 7);
    EXPECT_EQ(a, (std::vector<double>{1.0, 2.0}));
    const std::vector<double> b = net.recv<double>(0, 1, 7);
    EXPECT_EQ(b, (std::vector<double>{3.0}));
  });
}

TEST(ProcTransportTest, ReduceSumFoldsInRankOrderAtRoot) {
  constexpr unsigned kRanks = 4;
  constexpr std::size_t kLen = 5;
  ProcCluster cluster(cluster_config(kRanks));
  cluster.run([](comm::Context& ctx) {
    comm::Transport& net = ctx.transport();
    std::vector<double> inout(kLen);
    for (std::size_t i = 0; i < kLen; ++i) {
      inout[i] = 0.1 * static_cast<double>(ctx.rank()) +
                 static_cast<double>(i);
    }
    const std::vector<double> mine = inout;
    net.reduce_sum(ctx.rank(), 0, inout);
    if (ctx.rank() == 0) {
      // The contract pins the fold: zeroed accumulator, contributions
      // added in ascending rank order — bitwise, not just approximately.
      for (std::size_t i = 0; i < kLen; ++i) {
        double expect = 0.0;
        for (unsigned r = 0; r < kRanks; ++r) {
          expect += 0.1 * static_cast<double>(r) + static_cast<double>(i);
        }
        EXPECT_EQ(inout[i], expect) << "element " << i;
      }
    } else {
      // Non-roots leave inout untouched.
      require(inout == mine, "reduce clobbered a non-root contribution");
    }
  });
}

TEST(ProcTransportTest, WorkerChannelCollectivesUseTheLastRanks) {
  // participants = 2 on a 3-rank cluster: ranks {1, 2}, root 1. The
  // master never enters the channel; workers report the result to it.
  ProcCluster cluster(cluster_config(3));
  cluster.run([](comm::Context& ctx) {
    comm::Transport& net = ctx.transport();
    if (ctx.rank() == 0) {
      const std::vector<double> sum = net.recv<double>(0, 1, 42);
      EXPECT_EQ(sum, (std::vector<double>{30.0}));
      return;
    }
    std::vector<double> inout = {10.0 * static_cast<double>(ctx.rank())};
    net.reduce_sum(ctx.rank(), /*root=*/1, inout, /*channel=*/1,
                   /*participants=*/2);
    net.barrier(ctx.rank(), /*channel=*/1, /*participants=*/2);
    if (ctx.rank() == 1) {
      net.send<double>(1, 0, 42, std::span<const double>(inout));
    } else {
      require(inout == std::vector<double>{20.0},
              "reduce clobbered a non-root contribution");
    }
  });
}

TEST(ProcTransportTest, BroadcastShipsRootBytesToEveryRank) {
  ProcCluster cluster(cluster_config(3));
  cluster.run([](comm::Context& ctx) {
    comm::Transport& net = ctx.transport();
    std::vector<float> data(4, 0.0f);
    if (ctx.rank() == 0) {
      data = {1.5f, -2.0f, 3.25f, 0.0f};
    }
    net.broadcast<float>(ctx.rank(), 0, std::span<float>(data));
    if (ctx.rank() != 0) {
      require(data == std::vector<float>({1.5f, -2.0f, 3.25f, 0.0f}),
              "broadcast payload mismatch on rank " +
                  std::to_string(ctx.rank()));
      net.send<float>(ctx.rank(), 0, 5, std::span<const float>(data));
    } else {
      for (unsigned r = 1; r < 3; ++r) {
        const std::vector<float> echo = net.recv<float>(0, r, 5);
        EXPECT_EQ(echo, data) << "echo from rank " << r;
      }
    }
  });
}

TEST(ProcTransportTest, BarriersSeparateSendEpochs) {
  // Each round: workers send their round number, everyone barriers.
  // Receiving the right value every round on a real transport exercises
  // repeated tree collectives interleaved with p2p traffic.
  ProcCluster cluster(cluster_config(4));
  cluster.run([](comm::Context& ctx) {
    comm::Transport& net = ctx.transport();
    for (std::uint64_t round = 0; round < 8; ++round) {
      if (ctx.rank() != 0) {
        const std::uint64_t payload[] = {round * 10 + ctx.rank()};
        net.send<std::uint64_t>(ctx.rank(), 0, 3, payload);
      } else {
        for (unsigned r = 1; r < 4; ++r) {
          const std::vector<std::uint64_t> got =
              net.recv<std::uint64_t>(0, r, 3);
          EXPECT_EQ(got, (std::vector<std::uint64_t>{round * 10 + r}));
        }
      }
      net.barrier(ctx.rank());
    }
  });
}

TEST(ProcTransportTest, DeadRankDrainsThenReportsDead) {
  // A rank that announces its death stays drainable: everything it sent
  // first must still arrive, and only then does recv_bytes_or_dead
  // report the death — the sampler's failure detector.
  ProcCluster cluster(cluster_config(2));
  cluster.run([](comm::Context& ctx) {
    comm::Transport& net = ctx.transport();
    if (ctx.rank() == 1) {
      const double x[] = {1.0};
      const double y[] = {2.0};
      net.send<double>(1, 0, 11, x);
      net.send<double>(1, 0, 11, y);
      net.mark_rank_dead(1);
      return;
    }
    auto first = net.recv_bytes_or_dead(0, 1, 11);
    ASSERT_TRUE(first.has_value());
    auto second = net.recv_bytes_or_dead(0, 1, 11);
    ASSERT_TRUE(second.has_value());
    auto third = net.recv_bytes_or_dead(0, 1, 11);
    EXPECT_FALSE(third.has_value());
    EXPECT_THROW(net.recv_raw(0, 1, 11), comm::TransportError);
  });
}

TEST(ProcTransportTest, WorkerFailureSurfacesAsClusterError) {
  ProcCluster cluster(cluster_config(3));
  EXPECT_THROW(cluster.run([](comm::Context& ctx) {
                 if (ctx.rank() == 2) {
                   throw std::runtime_error("scripted worker failure");
                 }
                 if (ctx.rank() == 0) {
                   // The failed rank's sockets close; this blocking recv
                   // must surface the death instead of hanging.
                   EXPECT_THROW(ctx.transport().recv_raw(0, 2, 1),
                                comm::TransportError);
                 }
               }),
               scd::Error);
}

TEST(ProcClusterTest, RunsExactlyOnce) {
  ProcCluster cluster(cluster_config(2));
  cluster.run([](comm::Context&) {});
  EXPECT_THROW(cluster.run([](comm::Context&) {}), scd::UsageError);
}

TEST(ProcClusterTest, CollectsPerRankWallStats) {
  ProcCluster cluster(cluster_config(3));
  cluster.run([](comm::Context& ctx) {
    ctx.book(comm::Phase::kUpdatePhi, 0.25 * (ctx.rank() + 1));
    ctx.timed_barrier();
  });
  EXPECT_DOUBLE_EQ(cluster.stats(1).get(comm::Phase::kUpdatePhi), 0.5);
  EXPECT_DOUBLE_EQ(cluster.stats(2).get(comm::Phase::kUpdatePhi), 0.75);
  EXPECT_DOUBLE_EQ(cluster.max_stats().get(comm::Phase::kUpdatePhi), 0.75);
  EXPECT_GT(cluster.max_clock(), 0.0);
}

}  // namespace
}  // namespace scd::proc
