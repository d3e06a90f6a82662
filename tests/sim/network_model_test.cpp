#include "comm/network_model.h"

#include <gtest/gtest.h>

#include "util/error.h"

namespace scd::comm {
namespace {

TEST(NetworkModelTest, TransferTimeIsLatencyPlusWire) {
  NetworkModel net;
  net.latency_s = 2e-6;
  net.bandwidth_Bps = 1e9;
  EXPECT_DOUBLE_EQ(net.transfer_time(0), 2e-6);
  EXPECT_DOUBLE_EQ(net.transfer_time(1'000'000), 2e-6 + 1e-3);
}

TEST(NetworkModelTest, QperfEnvelopeApproachesLineRate) {
  const NetworkModel net;
  // Large payloads: effective bandwidth approaches the configured rate.
  const std::uint64_t big = 64ull << 20;
  const double bw = double(big) / qperf_transfer_time(net, big);
  EXPECT_NEAR(bw, net.bandwidth_Bps, 0.01 * net.bandwidth_Bps);
  // Tiny payloads: latency-dominated, far below line rate.
  const double bw_small = 256.0 / qperf_transfer_time(net, 256);
  EXPECT_LT(bw_small, 0.05 * net.bandwidth_Bps);
}

TEST(NetworkModelTest, DkvTrailsQperfAndConverges) {
  const NetworkModel net;
  // Single-request read of one payload, one node (no congestion).
  auto dkv_bw = [&](std::uint64_t bytes) {
    return double(bytes) / net.dkv_batch_time(1, bytes, bytes, 1);
  };
  auto qperf_bw = [&](std::uint64_t bytes) {
    return double(bytes) / qperf_transfer_time(net, bytes);
  };
  // Below 4 KiB the DKV clearly trails; by 64 KiB it is close.
  EXPECT_LT(dkv_bw(1024), 0.95 * qperf_bw(1024));
  EXPECT_GT(dkv_bw(64 * 1024), 0.90 * qperf_bw(64 * 1024));
}

TEST(NetworkModelTest, SpreadPenaltyKicksInAboveThreshold) {
  NetworkModel net;
  const std::uint64_t bytes = 1 << 20;
  const double t_small_ws = net.dkv_batch_time(1, bytes, bytes, 1);
  const double t_large_ws =
      net.dkv_batch_time(1, bytes, net.spread_threshold_bytes + 1, 1);
  EXPECT_GT(t_large_ws, t_small_ws);
}

TEST(NetworkModelTest, CongestionFactorShrinksWithClusterSize) {
  const NetworkModel net;
  EXPECT_DOUBLE_EQ(net.congestion_factor(1), 1.0);
  double prev = 1.0;
  for (unsigned c : {2u, 4u, 8u, 16u, 64u}) {
    const double f = net.congestion_factor(c);
    EXPECT_LT(f, prev);
    EXPECT_GT(f, 0.0);
    prev = f;
  }
  // Asymptote: 1 / (1 + strength).
  EXPECT_NEAR(net.congestion_factor(10000),
              1.0 / (1.0 + net.congestion_strength), 0.01);
}

TEST(NetworkModelTest, DkvBatchTimeMonotoneInEverything) {
  const NetworkModel net;
  const double base = net.dkv_batch_time(10, 100'000, 100'000, 8);
  EXPECT_GT(net.dkv_batch_time(20, 100'000, 100'000, 8), base);
  EXPECT_GT(net.dkv_batch_time(10, 200'000, 200'000, 8), base);
  EXPECT_GT(net.dkv_batch_time(10, 100'000, 100'000, 64), base);
  EXPECT_DOUBLE_EQ(net.dkv_batch_time(0, 0, 0, 8), 0.0);
}

TEST(NetworkModelTest, TreeDepthIsCeilLog2) {
  EXPECT_EQ(NetworkModel::tree_depth(1), 0u);
  EXPECT_EQ(NetworkModel::tree_depth(2), 1u);
  EXPECT_EQ(NetworkModel::tree_depth(3), 2u);
  EXPECT_EQ(NetworkModel::tree_depth(64), 6u);
  EXPECT_EQ(NetworkModel::tree_depth(65), 7u);
}

TEST(NetworkModelTest, CollectiveTimeGrowsWithClusterAndPayload) {
  NetworkModel net;
  net.collective_skew_s = 0.0;
  EXPECT_DOUBLE_EQ(net.collective_time(1, 1024), 0.0);
  EXPECT_LT(net.collective_time(4, 1024), net.collective_time(64, 1024));
  EXPECT_LT(net.collective_time(64, 0), net.collective_time(64, 1 << 20));
}

TEST(NetworkModelTest, CoalescedTimeSavesPerRequestOverheadOnly) {
  NetworkModel net;
  const std::uint64_t rows = 1000;
  const std::uint64_t bytes = rows * 4100;
  const std::uint64_t shards = 15;
  const double per_row = net.dkv_batch_time(rows, bytes, bytes, 16);
  const double coalesced = net.dkv_coalesced_time(shards, bytes, bytes, 16);
  // Coalescing amortizes request overhead but moves the same bytes.
  EXPECT_LT(coalesced, per_row);
  EXPECT_NEAR(per_row - coalesced,
              static_cast<double>(rows - shards) * net.dkv_request_overhead_s,
              1e-12);
  // Degenerate case: one message per row is the uncoalesced cost.
  EXPECT_DOUBLE_EQ(net.dkv_coalesced_time(rows, bytes, bytes, 16), per_row);
}

// The skew term models the OS-jitter/straggler variance every collective
// absorbs: paid exactly once per operation, additively, on top of the
// tree transfer — and never by the degenerate one-rank "collective".
TEST(NetworkModelTest, CollectiveSkewIsOneAdditiveTermPerOperation) {
  NetworkModel with_skew;
  NetworkModel no_skew;
  no_skew.collective_skew_s = 0.0;
  for (const unsigned cluster : {2u, 4u, 64u}) {
    for (const std::uint64_t bytes : {std::uint64_t{0}, std::uint64_t{1} << 20}) {
      EXPECT_DOUBLE_EQ(with_skew.collective_time(cluster, bytes),
                       no_skew.collective_time(cluster, bytes) +
                           with_skew.collective_skew_s)
          << "cluster=" << cluster << " bytes=" << bytes;
    }
  }
  // Independent of depth: doubling the cluster grows the tree term, not
  // the skew term (up to the rounding of the `+ skew` additions).
  const double delta_skew = with_skew.collective_time(64, 1024) -
                            with_skew.collective_time(4, 1024);
  const double delta_no_skew =
      no_skew.collective_time(64, 1024) - no_skew.collective_time(4, 1024);
  EXPECT_NEAR(delta_skew, delta_no_skew, 1e-15);
  // One rank: no communication, no skew.
  EXPECT_DOUBLE_EQ(with_skew.collective_time(1, 1 << 20), 0.0);
  // A pure barrier (0 bytes) still pays the full skew.
  EXPECT_GE(with_skew.collective_time(2, 0), with_skew.collective_skew_s);
}

TEST(NetworkModelTest, ValidationCatchesNonsense) {
  NetworkModel net;
  net.bandwidth_Bps = 0.0;
  EXPECT_THROW(net.validate(), scd::UsageError);
  NetworkModel net2;
  net2.spread_efficiency = 1.5;
  EXPECT_THROW(net2.validate(), scd::UsageError);
}

}  // namespace
}  // namespace scd::comm
