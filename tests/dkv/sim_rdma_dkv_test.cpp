#include "dkv/sim_rdma_dkv.h"

#include <gtest/gtest.h>

#include "random/xoshiro.h"
#include "util/error.h"

namespace scd::dkv {
namespace {

comm::NetworkModel net() {
  comm::NetworkModel n;
  n.collective_skew_s = 0.0;
  return n;
}

sim::ComputeModel node() { return sim::ComputeModel{}; }

class RdmaRoundTripTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(RdmaRoundTripTest, RandomRoundTripAcrossShards) {
  const unsigned shards = GetParam();
  SimRdmaDkv store(97, 5, shards, net(), node());
  rng::Xoshiro256 rng(shards);
  // Write every row from a rotating requester, read back from another.
  std::vector<float> row(5);
  for (std::uint64_t key = 0; key < 97; ++key) {
    for (int i = 0; i < 5; ++i) {
      row[static_cast<std::size_t>(i)] = static_cast<float>(key * 10 + static_cast<std::uint64_t>(i));
    }
    std::vector<std::uint64_t> keys = {key};
    store.put_rows(static_cast<unsigned>(key % shards), keys, row);
  }
  std::vector<float> out(5);
  for (std::uint64_t key = 0; key < 97; ++key) {
    std::vector<std::uint64_t> keys = {key};
    store.get_rows(static_cast<unsigned>((key + 1) % shards), keys, out);
    EXPECT_EQ(out[0], static_cast<float>(key * 10));
    EXPECT_EQ(out[4], static_cast<float>(key * 10 + 4));
  }
}

INSTANTIATE_TEST_SUITE_P(Shards, RdmaRoundTripTest,
                         ::testing::Values(1u, 2u, 7u, 64u));

TEST(RdmaDkvTest, LocalRowsCostLessThanRemote) {
  SimRdmaDkv store(64, 128, 4, net(), node());
  const double local = store.read_cost(0, 16, 0);
  const double remote = store.read_cost(0, 0, 16);
  EXPECT_LT(local, remote);
}

TEST(RdmaDkvTest, GetRowsChargesByActualLocality) {
  SimRdmaDkv store(100, 4, 4, net(), node());
  for (std::uint64_t v = 0; v < 100; ++v) {
    store.init_row(v, std::vector<float>(4, 1.0f));
  }
  // Shard 0 owns rows [0, 25); all-local batch vs all-remote batch.
  std::vector<std::uint64_t> local_keys = {0, 5, 10};
  std::vector<std::uint64_t> remote_keys = {30, 60, 90};
  std::vector<float> out(12);
  const double t_local = store.get_rows(0, local_keys, out);
  const double t_remote = store.get_rows(0, remote_keys, out);
  EXPECT_DOUBLE_EQ(t_local, store.read_cost(0, 3, 0));
  EXPECT_DOUBLE_EQ(t_remote, store.read_cost(0, 0, 3));
  EXPECT_LT(t_local, t_remote);
}

TEST(RdmaDkvTest, RemoteFractionMatchesFormula) {
  SimRdmaDkv store(100, 4, 5, net(), node());
  EXPECT_DOUBLE_EQ(store.remote_fraction(), 0.8);
}

TEST(RdmaDkvTest, CostGrowsWithClusterCongestion) {
  SimRdmaDkv small(1000, 64, 2, net(), node());
  SimRdmaDkv large(1000, 64, 64, net(), node());
  EXPECT_LT(small.read_cost(0, 0, 100), large.read_cost(0, 0, 100));
}

TEST(RdmaDkvTest, PhantomAnswersCostsButHoldsNoData) {
  SimRdmaDkv store(1u << 30, 12289, 64, net(), node(), /*phantom=*/true);
  EXPECT_TRUE(store.phantom());
  EXPECT_GT(store.read_cost(0, 100, 6300), 0.0);
  std::vector<std::uint64_t> keys = {0};
  std::vector<float> out(12289);
  EXPECT_THROW(store.get_rows(0, keys, out), scd::UsageError);
  EXPECT_THROW(store.init_row(0, out), scd::UsageError);
}

TEST(RdmaDkvTest, PhantomAndRealCostsAgree) {
  SimRdmaDkv real(1000, 65, 8, net(), node());
  SimRdmaDkv phantom(1000, 65, 8, net(), node(), /*phantom=*/true);
  EXPECT_DOUBLE_EQ(real.read_cost(3, 10, 70), phantom.read_cost(3, 10, 70));
  EXPECT_DOUBLE_EQ(real.write_cost(3, 10, 70),
                   phantom.write_cost(3, 10, 70));
}

// ---- request coalescing -------------------------------------------------

TEST(RdmaDkvTest, GetRowsChargesKeyedCoalescedCost) {
  SimRdmaDkv store(100, 4, 4, net(), node());
  for (std::uint64_t v = 0; v < 100; ++v) {
    store.init_row(v, std::vector<float>(4, 1.0f));
  }
  std::vector<std::uint64_t> keys = {30, 31, 32, 60, 61, 90, 5};
  std::vector<float> out(keys.size() * 4);
  EXPECT_DOUBLE_EQ(store.get_rows(0, keys, out),
                   store.read_cost_keys(0, keys));
  EXPECT_DOUBLE_EQ(store.put_rows(0, keys, out),
                   store.write_cost_keys(0, keys));
}

TEST(RdmaDkvTest, CoalescedCostAtMostPerRowCost) {
  // The keyed (per-shard-coalesced) cost can never exceed the seed's
  // one-request-per-row cost for the same key multiset.
  SimRdmaDkv store(1000, 65, 8, net(), node());
  const comm::NetworkModel n = net();
  rng::Xoshiro256 rng(7);
  const std::uint64_t row_bytes = 65 * sizeof(float);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<std::uint64_t> keys;
    for (int i = 0; i < 200; ++i) keys.push_back(rng.next_below(1000));
    std::uint64_t local = 0;
    for (std::uint64_t key : keys) {
      if (store.partition().owner(key) == 2u) ++local;
    }
    const std::uint64_t remote = keys.size() - local;
    const double per_row =
        node().local_bytes_time(local * row_bytes) +
        n.dkv_batch_time(remote, remote * row_bytes, remote * row_bytes, 8);
    EXPECT_LE(store.read_cost_keys(2, keys), per_row);
  }
}

TEST(RdmaDkvTest, CoalescedCostGrowsWithShardsContacted) {
  // Same local/remote counts, more distinct destinations -> more
  // per-message overhead.
  SimRdmaDkv store(100, 4, 4, net(), node());
  // Shard 0 asks: 3 rows all on shard 1 vs spread over shards 1..3.
  std::vector<std::uint64_t> one_shard = {30, 31, 32};
  std::vector<std::uint64_t> three_shards = {30, 60, 90};
  EXPECT_LT(store.read_cost_keys(0, one_shard),
            store.read_cost_keys(0, three_shards));
}

TEST(RdmaDkvTest, DuplicateKeysChargeFullTraffic) {
  // The store itself does NOT dedup — every reference in the batch is
  // transferred (dedup is the sampler's KeyIndex stage, tested there).
  SimRdmaDkv store(100, 4, 4, net(), node());
  for (std::uint64_t v = 0; v < 100; ++v) {
    store.init_row(v, std::vector<float>(4, 1.0f));
  }
  std::vector<std::uint64_t> once = {60};
  std::vector<std::uint64_t> thrice = {60, 60, 60};
  std::vector<float> out(12);
  EXPECT_GT(store.get_rows(0, thrice, out),
            store.get_rows(0, once, std::span<float>(out.data(), 4)));
}

TEST(RdmaDkvTest, PhantomAndRealKeyedCostsAgree) {
  // Acceptance criterion: identical key multisets cost the same in
  // real and cost-only mode — the coalescing layer needs no data.
  SimRdmaDkv real(1000, 65, 8, net(), node());
  SimRdmaDkv phantom(1000, 65, 8, net(), node(), /*phantom=*/true);
  rng::Xoshiro256 rng(11);
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<std::uint64_t> keys;
    for (int i = 0; i < 150; ++i) keys.push_back(rng.next_below(1000));
    const unsigned requester = static_cast<unsigned>(trial % 8);
    EXPECT_DOUBLE_EQ(real.read_cost_keys(requester, keys),
                     phantom.read_cost_keys(requester, keys));
    EXPECT_DOUBLE_EQ(real.write_cost_keys(requester, keys),
                     phantom.write_cost_keys(requester, keys));
  }
}

TEST(RdmaDkvTest, WidthMismatchThrows) {
  SimRdmaDkv store(10, 4, 2, net(), node());
  EXPECT_THROW(store.init_row(0, std::vector<float>(3, 0.0f)),
               scd::UsageError);
}

}  // namespace
}  // namespace scd::dkv
