#include "dkv/cached_dkv.h"

#include <gtest/gtest.h>

#include "dkv/sim_rdma_dkv.h"
#include "random/xoshiro.h"
#include "trace/recorder.h"
#include "util/error.h"

namespace scd::dkv {
namespace {

sim::ComputeModel node() { return sim::ComputeModel{}; }

// Two shards, so requester shards 0 and 1 both exist.
struct Fixture {
  SimRdmaDkv inner;
  CachedDkv cache;

  explicit Fixture(std::uint64_t capacity)
      : inner(100, 3, 2, comm::NetworkModel{}, node()),
        cache(inner, capacity) {
    for (std::uint64_t v = 0; v < 100; ++v) {
      const auto f = static_cast<float>(v);
      inner.init_row(v, std::vector<float>{f, f + 0.5f, f + 0.25f});
    }
  }
};

TEST(CachedDkvTest, MissThenHitReturnsSameData) {
  Fixture f(8);
  std::vector<std::uint64_t> keys = {7};
  std::vector<float> out(3);
  f.cache.get_rows(0, keys, out);
  EXPECT_EQ(f.cache.misses(), 1u);
  std::vector<float> again(3);
  const double cost = f.cache.get_rows(0, keys, again);
  EXPECT_EQ(f.cache.hits(), 1u);
  EXPECT_EQ(out, again);
  // All hits: no inner fetch, just the local copy of one cached row.
  EXPECT_DOUBLE_EQ(cost, f.cache.hit_cost(1));
  EXPECT_GT(cost, 0.0);
}

TEST(CachedDkvTest, HitsCostLessThanRemoteMisses) {
  // Wrap a sharded store so misses pay network cost: a hit (local memcpy)
  // must be strictly cheaper than re-fetching the row remotely.
  SimRdmaDkv inner(100, 3, 4, comm::NetworkModel{}, node());
  for (std::uint64_t v = 0; v < 100; ++v) {
    const auto f = static_cast<float>(v);
    inner.init_row(v, std::vector<float>{f, f + 0.5f, f + 0.25f});
  }
  CachedDkv cache(inner, 8, node());
  std::vector<std::uint64_t> keys = {80};  // remote for requester shard 0
  std::vector<float> out(3);
  const double miss_cost = cache.get_rows(0, keys, out);
  const double hit_cost = cache.get_rows(0, keys, out);
  EXPECT_DOUBLE_EQ(miss_cost, inner.read_cost_keys(0, keys));
  EXPECT_LT(hit_cost, miss_cost);
  EXPECT_GT(hit_cost, 0.0);
}

TEST(CachedDkvTest, MixedBatchSplitsCorrectly) {
  Fixture f(8);
  std::vector<std::uint64_t> warm = {1, 2};
  std::vector<float> out(6);
  f.cache.get_rows(0, warm, out);
  std::vector<std::uint64_t> mixed = {2, 3, 1, 4};
  std::vector<float> out2(12);
  f.cache.get_rows(0, mixed, out2);
  EXPECT_EQ(f.cache.hits(), 2u);
  EXPECT_EQ(f.cache.misses(), 4u);  // 2 warm-up + 2 new
  // Row order preserved regardless of hit/miss interleaving.
  EXPECT_FLOAT_EQ(out2[0], 2.0f);
  EXPECT_FLOAT_EQ(out2[3], 3.0f);
  EXPECT_FLOAT_EQ(out2[6], 1.0f);
  EXPECT_FLOAT_EQ(out2[9], 4.0f);
}

TEST(CachedDkvTest, EvictsLeastRecentlyUsed) {
  Fixture f(2);
  std::vector<float> out(3);
  auto get = [&](std::uint64_t key) {
    std::vector<std::uint64_t> keys = {key};
    f.cache.get_rows(0, keys, out);
  };
  get(1);
  get(2);
  get(1);  // 1 now most recent
  get(3);  // evicts 2
  EXPECT_EQ(f.cache.cached_rows(), 2u);
  const std::uint64_t hits_before = f.cache.hits();
  get(1);
  EXPECT_EQ(f.cache.hits(), hits_before + 1);  // 1 survived
  get(2);
  EXPECT_EQ(f.cache.misses(), 4u);  // 1,2,3 cold + re-fetch of 2
}

TEST(CachedDkvTest, PutRefreshesCachedCopy) {
  Fixture f(4);
  std::vector<std::uint64_t> keys = {5};
  std::vector<float> out(3);
  f.cache.get_rows(0, keys, out);
  const std::vector<float> updated = {9.0f, 9.5f, 9.25f};
  f.cache.put_rows(0, keys, updated);
  f.cache.get_rows(0, keys, out);
  EXPECT_EQ(out, updated);  // hit served the fresh value
  EXPECT_EQ(f.cache.hits(), 1u);
}

TEST(CachedDkvTest, InvalidateAllForcesRefetch) {
  Fixture f(4);
  std::vector<std::uint64_t> keys = {5};
  std::vector<float> out(3);
  f.cache.get_rows(0, keys, out);
  f.cache.invalidate_all();
  EXPECT_EQ(f.cache.cached_rows(), 0u);
  f.cache.get_rows(0, keys, out);
  EXPECT_EQ(f.cache.misses(), 2u);
}

TEST(CachedDkvTest, UniformRandomAccessHitRateIsCapacityOverN) {
  // The paper's Section III-A claim, quantified: random-row reads hit a
  // cache of capacity C over N rows at rate ~C/N.
  Fixture f(10);  // capacity 10 of 100 rows
  rng::Xoshiro256 rng(3);
  std::vector<float> out(3);
  for (int i = 0; i < 20000; ++i) {
    std::vector<std::uint64_t> keys = {rng.next_below(100)};
    f.cache.get_rows(0, keys, out);
  }
  EXPECT_NEAR(f.cache.hit_rate(), 0.10, 0.02);
}

TEST(CachedDkvTest, ZeroCapacityRejected) {
  SimRdmaDkv inner(4, 2, 1, comm::NetworkModel{}, node());
  EXPECT_THROW(CachedDkv(inner, 0), scd::UsageError);
}

TEST(CachedDkvTest, TraceCountsHitAndMissRowsOnRequesterLane) {
  Fixture f(8);
  trace::TraceRecorder rec(4);
  f.cache.install_trace(&rec, /*rank_offset=*/1);  // shard s -> lane s+1

  std::vector<std::uint64_t> warm = {1, 2};
  std::vector<float> out(6);
  f.cache.get_rows(1, warm, out);  // 2 cold misses on lane 2
  std::vector<std::uint64_t> mixed = {2, 3, 1};
  std::vector<float> out2(9);
  f.cache.get_rows(1, mixed, out2);  // 2 hits + 1 miss on lane 2

  using trace::Metric;
  EXPECT_EQ(rec.metrics().counter(Metric::kDkvHits, 2), 2u);
  EXPECT_EQ(rec.metrics().counter(Metric::kDkvMisses, 2), 3u);
  EXPECT_EQ(rec.metrics().counter(Metric::kDkvHits, 1), 0u)
      << "counts land on the requester's lane only";
  EXPECT_EQ(rec.metrics().counter_total(Metric::kDkvHits),
            f.cache.hits());
  EXPECT_EQ(rec.metrics().counter_total(Metric::kDkvMisses),
            f.cache.misses());

  f.cache.install_trace(nullptr);
  f.cache.get_rows(1, mixed, out2);  // uninstalled: nothing more counted
  EXPECT_EQ(rec.metrics().counter_total(Metric::kDkvHits), 2u);
}

TEST(CachedDkvTest, TraceCostSplitHitsLocalMissesForwarded) {
  // The accounting contract behind the counters: a batch of H hits and
  // M misses costs exactly hit_cost(H) (local memcpy of the cached
  // rows) plus the inner store's price for the M missed keys.
  SimRdmaDkv inner(100, 3, 4, comm::NetworkModel{}, node());
  for (std::uint64_t v = 0; v < 100; ++v) {
    const auto f = static_cast<float>(v);
    inner.init_row(v, std::vector<float>{f, f + 0.5f, f + 0.25f});
  }
  CachedDkv cache(inner, 8, node());
  trace::TraceRecorder rec(5);
  cache.install_trace(&rec);

  std::vector<std::uint64_t> warm = {80, 81};  // remote for shard 0
  std::vector<float> out(6);
  cache.get_rows(0, warm, out);
  std::vector<std::uint64_t> mixed = {80, 81, 40};  // 2 hits + 1 miss
  std::vector<float> out2(9);
  const double cost = cache.get_rows(0, mixed, out2);
  const std::vector<std::uint64_t> missed = {40};
  EXPECT_DOUBLE_EQ(cost,
                   cache.hit_cost(2) + inner.read_cost_keys(0, missed));
  EXPECT_EQ(rec.metrics().counter(trace::Metric::kDkvHits, 1), 2u);
  EXPECT_EQ(rec.metrics().counter(trace::Metric::kDkvMisses, 1), 3u);
}

}  // namespace
}  // namespace scd::dkv
