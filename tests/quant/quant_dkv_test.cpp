// DKV backends under lossy codecs: storage, costs, caching, dedup.
#include <cstddef>
#include <vector>

#include <gtest/gtest.h>

#include "dkv/cached_dkv.h"
#include "dkv/key_index.h"
#include "dkv/sim_rdma_dkv.h"
#include "quant/row_codec.h"
#include "random/xoshiro.h"

namespace scd::dkv {
namespace {

using quant::RowCodec;

constexpr std::uint32_t kWidth = 65;  // K = 64 plus the phi_sum slot

sim::ComputeModel node() { return sim::ComputeModel{}; }

std::vector<float> make_row(rng::Xoshiro256& rng, std::uint32_t k) {
  std::vector<float> row(k + 1);
  double sum = 0.0;
  for (std::uint32_t i = 0; i < k; ++i) {
    row[i] = static_cast<float>(rng.next_double()) + 1e-6f;
    sum += row[i];
  }
  const float inv = static_cast<float>(1.0 / sum);
  for (std::uint32_t i = 0; i < k; ++i) row[i] *= inv;
  row[k] = 10.0f + static_cast<float>(k);
  return row;
}

void fill(DkvStore& store, std::uint64_t rows, std::uint64_t seed) {
  rng::Xoshiro256 rng(seed);
  for (std::uint64_t v = 0; v < rows; ++v) {
    store.init_row(v, make_row(rng, kWidth - 1));
  }
}

TEST(QuantDkvTest, ValueBytesFollowsCodec) {
  for (const RowCodec codec :
       {RowCodec::kFloat32, RowCodec::kFp16, RowCodec::kInt8}) {
    SimRdmaDkv local(10, kWidth, 1, comm::NetworkModel{}, node(), false,
                     codec);
    SimRdmaDkv shard(10, kWidth, 4, comm::NetworkModel{}, node(), false,
                     codec);
    EXPECT_EQ(local.codec(), codec);
    EXPECT_EQ(local.value_bytes(), quant::encoded_bytes(codec, kWidth));
    EXPECT_EQ(shard.value_bytes(), quant::encoded_bytes(codec, kWidth));
  }
}

TEST(QuantDkvTest, GetRowsDecodesWithinCodecBounds) {
  for (const RowCodec codec :
       {RowCodec::kFloat32, RowCodec::kFp16, RowCodec::kInt8}) {
    SimRdmaDkv store(20, kWidth, 4, comm::NetworkModel{}, node(), false,
                     codec);
    fill(store, 20, 71);
    rng::Xoshiro256 rng(71);
    const std::vector<std::uint64_t> keys = {3, 17, 3};
    std::vector<float> out(keys.size() * kWidth);
    store.get_rows(0, keys, out);
    rng::Xoshiro256 ref_rng(71);
    std::vector<std::vector<float>> rows;
    for (std::uint64_t v = 0; v < 20; ++v) {
      rows.push_back(make_row(ref_rng, kWidth - 1));
    }
    for (std::size_t i = 0; i < keys.size(); ++i) {
      const std::vector<float>& ref = rows[keys[i]];
      for (std::uint32_t j = 0; j < kWidth; ++j) {
        const float got = out[i * kWidth + j];
        if (codec == RowCodec::kFloat32 || j == kWidth - 1) {
          EXPECT_EQ(got, ref[j]) << "i=" << i << " j=" << j;
        } else {
          // Codec error bounds are tested precisely in row_codec_test;
          // here it is enough that the store round-trips the encoding.
          EXPECT_NEAR(got, ref[j], 1e-3f) << "i=" << i << " j=" << j;
        }
      }
    }
  }
}

TEST(QuantDkvTest, EncodedAndDecodedBatchesChargeTheSameTime) {
  SimRdmaDkv store(64, kWidth, 4, comm::NetworkModel{}, node(), false,
                   RowCodec::kInt8);
  fill(store, 64, 73);
  const std::vector<std::uint64_t> keys = {1, 40, 63, 2};
  std::vector<float> decoded(keys.size() * kWidth);
  std::vector<std::byte> encoded(keys.size() * store.value_bytes());
  const double t_dec = store.get_rows(0, keys, decoded);
  const double t_enc = store.get_rows_encoded(0, keys, encoded);
  EXPECT_DOUBLE_EQ(t_enc, t_dec);
  EXPECT_DOUBLE_EQ(t_dec, store.read_cost_keys(0, keys));
  // The encoded batch is the stored bytes; decoding them reproduces the
  // float batch exactly (same stored codes).
  std::vector<float> rederived(kWidth);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    quant::decode_row(
        RowCodec::kInt8,
        std::span<const std::byte>{encoded.data() + i * store.value_bytes(),
                                   store.value_bytes()},
        rederived);
    for (std::uint32_t j = 0; j < kWidth; ++j) {
      EXPECT_EQ(rederived[j], decoded[i * kWidth + j]) << "i=" << i;
    }
  }
}

TEST(QuantDkvTest, LossyCodecsCostLessOnTheModeledNetwork) {
  // Same keys, same shard layout; the only difference is value_bytes.
  const std::vector<std::uint64_t> keys = {40, 41, 50, 60};  // all remote
  double cost[3] = {};
  for (const RowCodec codec :
       {RowCodec::kFloat32, RowCodec::kFp16, RowCodec::kInt8}) {
    SimRdmaDkv store(64, kWidth, 4, comm::NetworkModel{}, node(), false,
                     codec);
    fill(store, 64, 75);
    cost[static_cast<int>(codec)] = store.read_cost_keys(0, keys);
  }
  EXPECT_LT(cost[1], cost[0]);  // fp16 < fp32
  EXPECT_LT(cost[2], cost[1]);  // int8 < fp16
}

TEST(QuantDkvTest, KeyIndexDedupWithEncodedRows) {
  // The worker loop fetches unique keys encoded and expands refs through
  // remap(); duplicate references must see the identical encoded row.
  SimRdmaDkv store(32, kWidth, 4, comm::NetworkModel{}, node(), false,
                   RowCodec::kFp16);
  fill(store, 32, 77);
  const std::vector<std::uint64_t> refs = {9, 4, 9, 30, 4, 9};
  KeyIndex index;
  index.build(refs);
  ASSERT_EQ(index.unique_keys().size(), 3u);
  const std::size_t vbytes = store.value_bytes();
  std::vector<std::byte> rows(index.unique_keys().size() * vbytes);
  store.get_rows_encoded(0, index.unique_keys(), rows);
  std::vector<float> direct(kWidth);
  std::vector<float> via_remap(kWidth);
  for (std::size_t i = 0; i < refs.size(); ++i) {
    std::vector<float> one(kWidth);
    store.get_rows(0, std::vector<std::uint64_t>{refs[i]}, one);
    const std::size_t slot = index.remap()[i];
    quant::decode_row(
        RowCodec::kFp16,
        std::span<const std::byte>{rows.data() + slot * vbytes, vbytes},
        via_remap);
    EXPECT_EQ(via_remap, one) << "ref " << i;
  }
}

TEST(QuantDkvTest, CachedDkvAccountsHitsOnEncodedRows) {
  SimRdmaDkv inner(64, kWidth, 4, comm::NetworkModel{}, node(), false,
                   RowCodec::kInt8);
  fill(inner, 64, 79);
  CachedDkv cache(inner, 16, node());
  const std::vector<std::uint64_t> keys = {48};  // remote for shard 0
  std::vector<float> out(kWidth);
  const double miss_cost = cache.get_rows(0, keys, out);
  EXPECT_EQ(cache.misses(), 1u);
  std::vector<float> again(kWidth);
  const double hit_cost = cache.get_rows(0, keys, again);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(out, again);  // cache serves the same encoded bytes
  EXPECT_DOUBLE_EQ(hit_cost, cache.hit_cost(1));
  EXPECT_LT(hit_cost, miss_cost);

  // A hit moves value_bytes(), so the int8 cache is cheaper to hit than
  // an fp32 cache of the same shape.
  SimRdmaDkv inner32(64, kWidth, 4, comm::NetworkModel{}, node());
  CachedDkv cache32(inner32, 16, node());
  EXPECT_LT(cache.hit_cost(1), cache32.hit_cost(1));
}

TEST(QuantDkvTest, ReadRowMatchesGetRows) {
  SimRdmaDkv store(16, kWidth, 2, comm::NetworkModel{}, node(), false,
                   RowCodec::kInt8);
  fill(store, 16, 81);
  std::vector<float> via_get(kWidth);
  std::vector<float> via_read(kWidth);
  for (std::uint64_t v = 0; v < 16; ++v) {
    store.get_rows(0, std::vector<std::uint64_t>{v}, via_get);
    store.read_row(v, via_read);
    EXPECT_EQ(via_read, via_get) << "v=" << v;
  }
}

}  // namespace
}  // namespace scd::dkv
