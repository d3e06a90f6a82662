// DKV backends under the sparse top-R codecs: per-row byte accounting,
// phantom/real cost parity, cache behavior and eviction counting.
//
// Storage keeps fixed capacity slots (flat addressing), but every
// byte-proportional cost charges the bytes a row actually occupies —
// quant::row_bytes() — tracked per row as writes re-encode. Phantom
// stores have no rows to measure and price a modeled nnz through the
// same layout formula instead.
#include <cstddef>
#include <vector>

#include <gtest/gtest.h>

#include "dkv/cached_dkv.h"
#include "dkv/sim_rdma_dkv.h"
#include "quant/row_codec.h"
#include "random/xoshiro.h"
#include "trace/recorder.h"

namespace scd::dkv {
namespace {

using quant::RowCodec;

constexpr std::uint32_t kK = 128;
constexpr std::uint32_t kWidth = kK + 1;

sim::ComputeModel node() { return sim::ComputeModel{}; }

std::vector<float> concentrated_row(rng::Xoshiro256& rng, std::uint32_t k,
                                    std::uint32_t support) {
  std::vector<float> row(k + 1, 0.0f);
  double tsum = 0.0;
  std::vector<double> tail(k);
  for (std::uint32_t i = 0; i < k; ++i) {
    tail[i] = rng.next_double() + 0.1;
    tsum += tail[i];
  }
  for (std::uint32_t i = 0; i < k; ++i) {
    row[i] = static_cast<float>(tail[i] / tsum * 0.003);
  }
  std::vector<double> heavy(support);
  double hsum = 0.0;
  for (double& h : heavy) {
    h = 0.5 + rng.next_double();
    hsum += h;
  }
  const std::uint32_t stride = std::max(1u, k / support);
  for (std::uint32_t s = 0; s < support; ++s) {
    row[(s * stride) % k] = static_cast<float>(heavy[s] / hsum * 0.997);
  }
  row[k] = 9.0f;
  return row;
}

void fill_concentrated(DkvStore& store, std::uint64_t rows,
                       std::uint64_t seed, std::uint32_t support = 6) {
  rng::Xoshiro256 rng(seed);
  for (std::uint64_t v = 0; v < rows; ++v) {
    store.init_row(v, concentrated_row(rng, kK, support));
  }
}

TEST(SparseDkvTest, WireBytesTrackActualSparsity) {
  for (const RowCodec codec :
       {RowCodec::kSparseTopR, RowCodec::kSparseTopRFp16,
        RowCodec::kSparseTopRInt8}) {
    SimRdmaDkv store(32, kWidth, 4, comm::NetworkModel{}, node(), false,
                     codec);
    fill_concentrated(store, 32, 301);
    // Concentrated rows keep a handful of entries, so the tracked wire
    // bytes sit far below the capacity slot and the nnz far below K.
    EXPECT_LT(store.avg_row_wire_bytes(),
              0.5 * static_cast<double>(store.value_bytes()))
        << quant::codec_name(codec);
    EXPECT_LT(store.avg_row_nnz(), 16.0) << quant::codec_name(codec);
    EXPECT_GE(store.avg_row_nnz(), 1.0) << quant::codec_name(codec);

    SimRdmaDkv local(32, kWidth, 1, comm::NetworkModel{}, node(), false,
                     codec);
    fill_concentrated(local, 32, 301);
    EXPECT_NEAR(local.avg_row_wire_bytes(), store.avg_row_wire_bytes(),
                1e-9)
        << quant::codec_name(codec);
    EXPECT_NEAR(local.avg_row_nnz(), store.avg_row_nnz(), 1e-9);
  }
}

TEST(SparseDkvTest, DenseCodecsKeepFixedWireBytes) {
  SimRdmaDkv store(16, kWidth, 4, comm::NetworkModel{}, node(), false,
                   RowCodec::kFp16);
  fill_concentrated(store, 16, 303);
  EXPECT_DOUBLE_EQ(store.avg_row_wire_bytes(),
                   static_cast<double>(store.value_bytes()));
  EXPECT_DOUBLE_EQ(store.avg_row_nnz(), static_cast<double>(kK));
}

TEST(SparseDkvTest, SparseReadsCostLessOnTheModeledNetwork) {
  const std::vector<std::uint64_t> keys = {20, 21, 28, 30};  // all remote
  SimRdmaDkv dense(32, kWidth, 4, comm::NetworkModel{}, node(), false,
                   RowCodec::kFloat32);
  SimRdmaDkv sparse(32, kWidth, 4, comm::NetworkModel{}, node(), false,
                    RowCodec::kSparseTopR);
  fill_concentrated(dense, 32, 305);
  fill_concentrated(sparse, 32, 305);
  EXPECT_LT(sparse.read_cost_keys(0, keys), dense.read_cost_keys(0, keys));
  EXPECT_LT(sparse.write_cost_keys(0, keys),
            dense.write_cost_keys(0, keys));
}

TEST(SparseDkvTest, RewritesRetrackRowBytes) {
  SimRdmaDkv store(8, kWidth, 2, comm::NetworkModel{}, node(), false,
                   RowCodec::kSparseTopR);
  fill_concentrated(store, 8, 307, /*support=*/12);
  const double before = store.avg_row_wire_bytes();
  // Rewrite every row with a much more concentrated one: the tracked
  // average must drop to follow the new encodings.
  rng::Xoshiro256 rng(309);
  for (std::uint64_t v = 0; v < 8; ++v) {
    const std::vector<float> row = concentrated_row(rng, kK, 2);
    store.put_rows(0, std::vector<std::uint64_t>{v},
                   std::span<const float>(row));
  }
  EXPECT_LT(store.avg_row_wire_bytes(), before);
}

TEST(SparseDkvTest, GetRowsDecodesLikeTheCodec) {
  SimRdmaDkv store(12, kWidth, 3, comm::NetworkModel{}, node(), false,
                   RowCodec::kSparseTopRFp16);
  fill_concentrated(store, 12, 311);
  rng::Xoshiro256 ref_rng(311);
  for (std::uint64_t v = 0; v < 12; ++v) {
    const std::vector<float> original = concentrated_row(ref_rng, kK, 6);
    std::vector<std::byte> enc(
        quant::encoded_bytes(RowCodec::kSparseTopRFp16, kWidth));
    quant::encode_row(RowCodec::kSparseTopRFp16, original, enc,
                      store.sparse_eps());
    std::vector<float> ref(kWidth);
    quant::decode_row(RowCodec::kSparseTopRFp16, enc, ref);
    std::vector<float> got(kWidth);
    store.read_row(v, got);
    EXPECT_EQ(got, ref) << "v=" << v;
  }
}

TEST(SparseDkvTest, PhantomModelsRowBytesFromModeledNnz) {
  // Explicit modeled nnz: the phantom prices rows as header + indices +
  // values + tail for exactly that many kept entries.
  SimRdmaDkv phantom(1u << 20, kWidth, 8, comm::NetworkModel{}, node(),
                     /*phantom=*/true, RowCodec::kSparseTopR,
                     quant::kDefaultSparseEps, /*sparse_modeled_nnz=*/4);
  EXPECT_EQ(phantom.modeled_row_bytes(),
            quant::kSparseHeaderBytes +
                quant::sparse_payload_bytes(RowCodec::kSparseTopR, 4, kK));
  EXPECT_DOUBLE_EQ(phantom.avg_row_wire_bytes(),
                   static_cast<double>(phantom.modeled_row_bytes()));
  EXPECT_DOUBLE_EQ(phantom.avg_row_nnz(), 4.0);

  // Auto nnz: clamp(K/16, 8, K).
  SimRdmaDkv auto_phantom(1u << 20, kWidth, 8, comm::NetworkModel{}, node(),
                          true, RowCodec::kSparseTopR);
  EXPECT_DOUBLE_EQ(auto_phantom.avg_row_nnz(), 8.0);  // K=128 -> max(8, 8)

  // A phantom dense store is untouched by the sparse modeling.
  SimRdmaDkv dense_phantom(1u << 20, kWidth, 8, comm::NetworkModel{},
                           node(), true, RowCodec::kInt8);
  EXPECT_DOUBLE_EQ(dense_phantom.avg_row_wire_bytes(),
                   static_cast<double>(dense_phantom.value_bytes()));
}

TEST(SparseDkvTest, PhantomCostMatchesRealStoreWithSameNnz) {
  // A real store whose rows keep exactly `nnz` entries must charge the
  // same keyed costs as a phantom modeling that nnz — cost-only runs
  // stay in lockstep with real ones up to the nnz input.
  constexpr std::uint32_t kNnz = 4;
  SimRdmaDkv real(32, kWidth, 4, comm::NetworkModel{}, node(), false,
                  RowCodec::kSparseTopR);
  rng::Xoshiro256 rng(313);
  for (std::uint64_t v = 0; v < 32; ++v) {
    // Exactly kNnz heavy entries and a zero tail: the adaptive selection
    // keeps precisely those entries.
    std::vector<float> row(kWidth, 0.0f);
    for (std::uint32_t s = 0; s < kNnz; ++s) {
      row[(s * 31) % kK] = 0.25f + 0.01f * static_cast<float>(s);
    }
    row[kK] = 5.0f;
    real.init_row(v, row);
  }
  ASSERT_DOUBLE_EQ(real.avg_row_nnz(), static_cast<double>(kNnz));
  SimRdmaDkv phantom(32, kWidth, 4, comm::NetworkModel{}, node(), true,
                     RowCodec::kSparseTopR, quant::kDefaultSparseEps,
                     kNnz);
  const std::vector<std::uint64_t> keys = {1, 9, 17, 25, 26};
  EXPECT_DOUBLE_EQ(phantom.read_cost_keys(0, keys),
                   real.read_cost_keys(0, keys));
  EXPECT_DOUBLE_EQ(phantom.write_cost_keys(0, keys),
                   real.write_cost_keys(0, keys));
}

TEST(SparseDkvTest, CachedDkvCountsEvictionsAndReportsMetric) {
  SimRdmaDkv inner(64, kWidth, 4, comm::NetworkModel{}, node(), false,
                   RowCodec::kSparseTopR);
  fill_concentrated(inner, 64, 315);
  CachedDkv cache(inner, /*capacity_rows=*/2, node());
  trace::TraceRecorder recorder(5);
  cache.install_trace(&recorder, /*rank_offset=*/1);

  std::vector<float> out(kWidth);
  for (const std::uint64_t key : {20ull, 30ull, 40ull}) {
    cache.get_rows(0, std::vector<std::uint64_t>{key}, out);
  }
  // Capacity 2, three distinct rows: the first insert is displaced.
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_EQ(cache.cached_rows(), 2u);
  using trace::Metric;
  EXPECT_EQ(recorder.metrics().counter_total(Metric::kDkvEvictions), 1u);
  EXPECT_EQ(recorder.metrics().counter(Metric::kDkvEvictions, 1), 1u);

  // Coherence flushes are not evictions.
  cache.invalidate_all();
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_EQ(recorder.metrics().counter_total(Metric::kDkvEvictions), 1u);
}

TEST(SparseDkvTest, CacheHitStreamsActualSparseBytes) {
  SimRdmaDkv sparse_inner(64, kWidth, 4, comm::NetworkModel{}, node(),
                          false, RowCodec::kSparseTopR);
  fill_concentrated(sparse_inner, 64, 317);
  CachedDkv sparse_cache(sparse_inner, 16, node());
  SimRdmaDkv dense_inner(64, kWidth, 4, comm::NetworkModel{}, node());
  CachedDkv dense_cache(dense_inner, 16, node());
  // Hits price avg_row_wire_bytes, so a sparse cache is cheaper to hit
  // than an fp32 cache of the same shape.
  EXPECT_LT(sparse_cache.hit_cost(8), dense_cache.hit_cost(8));
}

}  // namespace
}  // namespace scd::dkv
