// ProcDkv over real forked processes: cross-shard batched get/put with
// the barrier-separated stage discipline, encoded rows in the shared
// slots, rehoming as a remap every rank sees, and the launcher reading
// the final image after the run. Worker rank s + 1 owns shard s;
// assertions outside rank 0 throw instead of using gtest (only the
// parent's failures reach the test binary).
#include "proc/proc_dkv.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "proc/proc_cluster.h"
#include "quant/row_codec.h"

namespace scd::proc {
namespace {

constexpr std::uint64_t kRows = 8;
constexpr std::uint32_t kWidth = 4;

ProcCluster::Config cluster_config(unsigned ranks) {
  ProcCluster::Config config;
  config.num_ranks = ranks;
  config.recv_timeout_s = 30.0;
  return config;
}

void require(bool cond, const std::string& what) {
  if (!cond) throw std::runtime_error(what);
}

std::vector<float> initial_row(std::uint64_t key) {
  std::vector<float> row(kWidth);
  for (std::uint32_t j = 0; j < kWidth; ++j) {
    row[j] = static_cast<float>(key) + 0.25f * static_cast<float>(j);
  }
  return row;
}

std::vector<float> updated_row(std::uint64_t key) {
  std::vector<float> row(kWidth);
  for (std::uint32_t j = 0; j < kWidth; ++j) {
    row[j] = 100.0f + static_cast<float>(key * kWidth + j);
  }
  return row;
}

TEST(ProcDkvTest, CrossShardBatchesRoundTripAtFp32) {
  // 3 ranks -> 2 shards over 8 rows: shard 0 owns rows [0, 4) on rank 1,
  // shard 1 owns rows [4, 8) on rank 2.
  ProcCluster cluster(cluster_config(3));
  auto store = cluster.make_store(
      {.num_rows = kRows, .row_width = kWidth, .phantom = false});
  for (std::uint64_t key = 0; key < kRows; ++key) {
    store->init_row(key, initial_row(key));
  }

  cluster.run([&](comm::Context& ctx) {
    comm::Transport& net = ctx.transport();
    if (ctx.rank() == 1) {
      // One batch mixing an own-shard row (0) with rows of shard 1
      // (4, 6).
      const std::vector<std::uint64_t> keys = {0, 4, 6};
      std::vector<float> values;
      for (const std::uint64_t key : keys) {
        const std::vector<float> row = updated_row(key);
        values.insert(values.end(), row.begin(), row.end());
      }
      store->put_rows(/*requester_shard=*/0, keys, values);
    }
    net.barrier(ctx.rank());
    if (ctx.rank() == 2) {
      // Shard 1 reads the remote write into its own rows plus rank 1's
      // local write, again in one mixed batch.
      const std::vector<std::uint64_t> keys = {4, 6, 0, 5};
      std::vector<float> out(keys.size() * kWidth);
      store->get_rows(/*requester_shard=*/1, keys, out);
      for (std::size_t i = 0; i < keys.size(); ++i) {
        const std::vector<float> expect =
            keys[i] == 5 ? initial_row(5) : updated_row(keys[i]);
        for (std::uint32_t j = 0; j < kWidth; ++j) {
          require(out[i * kWidth + j] == expect[j],
                  "row " + std::to_string(keys[i]) + " mismatch on rank 2");
        }
      }
    }
    if (ctx.rank() == 0) {
      // The master reads single rows mid-run.
      std::vector<float> row(kWidth);
      store->read_row(6, row);
      EXPECT_EQ(row, updated_row(6));
    }
    net.barrier(ctx.rank());
  });

  // After the run the launcher's row() serves the final bytes,
  // bit-exact at fp32.
  for (std::uint64_t key = 0; key < kRows; ++key) {
    const bool written = key == 0 || key == 4 || key == 6;
    const std::vector<float> expect =
        written ? updated_row(key) : initial_row(key);
    const std::span<const float> got = store->row(key);
    ASSERT_EQ(got.size(), kWidth);
    for (std::uint32_t j = 0; j < kWidth; ++j) {
      EXPECT_EQ(got[j], expect[j]) << "row " << key << " entry " << j;
    }
  }
}

TEST(ProcDkvTest, LossyCodecMatchesLocalEncodeDecodeReference) {
  // Rows are stored encoded; what a reader sees must equal the local
  // encode->decode roundtrip of the written values, nothing lossier.
  ProcCluster cluster(cluster_config(3));
  auto store = cluster.make_store({.num_rows = kRows,
                                   .row_width = kWidth,
                                   .phantom = false,
                                   .codec = quant::RowCodec::kInt8});
  for (std::uint64_t key = 0; key < kRows; ++key) {
    store->init_row(key, initial_row(key));
  }

  auto reference = [](const std::vector<float>& row) {
    std::vector<std::byte> encoded(
        quant::encoded_bytes(quant::RowCodec::kInt8, kWidth));
    quant::encode_row(quant::RowCodec::kInt8, row, encoded);
    std::vector<float> decoded(kWidth);
    quant::decode_row(quant::RowCodec::kInt8, encoded, decoded);
    return decoded;
  };

  cluster.run([&](comm::Context& ctx) {
    comm::Transport& net = ctx.transport();
    if (ctx.rank() == 1) {
      store->put_rows(0, std::vector<std::uint64_t>{5}, updated_row(5));
    }
    net.barrier(ctx.rank());
    if (ctx.rank() == 2) {
      std::vector<float> out(kWidth);
      store->get_rows(1, std::vector<std::uint64_t>{5}, out);
      const std::vector<float> expect = reference(updated_row(5));
      require(out == expect, "int8 row differs from the local roundtrip");
    }
    net.barrier(ctx.rank());
  });

  std::vector<float> row(kWidth);
  store->read_row(5, row);
  EXPECT_EQ(row, reference(updated_row(5)));
  store->read_row(2, row);
  EXPECT_EQ(row, reference(initial_row(2)));
}

TEST(ProcDkvTest, RehomeRoutesReadsAndWritesToTheHeir) {
  // The FT re-homing step: the master re-points shard 0 onto shard 1
  // for every rank, restores a row (the mid-run init_row the rollback
  // restore uses), and every rank then reads the restored row.
  ProcCluster cluster(cluster_config(3));
  auto store = cluster.make_store(
      {.num_rows = kRows, .row_width = kWidth, .phantom = false});
  for (std::uint64_t key = 0; key < kRows; ++key) {
    store->init_row(key, initial_row(key));
  }

  cluster.run([&](comm::Context& ctx) {
    comm::Transport& net = ctx.transport();
    if (ctx.rank() == 0) {
      store->rehome_shard(/*shard=*/0, /*new_owner=*/1);
      EXPECT_EQ(store->effective_owner(1), 1u);
      store->init_row(1, updated_row(1));  // the rollback restore write
    }
    net.barrier(ctx.rank());
    if (ctx.rank() != 0) {
      require(store->effective_owner(1) == 1,
              "REHOME did not reach rank " + std::to_string(ctx.rank()));
      std::vector<float> out(kWidth);
      store->get_rows(ctx.rank() - 1, std::vector<std::uint64_t>{1}, out);
      require(out == updated_row(1),
              "rank " + std::to_string(ctx.rank()) +
                  " read a stale copy after rehome");
    }
    net.barrier(ctx.rank());
  });

  // The launcher sees the restored row after the run too.
  const std::span<const float> got = store->row(1);
  EXPECT_EQ(std::vector<float>(got.begin(), got.end()), updated_row(1));
}

TEST(ProcDkvTest, HeirSeesTheOwnersWritesAfterRehome) {
  // Redo-in-place recovery: the heir of a re-homed shard must serve the
  // rows as its previous owner last wrote them, with no restore between
  // the write and the read.
  ProcCluster cluster(cluster_config(3));
  auto store = cluster.make_store(
      {.num_rows = kRows, .row_width = kWidth, .phantom = false});
  for (std::uint64_t key = 0; key < kRows; ++key) {
    store->init_row(key, initial_row(key));
  }

  cluster.run([&](comm::Context& ctx) {
    comm::Transport& net = ctx.transport();
    if (ctx.rank() == 1) {
      // Row 1 belongs to rank 1's own shard 0.
      store->put_rows(0, std::vector<std::uint64_t>{1}, updated_row(1));
    }
    net.barrier(ctx.rank());
    if (ctx.rank() == 0) store->rehome_shard(/*shard=*/0, /*new_owner=*/1);
    net.barrier(ctx.rank());
    if (ctx.rank() == 2) {
      require(store->effective_owner(1) == 1, "rank 2 missed the rehome");
      std::vector<float> out(kWidth);
      store->get_rows(1, std::vector<std::uint64_t>{1}, out);
      require(out == updated_row(1),
              "the heir served a stale row 1 after rehome");
    }
    net.barrier(ctx.rank());
  });

  const std::span<const float> got = store->row(1);
  EXPECT_EQ(std::vector<float>(got.begin(), got.end()), updated_row(1));
}

TEST(ProcDkvTest, CostQueriesAreZeroOnTheWallClockBackend) {
  ProcCluster cluster(cluster_config(2));
  auto store = cluster.make_store(
      {.num_rows = kRows, .row_width = kWidth, .phantom = false});
  for (std::uint64_t key = 0; key < kRows; ++key) {
    store->init_row(key, initial_row(key));
  }
  EXPECT_EQ(store->read_cost(0, 4, kWidth * sizeof(float)), 0.0);
  EXPECT_EQ(store->write_cost(0, 4, kWidth * sizeof(float)), 0.0);
  EXPECT_EQ(store->rehome_cost(0), 0.0);
  cluster.run([&](comm::Context& ctx) {
    const std::vector<std::uint64_t> keys = {0, 3};
    std::vector<float> out(keys.size() * kWidth);
    const double modeled =
        store->get_rows(ctx.rank() == 0 ? 0 : ctx.rank() - 1, keys, out);
    if (modeled != 0.0) {
      throw std::runtime_error("proc get_rows returned a modeled time");
    }
  });
}

TEST(ProcDkvTest, PhantomStoresAreRejected) {
  ProcCluster cluster(cluster_config(2));
  EXPECT_THROW(cluster.make_store({.num_rows = kRows,
                                   .row_width = kWidth,
                                   .phantom = true}),
               scd::UsageError);
}

}  // namespace
}  // namespace scd::proc
