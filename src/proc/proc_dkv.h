// Multi-process pi-row store: one shared-memory row region that every
// rank maps — the process-backend implementation of dkv::ShardedDkv.
//
// The paper's DKV is one-sided RDMA over a fixed layout of fixed-size
// values. Every rank of a ProcCluster runs on one host, so the faithful
// analogue is plain loads and stores into memory all ranks share. The
// launcher constructs the store *before* forking; the constructor
// creates one MAP_SHARED | MAP_ANONYMOUS mapping, and every child
// inherits the same physical pages (not a copy-on-write image). The
// mapping holds the shard -> effective-owner remap, then num_rows
// fixed-capacity slots of value_bytes(), each row encoded with the
// configured RowCodec — the same slots and codecs as the simulated
// store. So:
//   * get/put are range-checked decode/encode (or memcpy, for the
//     encoded variants) on the slots; the requester shard only matters
//     to the cost model, and every cost query returns 0.0 — on this
//     backend the callers charge measured wall time, not modeled
//     seconds;
//   * init_row, row() and read_row() work on any rank at any time —
//     before the fork, mid-run, and on the launcher after the run;
//   * rehome_shard() (fault tolerance) is one remap store. The heir
//     reads the live rows, including every write the dead worker made
//     before it fail-stopped, exactly as on the simulated store.
//
// Ordering. The slots carry no locks. That is sound under the sampler's
// stage discipline: its stage barriers and fault-tolerant ctrl round
// trips are socket syscalls, and a syscall pair (write on one rank,
// the matching read on another) orders every slot write made before
// the send ahead of every slot read made after the receive. Within a
// stage there are no write conflicts, because every vertex belongs to
// exactly one worker's share, and no rank reads a row another rank
// writes in the same stage.
#pragma once

#include <cstddef>
#include <cstdint>

#include <atomic>
#include <span>

#include "dkv/partition.h"
#include "dkv/sharded_dkv.h"

namespace scd::proc {

class ProcDkv final : public dkv::ShardedDkv {
 public:
  /// Maps the shared row region. Call in the launcher before forking.
  /// `num_ranks` counts the master: shard s belongs to rank s + 1.
  ProcDkv(std::uint64_t num_rows, std::uint32_t row_width,
          unsigned num_ranks, quant::RowCodec codec, float sparse_eps);
  ~ProcDkv() override;

  ProcDkv(const ProcDkv&) = delete;
  ProcDkv& operator=(const ProcDkv&) = delete;

  // -- DkvStore -----------------------------------------------------------
  std::uint64_t num_rows() const override { return partition_.num_rows(); }
  std::uint32_t row_width() const override { return row_width_; }
  quant::RowCodec codec() const override { return codec_; }
  std::size_t value_bytes() const override { return value_bytes_; }
  float sparse_eps() const override { return sparse_eps_; }

  void init_row(std::uint64_t key, std::span<const float> value) override;

  double get_rows(unsigned requester_shard,
                  std::span<const std::uint64_t> keys,
                  std::span<float> out) override;
  double put_rows(unsigned requester_shard,
                  std::span<const std::uint64_t> keys,
                  std::span<const float> values) override;
  double get_rows_encoded(unsigned requester_shard,
                          std::span<const std::uint64_t> keys,
                          std::span<std::byte> out) override;
  double put_rows_encoded(unsigned requester_shard,
                          std::span<const std::uint64_t> keys,
                          std::span<const std::byte> values) override;

  /// All zero: wall-clock callers measure instead of modeling.
  double read_cost(unsigned, std::uint64_t, std::uint64_t) const override {
    return 0.0;
  }
  double write_cost(unsigned, std::uint64_t, std::uint64_t) const override {
    return 0.0;
  }

  // -- ShardedDkv ---------------------------------------------------------
  const dkv::RowPartition& partition() const override { return partition_; }
  std::span<const float> row(std::uint64_t key) const override;
  void read_row(std::uint64_t key, std::span<float> out) const override;
  void rehome_shard(unsigned shard, unsigned new_owner) override;
  double rehome_cost(unsigned) const override { return 0.0; }
  unsigned effective_owner(std::uint64_t key) const override;

 private:
  /// Range-checked slot of `key` in the shared region.
  std::byte* slot(std::uint64_t key) const;

  dkv::RowPartition partition_;
  std::uint32_t row_width_;
  quant::RowCodec codec_;
  std::size_t value_bytes_;
  float sparse_eps_;

  /// The shared mapping, region_bytes_ long: the shard -> effective
  /// shard remap at its start (written by rehome_shard on any rank),
  /// the row slots at rows_.
  std::size_t region_bytes_ = 0;
  std::atomic<unsigned>* remap_ = nullptr;
  std::byte* rows_ = nullptr;
};

}  // namespace scd::proc
