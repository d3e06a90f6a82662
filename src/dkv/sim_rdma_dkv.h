// Simulated-RDMA DKV backend: pi sharded over the workers of a
// SimCluster, accessed with one-sided reads/writes costed by the
// NetworkModel.
//
// Storage is one contiguous array in process memory (all simulated ranks
// share the address space), logically block-partitioned by RowPartition.
// Because RDMA is one-sided, an access involves no code on the owner rank
// — matching the real system, where the remote NIC serves the read — so
// the only effects are the data copy and the requester's clock charge.
//
// Rows are stored *encoded* with the configured RowCodec
// (quant/row_codec.h); every byte-proportional cost — the coalesced
// remote messages, the local memory stream, shard re-homing — charges
// the bytes a row actually occupies, which is how the lossy codecs buy
// their modeled speedup. For the dense codecs that is value_bytes() per
// row exactly as before; for the sparse top-R codecs each row charges
// its own quant::row_bytes() (header + indices + kept values + tail),
// tracked per row as writes re-encode, so the wire cost follows the
// rows' true sparsity even though storage keeps fixed capacity slots.
// The default kFloat32 codec stores raw float rows and charges exactly
// the pre-codec byte counts.
//
// A *phantom* sparse store holds no rows to measure, so it charges a
// modeled per-row size instead: `sparse_modeled_nnz` kept entries
// (0 = auto, clamp(K/16, 8, K)), priced through the same layout
// formula. Cluster-made stores always take the auto size; the explicit
// count lets a test pin the phantom to a real store's nnz. Real and
// phantom stores answer the keyed cost queries with the same formula
// over per-row bytes, so cost-only runs stay in lockstep with real ones
// up to the tracked-vs-modeled nnz input.
//
// Safety: the algorithm's barrier-separated stages guarantee no
// read/write or write/write overlap on a row (Section III-B); the store
// checks nothing at runtime beyond bounds, exactly like its RDMA
// counterpart. Tests exercise the access discipline instead.
//
// Request coalescing: get_rows/put_rows group the batch by owner shard
// and charge ONE message per contacted shard (the real store batches
// requests per destination the same way), so per-request overhead is
// amortized across the rows bound for each shard. The keyed cost queries
// (read_cost_keys/write_cost_keys) apply the identical formula from the
// key multiset alone, so a phantom store charges exactly what a real one
// would. The count-based read_cost/write_cost remain for callers that
// only know row counts; they assume the remote rows spread over all
// C - 1 peer shards (the uniform-access expectation of Section IV-C).
//
// A store constructed with `phantom = true` allocates no storage and only
// answers cost queries — the cost-only execution mode for paper-scale
// parameter sweeps (N up to 65M, K up to 12288: 3 TB of pi in the real
// system).
#pragma once

#include <atomic>
#include <vector>

#include "comm/clock.h"
#include "comm/fault_hooks.h"
#include "comm/network_model.h"
#include "dkv/dkv.h"
#include "dkv/partition.h"
#include "dkv/sharded_dkv.h"
#include "sim/compute_model.h"
#include "trace/recorder.h"

namespace scd::dkv {

class SimRdmaDkv final : public ShardedDkv {
 public:
  SimRdmaDkv(std::uint64_t num_rows, std::uint32_t row_width,
             unsigned num_shards, const comm::NetworkModel& net,
             const sim::ComputeModel& node, bool phantom = false,
             quant::RowCodec codec = quant::RowCodec::kFloat32,
             float sparse_eps = quant::kDefaultSparseEps,
             std::uint32_t sparse_modeled_nnz = 0);

  std::uint64_t num_rows() const override { return partition_.num_rows(); }
  std::uint32_t row_width() const override { return row_width_; }
  quant::RowCodec codec() const override { return codec_; }
  std::size_t value_bytes() const override { return value_bytes_; }
  const RowPartition& partition() const override { return partition_; }
  bool phantom() const { return phantom_; }

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

  double read_cost(unsigned requester_shard, std::uint64_t local_rows,
                   std::uint64_t remote_rows) const override;
  double write_cost(unsigned requester_shard, std::uint64_t local_rows,
                    std::uint64_t remote_rows) const override;

  double read_cost_keys(unsigned requester_shard,
                        std::span<const std::uint64_t> keys) const override;
  double write_cost_keys(unsigned requester_shard,
                         std::span<const std::uint64_t> keys) const override;

  /// Direct row view (tests, perplexity snapshots). Only valid under the
  /// kFloat32 codec, where storage *is* the float row.
  std::span<const float> row(std::uint64_t key) const override;

  /// Decode one stored row into `out` (row_width floats). Untimed; works
  /// under every codec — the snapshot path for pi.
  void read_row(std::uint64_t key, std::span<float> out) const override;

  /// Average bytes one row currently costs on the wire: value_bytes()
  /// for the dense codecs; the tracked mean of quant::row_bytes() over
  /// all stored rows for a real sparse store; modeled_row_bytes() for a
  /// phantom sparse store. The FT snapshot wire model and the count-based
  /// cost queries price rows through this.
  double avg_row_wire_bytes() const override;

  /// Average kept pi entries per row (K for dense codecs; tracked mean
  /// for real sparse stores, the modeled nnz for phantom ones). The
  /// sampler's O(nnz) compute charges use this.
  double avg_row_nnz() const override;

  /// Modeled per-row wire bytes of a phantom sparse store (equals
  /// value_bytes() for dense codecs).
  std::size_t modeled_row_bytes() const { return modeled_row_bytes_; }

  /// Mass tolerance handed to quant::encode_row for the sparse codecs.
  float sparse_eps() const override { return sparse_eps_; }

  /// Install (or clear, with nullptr) fault hooks: coalesced messages to
  /// a stalled shard pay the plan's extra service delay. `clocks` supplies
  /// the requester's virtual time; shard s is served by the rank at index
  /// s + rank_offset (the sampler's worker-rank convention).
  void install_fault(const comm::FaultHooks* hooks,
                     const std::vector<comm::VirtualClock>* clocks,
                     unsigned rank_offset = 1) override;

  /// Install (or clear, with nullptr) a trace recorder: get_rows /
  /// put_rows and the phantom read_cost/write_cost operations count
  /// rows, remote rows, batches, and coalesced messages on the
  /// requesting worker's lane (shard s maps to lane s + rank_offset,
  /// the sampler's worker-rank convention). The passive keyed cost
  /// queries record nothing.
  void install_trace(trace::TraceRecorder* recorder,
                     unsigned rank_offset = 1) override;

  /// Re-home `shard`'s rows onto `new_owner` (a surviving shard) after
  /// its worker fail-stops: subsequent accesses treat those rows as owned
  /// by `new_owner` — local to its worker, one coalesced message from
  /// everyone else. The storage itself never moves (all simulated ranks
  /// share the address space); the orchestrator charges rehome_cost().
  void rehome_shard(unsigned shard, unsigned new_owner) override;

  /// Modeled bulk-transfer time of shipping `shard`'s rows to its heir.
  double rehome_cost(unsigned shard) const override;

  /// Effective owner of `key` after any re-homing.
  unsigned effective_owner(std::uint64_t key) const override {
    const unsigned owner = partition_.owner(key);
    return remap_.empty() ? owner : remap_[owner];
  }

 private:

  /// Locality census of a key batch: local/remote row counts and bytes,
  /// plus the number of distinct remote shards the batch touches (the
  /// message count under request coalescing).
  struct KeyTally {
    std::uint64_t local = 0;
    std::uint64_t remote = 0;
    std::uint64_t local_bytes = 0;
    std::uint64_t remote_bytes = 0;
    std::uint64_t shards_contacted = 0;
    /// Injected extra service delay summed over stalled contacted shards.
    double stall_s = 0.0;
  };
  KeyTally tally_keys(unsigned shard, std::span<const std::uint64_t> keys,
                      double now) const;
  double coalesced_cost(std::uint64_t local_bytes, std::uint64_t remote_bytes,
                        std::uint64_t shards_contacted) const;
  /// Wire bytes key currently charges (actual for real sparse stores,
  /// modeled for phantom ones, value_bytes() for dense codecs).
  std::size_t key_bytes(std::uint64_t key) const;
  /// Maintain the tracked byte/nnz totals around a row (re-)encode.
  void untrack_row(std::uint64_t key);
  void track_row(std::uint64_t key);
  /// Count one batch operation on the requester's metrics lane.
  void record_batch(unsigned requester_shard, std::uint64_t local_rows,
                    std::uint64_t remote_rows, std::uint64_t messages,
                    bool write) const;
  /// Requester's virtual time, 0 when no fault hooks are installed.
  double now_for(unsigned requester_shard) const {
    if (fault_ == nullptr || clocks_ == nullptr) return 0.0;
    return (*clocks_)[requester_shard + rank_offset_].now();
  }
  std::span<std::byte> stored(std::uint64_t key) {
    return {data_.data() + key * value_bytes_, value_bytes_};
  }
  std::span<const std::byte> stored(std::uint64_t key) const {
    return {data_.data() + key * value_bytes_, value_bytes_};
  }

  RowPartition partition_;
  std::uint32_t row_width_;
  comm::NetworkModel net_;
  sim::ComputeModel node_;
  bool phantom_;
  quant::RowCodec codec_;
  std::size_t value_bytes_;
  float sparse_eps_;
  /// True iff this store tracks per-row actual bytes (real + sparse).
  bool track_sparse_ = false;
  std::uint32_t modeled_nnz_ = 0;
  std::size_t modeled_row_bytes_ = 0;
  /// Running totals of quant::row_bytes / row_nnz over all stored rows;
  /// relaxed atomics because simulated rank threads share the store (the
  /// stage discipline keeps row writes disjoint, but the totals aren't).
  std::atomic<std::uint64_t> total_row_bytes_{0};
  std::atomic<std::uint64_t> total_row_nnz_{0};
  std::vector<std::byte> data_;
  std::vector<unsigned> remap_;  // shard -> effective shard; empty = identity
  const comm::FaultHooks* fault_ = nullptr;
  const std::vector<comm::VirtualClock>* clocks_ = nullptr;
  unsigned rank_offset_ = 1;
  trace::TraceRecorder* trace_ = nullptr;
  unsigned trace_rank_offset_ = 1;
};

}  // namespace scd::dkv
