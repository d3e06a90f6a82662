#include "dkv/sim_rdma_dkv.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "util/error.h"

namespace scd::dkv {

SimRdmaDkv::SimRdmaDkv(std::uint64_t num_rows, std::uint32_t row_width,
                       unsigned num_shards, const comm::NetworkModel& net,
                       const sim::ComputeModel& node, bool phantom,
                       quant::RowCodec codec, float sparse_eps,
                       std::uint32_t sparse_modeled_nnz)
    : partition_(num_rows, num_shards),
      row_width_(row_width),
      net_(net),
      node_(node),
      phantom_(phantom),
      codec_(codec),
      value_bytes_(quant::encoded_bytes(codec, row_width)),
      sparse_eps_(sparse_eps) {
  SCD_REQUIRE(num_rows >= 1 && row_width >= 1, "empty store");
  net_.validate();
  modeled_row_bytes_ = value_bytes_;
  if (quant::is_sparse(codec_)) {
    const std::uint32_t k = row_width_ - 1;
    std::uint32_t nnz = sparse_modeled_nnz != 0
                            ? sparse_modeled_nnz
                            : std::max<std::uint32_t>(k / 16, 8);
    modeled_nnz_ = std::min(nnz, k);
    modeled_row_bytes_ = std::min(
        quant::kSparseHeaderBytes +
            quant::sparse_payload_bytes(codec_, modeled_nnz_, k),
        value_bytes_);
  }
  if (!phantom_) {
    data_.assign(num_rows * value_bytes_, std::byte{0});
    if (quant::is_sparse(codec_)) {
      track_sparse_ = true;
      // All-zero slots parse as empty sparse rows; seed the totals so
      // every later track/untrack delta keeps them exact.
      total_row_bytes_.store(
          num_rows * quant::row_bytes(codec_, row_width_, stored(0)),
          std::memory_order_relaxed);
      total_row_nnz_.store(0, std::memory_order_relaxed);
    }
  }
}

std::size_t SimRdmaDkv::key_bytes(std::uint64_t key) const {
  if (!quant::is_sparse(codec_)) return value_bytes_;
  if (phantom_) return modeled_row_bytes_;
  return quant::row_bytes(codec_, row_width_, stored(key));
}

void SimRdmaDkv::untrack_row(std::uint64_t key) {
  if (!track_sparse_) return;
  total_row_bytes_.fetch_sub(quant::row_bytes(codec_, row_width_, stored(key)),
                             std::memory_order_relaxed);
  total_row_nnz_.fetch_sub(quant::row_nnz(codec_, row_width_, stored(key)),
                           std::memory_order_relaxed);
}

void SimRdmaDkv::track_row(std::uint64_t key) {
  if (!track_sparse_) return;
  total_row_bytes_.fetch_add(quant::row_bytes(codec_, row_width_, stored(key)),
                             std::memory_order_relaxed);
  total_row_nnz_.fetch_add(quant::row_nnz(codec_, row_width_, stored(key)),
                           std::memory_order_relaxed);
}

double SimRdmaDkv::avg_row_wire_bytes() const {
  if (!quant::is_sparse(codec_)) return static_cast<double>(value_bytes_);
  if (phantom_) return static_cast<double>(modeled_row_bytes_);
  return static_cast<double>(total_row_bytes_.load(std::memory_order_relaxed)) /
         static_cast<double>(num_rows());
}

double SimRdmaDkv::avg_row_nnz() const {
  if (!quant::is_sparse(codec_)) return static_cast<double>(row_width_ - 1);
  if (phantom_) return static_cast<double>(modeled_nnz_);
  return static_cast<double>(total_row_nnz_.load(std::memory_order_relaxed)) /
         static_cast<double>(num_rows());
}

void SimRdmaDkv::init_row(std::uint64_t key, std::span<const float> value) {
  SCD_REQUIRE(!phantom_, "phantom store holds no data");
  SCD_REQUIRE(key < num_rows(), "row key out of range");
  SCD_REQUIRE(value.size() == row_width_, "row width mismatch");
  untrack_row(key);
  quant::encode_row(codec_, value, stored(key), sparse_eps_);
  track_row(key);
}

std::span<const float> SimRdmaDkv::row(std::uint64_t key) const {
  SCD_REQUIRE(!phantom_, "phantom store holds no data");
  SCD_REQUIRE(codec_ == quant::RowCodec::kFloat32,
              "direct row views require the fp32 codec");
  SCD_ASSERT(key < num_rows(), "row key out of range");
  return {reinterpret_cast<const float*>(data_.data()) + key * row_width_,
          row_width_};
}

void SimRdmaDkv::read_row(std::uint64_t key, std::span<float> out) const {
  SCD_REQUIRE(!phantom_, "phantom store holds no data");
  SCD_ASSERT(key < num_rows(), "row key out of range");
  quant::decode_row(codec_, stored(key), out);
}

SimRdmaDkv::KeyTally SimRdmaDkv::tally_keys(
    unsigned shard, std::span<const std::uint64_t> keys, double now) const {
  // Epoch-stamped per-shard marks: counting distinct shards is O(batch)
  // with no clearing pass and no steady-state allocation. thread_local
  // because one store is shared by all simulated rank threads.
  static thread_local std::vector<std::uint32_t> stamp;
  static thread_local std::uint32_t epoch = 0;
  if (stamp.size() < partition_.num_shards()) {
    stamp.assign(partition_.num_shards(), 0);
    epoch = 0;
  }
  if (++epoch == 0) {  // wrapped: stale stamps could alias the new epoch
    std::fill(stamp.begin(), stamp.end(), 0u);
    epoch = 1;
  }
  KeyTally t;
  const bool remapped = !remap_.empty();
  const auto [lo, hi] = partition_.range(shard);
  // Dense codecs charge the same bytes for every row; hoist the lookup.
  const bool uniform = !quant::is_sparse(codec_);
  const std::size_t uniform_bytes = uniform ? value_bytes_ : 0;
  for (std::uint64_t key : keys) {
    SCD_ASSERT(key < num_rows(), "row key out of range");
    const std::size_t bytes = uniform ? uniform_bytes : key_bytes(key);
    unsigned owner;
    if (!remapped) {
      if (key >= lo && key < hi) {
        ++t.local;
        t.local_bytes += bytes;
        continue;
      }
      owner = partition_.owner(key);
    } else {
      owner = remap_[partition_.owner(key)];
      if (owner == shard) {
        ++t.local;
        t.local_bytes += bytes;
        continue;
      }
    }
    ++t.remote;
    t.remote_bytes += bytes;
    if (stamp[owner] != epoch) {
      stamp[owner] = epoch;
      ++t.shards_contacted;
      if (fault_ != nullptr) t.stall_s += fault_->shard_stall_s(owner, now);
    }
  }
  return t;
}

void SimRdmaDkv::install_fault(const comm::FaultHooks* hooks,
                               const std::vector<comm::VirtualClock>* clocks,
                               unsigned rank_offset) {
  SCD_REQUIRE(hooks == nullptr || clocks != nullptr,
              "fault hooks need the rank clocks");
  fault_ = hooks;
  clocks_ = clocks;
  rank_offset_ = rank_offset;
}

void SimRdmaDkv::install_trace(trace::TraceRecorder* recorder,
                               unsigned rank_offset) {
  trace_ = recorder;
  trace_rank_offset_ = rank_offset;
}

void SimRdmaDkv::record_batch(unsigned requester_shard,
                              std::uint64_t local_rows,
                              std::uint64_t remote_rows,
                              std::uint64_t messages, bool write) const {
  if (trace_ == nullptr) return;
  const unsigned lane = requester_shard + trace_rank_offset_;
  if (lane >= trace_->num_lanes()) return;
  trace::MetricsRegistry& metrics = trace_->metrics();
  metrics.count(write ? trace::Metric::kDkvRowsWritten
                      : trace::Metric::kDkvRowsRead,
                lane, local_rows + remote_rows);
  metrics.count(trace::Metric::kDkvRemoteRows, lane, remote_rows);
  metrics.count(trace::Metric::kDkvBatches, lane);
  metrics.count(trace::Metric::kDkvMessages, lane, messages);
}

void SimRdmaDkv::rehome_shard(unsigned shard, unsigned new_owner) {
  SCD_REQUIRE(shard < partition_.num_shards() &&
                  new_owner < partition_.num_shards(),
              "shard out of range");
  SCD_REQUIRE(shard != new_owner, "cannot re-home a shard onto itself");
  if (remap_.empty()) {
    remap_.resize(partition_.num_shards());
    for (unsigned s = 0; s < partition_.num_shards(); ++s) remap_[s] = s;
  }
  SCD_REQUIRE(remap_[new_owner] == new_owner,
              "cannot re-home onto a shard that itself moved away");
  // Chained failure: anything previously re-homed onto `shard` moves on
  // with it.
  for (unsigned& owner : remap_) {
    if (owner == shard) owner = new_owner;
  }
}

double SimRdmaDkv::rehome_cost(unsigned shard) const {
  const auto [lo, hi] = partition_.range(shard);
  return net_.transfer_time(static_cast<std::uint64_t>(
      std::llround((hi - lo) * avg_row_wire_bytes())));
}

double SimRdmaDkv::coalesced_cost(std::uint64_t local_bytes,
                                  std::uint64_t remote_bytes,
                                  std::uint64_t shards_contacted) const {
  // Local rows stream from RAM; remote rows ride one coalesced message
  // per contacted shard. The working set passed to the spread de-rater is
  // the bytes touched on the remote side. Rows move encoded, so both
  // terms charge the rows' encoded (per-row actual) bytes.
  const double local_s = node_.local_bytes_time(local_bytes);
  const double remote_s = net_.dkv_coalesced_time(
      shards_contacted, remote_bytes, remote_bytes, partition_.num_shards());
  return local_s + remote_s;
}

double SimRdmaDkv::get_rows(unsigned requester_shard,
                            std::span<const std::uint64_t> keys,
                            std::span<float> out) {
  SCD_REQUIRE(!phantom_, "phantom store: use read_cost");
  SCD_REQUIRE(out.size() == keys.size() * row_width_,
              "output buffer size mismatch");
  for (std::size_t i = 0; i < keys.size(); ++i) {
    SCD_ASSERT(keys[i] < num_rows(), "row key out of range");
    quant::decode_row(codec_, stored(keys[i]),
                      out.subspan(i * row_width_, row_width_));
  }
  const KeyTally t =
      tally_keys(requester_shard, keys, now_for(requester_shard));
  record_batch(requester_shard, t.local, t.remote, t.shards_contacted,
               /*write=*/false);
  return coalesced_cost(t.local_bytes, t.remote_bytes, t.shards_contacted) +
         t.stall_s;
}

double SimRdmaDkv::put_rows(unsigned requester_shard,
                            std::span<const std::uint64_t> keys,
                            std::span<const float> values) {
  SCD_REQUIRE(!phantom_, "phantom store: use write_cost");
  SCD_REQUIRE(values.size() == keys.size() * row_width_,
              "input buffer size mismatch");
  // Encode (re-sparsifying under the sparse codecs) before tallying so
  // the charged bytes are the bytes this write actually ships.
  for (std::size_t i = 0; i < keys.size(); ++i) {
    SCD_ASSERT(keys[i] < num_rows(), "row key out of range");
    untrack_row(keys[i]);
    quant::encode_row(codec_, values.subspan(i * row_width_, row_width_),
                      stored(keys[i]), sparse_eps_);
    track_row(keys[i]);
  }
  const KeyTally t =
      tally_keys(requester_shard, keys, now_for(requester_shard));
  record_batch(requester_shard, t.local, t.remote, t.shards_contacted,
               /*write=*/true);
  return coalesced_cost(t.local_bytes, t.remote_bytes, t.shards_contacted) +
         t.stall_s;
}

double SimRdmaDkv::get_rows_encoded(unsigned requester_shard,
                                    std::span<const std::uint64_t> keys,
                                    std::span<std::byte> out) {
  SCD_REQUIRE(!phantom_, "phantom store: use read_cost");
  SCD_REQUIRE(out.size() == keys.size() * value_bytes_,
              "output buffer size mismatch");
  for (std::size_t i = 0; i < keys.size(); ++i) {
    SCD_ASSERT(keys[i] < num_rows(), "row key out of range");
    std::memcpy(out.data() + i * value_bytes_, stored(keys[i]).data(),
                value_bytes_);
  }
  const KeyTally t =
      tally_keys(requester_shard, keys, now_for(requester_shard));
  record_batch(requester_shard, t.local, t.remote, t.shards_contacted,
               /*write=*/false);
  return coalesced_cost(t.local_bytes, t.remote_bytes, t.shards_contacted) +
         t.stall_s;
}

double SimRdmaDkv::put_rows_encoded(unsigned requester_shard,
                                    std::span<const std::uint64_t> keys,
                                    std::span<const std::byte> values) {
  SCD_REQUIRE(!phantom_, "phantom store: use write_cost");
  SCD_REQUIRE(values.size() == keys.size() * value_bytes_,
              "input buffer size mismatch");
  for (std::size_t i = 0; i < keys.size(); ++i) {
    SCD_ASSERT(keys[i] < num_rows(), "row key out of range");
    untrack_row(keys[i]);
    std::memcpy(stored(keys[i]).data(), values.data() + i * value_bytes_,
                value_bytes_);
    track_row(keys[i]);
  }
  const KeyTally t =
      tally_keys(requester_shard, keys, now_for(requester_shard));
  record_batch(requester_shard, t.local, t.remote, t.shards_contacted,
               /*write=*/true);
  return coalesced_cost(t.local_bytes, t.remote_bytes, t.shards_contacted) +
         t.stall_s;
}

double SimRdmaDkv::read_cost(unsigned requester_shard,
                             std::uint64_t local_rows,
                             std::uint64_t remote_rows) const {
  // Count-based form: without the keys, assume the remote rows spread
  // over all C - 1 peers (uniform access), so at most that many coalesced
  // messages — and never more messages than rows. This is the phantom
  // store's read operation, so it counts as a batch in the trace. Rows
  // are priced at the store's current average wire bytes (value_bytes()
  // exactly for the dense codecs).
  const std::uint64_t peers = partition_.num_shards() - 1;
  const std::uint64_t shards_contacted = std::min(remote_rows, peers);
  record_batch(requester_shard, local_rows, remote_rows, shards_contacted,
               /*write=*/false);
  const double per_row = avg_row_wire_bytes();
  return coalesced_cost(
      static_cast<std::uint64_t>(std::llround(local_rows * per_row)),
      static_cast<std::uint64_t>(std::llround(remote_rows * per_row)),
      shards_contacted);
}

double SimRdmaDkv::write_cost(unsigned requester_shard,
                              std::uint64_t local_rows,
                              std::uint64_t remote_rows) const {
  // RDMA write ~ RDMA read for payloads above 256B (Fig. 5 discussion).
  const std::uint64_t peers = partition_.num_shards() - 1;
  const std::uint64_t shards_contacted = std::min(remote_rows, peers);
  record_batch(requester_shard, local_rows, remote_rows, shards_contacted,
               /*write=*/true);
  const double per_row = avg_row_wire_bytes();
  return coalesced_cost(
      static_cast<std::uint64_t>(std::llround(local_rows * per_row)),
      static_cast<std::uint64_t>(std::llround(remote_rows * per_row)),
      shards_contacted);
}

double SimRdmaDkv::read_cost_keys(unsigned requester_shard,
                                  std::span<const std::uint64_t> keys) const {
  const KeyTally t =
      tally_keys(requester_shard, keys, now_for(requester_shard));
  return coalesced_cost(t.local_bytes, t.remote_bytes, t.shards_contacted) +
         t.stall_s;
}

double SimRdmaDkv::write_cost_keys(unsigned requester_shard,
                                   std::span<const std::uint64_t> keys) const {
  // RDMA write ~ RDMA read (see write_cost).
  return read_cost_keys(requester_shard, keys);
}

}  // namespace scd::dkv
