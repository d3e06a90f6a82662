#include "proc/proc_dkv.h"

#include <cstring>
#include <new>

#include <sys/mman.h>

#include "util/error.h"

namespace scd::proc {

// Forked ranks share the remap through the mapping; only lock-free
// atomics are address-free and so valid across processes.
static_assert(std::atomic<unsigned>::is_always_lock_free);

namespace {

/// Row slots start on a cache line after the remap.
constexpr std::size_t kRowsAlign = 64;

}  // namespace

ProcDkv::ProcDkv(std::uint64_t num_rows, std::uint32_t row_width,
                 unsigned num_ranks, quant::RowCodec codec, float sparse_eps)
    : partition_(num_rows, num_ranks - 1),
      row_width_(row_width),
      codec_(codec),
      value_bytes_(quant::encoded_bytes(codec, row_width)),
      sparse_eps_(sparse_eps) {
  SCD_REQUIRE(num_ranks >= 2, "proc store needs a master and >= 1 worker");
  SCD_REQUIRE(row_width >= 1, "row_width must be >= 1");
  const unsigned shards = partition_.num_shards();
  const std::size_t remap_bytes =
      (shards * sizeof(std::atomic<unsigned>) + kRowsAlign - 1) /
      kRowsAlign * kRowsAlign;
  region_bytes_ = remap_bytes + num_rows * value_bytes_;
  void* base = ::mmap(nullptr, region_bytes_, PROT_READ | PROT_WRITE,
                      MAP_SHARED | MAP_ANONYMOUS, -1, 0);
  SCD_REQUIRE(base != MAP_FAILED, "mapping the shared pi rows failed");
  remap_ = static_cast<std::atomic<unsigned>*>(base);
  for (unsigned s = 0; s < shards; ++s) {
    new (&remap_[s]) std::atomic<unsigned>(s);
  }
  rows_ = static_cast<std::byte*>(base) + remap_bytes;
}

ProcDkv::~ProcDkv() { ::munmap(remap_, region_bytes_); }

std::byte* ProcDkv::slot(std::uint64_t key) const {
  SCD_REQUIRE(key < partition_.num_rows(), "dkv key out of range");
  return rows_ + key * value_bytes_;
}

// ---------------------------------------------------------------------
// DkvStore
// ---------------------------------------------------------------------

void ProcDkv::init_row(std::uint64_t key, std::span<const float> value) {
  SCD_REQUIRE(value.size() == row_width_, "row width mismatch");
  quant::encode_row(codec_, value, {slot(key), value_bytes_}, sparse_eps_);
}

double ProcDkv::get_rows(unsigned /*requester_shard*/,
                         std::span<const std::uint64_t> keys,
                         std::span<float> out) {
  SCD_REQUIRE(out.size() == keys.size() * row_width_, "output size mismatch");
  for (std::size_t i = 0; i < keys.size(); ++i) {
    quant::decode_row(codec_, {slot(keys[i]), value_bytes_},
                      out.subspan(i * row_width_, row_width_));
  }
  return 0.0;
}

double ProcDkv::put_rows(unsigned /*requester_shard*/,
                         std::span<const std::uint64_t> keys,
                         std::span<const float> values) {
  SCD_REQUIRE(values.size() == keys.size() * row_width_,
              "value size mismatch");
  for (std::size_t i = 0; i < keys.size(); ++i) {
    quant::encode_row(codec_, values.subspan(i * row_width_, row_width_),
                      {slot(keys[i]), value_bytes_}, sparse_eps_);
  }
  return 0.0;
}

double ProcDkv::get_rows_encoded(unsigned /*requester_shard*/,
                                 std::span<const std::uint64_t> keys,
                                 std::span<std::byte> out) {
  SCD_REQUIRE(out.size() >= keys.size() * value_bytes_,
              "output size mismatch");
  for (std::size_t i = 0; i < keys.size(); ++i) {
    std::memcpy(out.data() + i * value_bytes_, slot(keys[i]), value_bytes_);
  }
  return 0.0;
}

double ProcDkv::put_rows_encoded(unsigned /*requester_shard*/,
                                 std::span<const std::uint64_t> keys,
                                 std::span<const std::byte> values) {
  SCD_REQUIRE(values.size() >= keys.size() * value_bytes_,
              "value size mismatch");
  for (std::size_t i = 0; i < keys.size(); ++i) {
    std::memcpy(slot(keys[i]), values.data() + i * value_bytes_,
                value_bytes_);
  }
  return 0.0;
}

// ---------------------------------------------------------------------
// ShardedDkv
// ---------------------------------------------------------------------

std::span<const float> ProcDkv::row(std::uint64_t key) const {
  SCD_REQUIRE(codec_ == quant::RowCodec::kFloat32,
              "direct row views need the fp32 codec; use read_row");
  return {reinterpret_cast<const float*>(slot(key)), row_width_};
}

void ProcDkv::read_row(std::uint64_t key, std::span<float> out) const {
  SCD_REQUIRE(out.size() == row_width_, "row width mismatch");
  quant::decode_row(codec_, {slot(key), value_bytes_}, out);
}

void ProcDkv::rehome_shard(unsigned shard, unsigned new_owner) {
  SCD_REQUIRE(shard < partition_.num_shards() &&
                  new_owner < partition_.num_shards(),
              "shard out of range");
  remap_[shard].store(new_owner);
}

unsigned ProcDkv::effective_owner(std::uint64_t key) const {
  return remap_[partition_.owner(key)].load();
}

}  // namespace scd::proc
