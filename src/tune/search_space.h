// The autotuner's configuration grid.
//
// Six dimensions, each a small ordered value list; a concrete
// configuration is one index per dimension (ConfigIndex). The grid is
// the cartesian product — typically a few hundred points — and the
// tuner's whole job is to probe a small fraction of it. DKV shards are
// not a separate dimension: the store shards pi one-to-one over workers
// (dkv/sim_rdma_dkv.h), so kWorkers *is* the shard count.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "quant/row_codec.h"

namespace scd::tune {

/// Grid dimensions, in the order the tuner sweeps them.
enum class Dim : std::size_t {
  kWorkers = 0,         // worker ranks == DKV shards
  kThreadsPerNode,      // ComputeModel::threads_per_node
  kPipeline,            // DistributedOptions::pipeline (0/1)
  kMinibatchVertices,   // PhantomWorkload::minibatch_vertices (M)
  kPiCodec,             // DistributedOptions::pi_codec (quant::RowCodec)
  kSparsity,            // sparse top-R eps in basis points (0 = dense)
  kCount
};

constexpr std::size_t kNumDims = static_cast<std::size_t>(Dim::kCount);

const char* dim_name(Dim d);

/// One grid point: an index into each dimension's value list.
using ConfigIndex = std::array<std::size_t, kNumDims>;

/// A materialized grid point — the knobs a probe actually runs with.
struct TuneConfig {
  unsigned workers = 4;
  unsigned threads_per_node = 16;
  bool pipeline = true;
  std::uint32_t minibatch_vertices = 4096;
  quant::RowCodec pi_codec = quant::RowCodec::kFloat32;
  /// Sparse top-R mass tolerance; 0 keeps `pi_codec` dense, > 0 lifts it
  /// to the matching sparse codec (quant::sparse_codec_for) with this
  /// eps. Stored in the grid as basis points (kSparsity / 10000).
  double sparse_eps = 0.0;

  /// Compact human/JSON label, e.g.
  /// "w8 t16 pipe=1 M4096 codec=fp32 seps=0".
  std::string key() const;
};

struct SearchSpace {
  /// values[d] is dimension d's ordered candidate list (ascending for
  /// the numeric dimensions; {0, 1} for the boolean one). All values
  /// are stored as uint64 and narrowed by materialize().
  std::array<std::vector<std::uint64_t>, kNumDims> values;

  const std::vector<std::uint64_t>& dim(Dim d) const {
    return values[static_cast<std::size_t>(d)];
  }
  std::vector<std::uint64_t>& dim(Dim d) {
    return values[static_cast<std::size_t>(d)];
  }

  /// Product of the dimension sizes.
  std::uint64_t grid_size() const;

  TuneConfig materialize(const ConfigIndex& index) const;

  /// Every dimension non-empty, pipeline restricted to {0, 1}, workers,
  /// threads and M >= 1. Throws util::Error otherwise.
  void validate() const;

  /// The stock grid `scd tune` searches: workers {4, 8, 16, 32},
  /// threads {4, 8, 16}, pipeline {off, on}, M {2048..16384}, pi codec
  /// {fp32, fp16, int8}, sparsity {dense, eps 0.01, eps 0.05} — 864
  /// points.
  static SearchSpace default_space();
};

}  // namespace scd::tune
