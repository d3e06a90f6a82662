// Backend-neutral sharded pi store: what the distributed sampler needs
// beyond the plain DkvStore batch contract.
//
// The sampler (and its FT recovery machinery) additionally relies on:
// the worker-block partition, untimed single-row access for snapshots
// and rollback restores, and shard re-homing after a worker fail-stops.
// The fault/trace installation points are optional — the simulated
// backend prices stalls in virtual time and counts batches on trace
// lanes; the process backend has neither, so the defaults are no-ops.
//
// Implementations: SimRdmaDkv (shared address space, modeled costs) and
// proc::ProcDkv (one shared-memory row region mapped by every forked
// rank, zero modeled cost — the callers charge wall time instead).
#pragma once

#include <span>
#include <vector>

#include "comm/clock.h"
#include "comm/fault_hooks.h"
#include "dkv/dkv.h"
#include "dkv/partition.h"
#include "trace/recorder.h"

namespace scd::dkv {

class ShardedDkv : public DkvStore {
 public:
  virtual const RowPartition& partition() const = 0;

  /// Direct row view (tests, perplexity snapshots). Only valid under the
  /// kFloat32 codec, where storage *is* the float row.
  virtual std::span<const float> row(std::uint64_t key) const = 0;

  /// Decode one stored row into `out` (row_width floats). Untimed; works
  /// under every codec — the snapshot path for pi.
  virtual void read_row(std::uint64_t key, std::span<float> out) const = 0;

  /// Expected remote fraction for a uniformly random row from one shard:
  /// (C-1)/C — the quantity Section IV-C reasons about.
  double remote_fraction() const {
    const double c = partition().num_shards();
    return (c - 1.0) / c;
  }

  /// Re-home `shard`'s rows onto `new_owner` (a surviving shard) after
  /// its worker fail-stops: subsequent accesses treat those rows as owned
  /// by `new_owner`. The orchestrator charges rehome_cost().
  virtual void rehome_shard(unsigned shard, unsigned new_owner) = 0;

  /// Modeled (sim) or estimated (proc: 0 — re-homing is one remap store
  /// and no row moves) bulk-transfer time of shipping `shard`'s rows.
  virtual double rehome_cost(unsigned shard) const = 0;

  /// Effective owner of `key` after any re-homing.
  virtual unsigned effective_owner(std::uint64_t key) const = 0;

  /// Install (or clear) fault hooks / a trace recorder. Backends without
  /// modeled costs ignore both (`clocks` may be nullptr there).
  virtual void install_fault(const comm::FaultHooks* /*hooks*/,
                             const std::vector<comm::VirtualClock>* /*clocks*/,
                             unsigned /*rank_offset*/ = 1) {}
  virtual void install_trace(trace::TraceRecorder* /*recorder*/,
                             unsigned /*rank_offset*/ = 1) {}
};

}  // namespace scd::dkv
