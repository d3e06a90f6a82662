// Backend-neutral cluster: the thing that runs one rank function on
// every rank and owns the backend-specific plumbing (transport wiring,
// DKV construction, fault/trace installation).
//
// Implementations: sim::SimCluster (threads + virtual time) and
// proc::ProcCluster (forked processes + wall time). The sampler is
// written against this interface; `scd run --backend=...` picks one.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "comm/clock.h"
#include "comm/compute_model.h"
#include "comm/context.h"
#include "comm/fault_hooks.h"
#include "comm/network_model.h"
#include "comm/phase_stats.h"
#include "comm/transport.h"
#include "quant/row_codec.h"

namespace scd::trace {
class TraceRecorder;
}

namespace scd::dkv {
class ShardedDkv;
}

namespace scd::comm {

/// What the sampler needs from a pi-row store, backend-independent. The
/// cluster factory owns the choice of implementation; num_shards is
/// always num_ranks - 1 (the master owns no shard).
struct StoreConfig {
  std::uint64_t num_rows = 0;
  std::uint32_t row_width = 0;
  /// Cost-only mode: no row payloads move (sim only; proc rejects it).
  bool phantom = false;
  quant::RowCodec codec = quant::RowCodec::kFloat32;
  float sparse_eps = quant::kDefaultSparseEps;
};

class Cluster {
 public:
  virtual ~Cluster() = default;

  virtual unsigned num_ranks() const = 0;
  virtual bool simulated() const = 0;

  /// Execute `fn` once per rank (threads in sim, processes in proc) and
  /// return when every rank finished. Throws if any rank threw.
  virtual void run(const std::function<void(Context&)>& fn) = 0;

  /// Completion time of the slowest rank, in the backend's time
  /// coordinate (virtual seconds / wall seconds).
  virtual double max_clock() const = 0;
  virtual const PhaseStats& stats(unsigned rank) const = 0;
  /// Element-wise max across ranks — the critical-path phase view.
  virtual PhaseStats max_stats() const = 0;

  virtual Transport& transport() = 0;
  virtual const NetworkModel& network() const = 0;
  virtual const ComputeModel& compute_model() const = 0;

  /// Build the pi-row store for this backend (SimRdmaDkv / ProcDkv).
  virtual std::unique_ptr<dkv::ShardedDkv> make_store(
      const StoreConfig& config) = 0;

  /// Install (or clear) fault-injection hooks / a trace recorder.
  /// Wall-clock backends reject non-null recorders (tracing samples
  /// virtual clocks) and ignore hooks except for plan bookkeeping.
  virtual void install_fault_hooks(FaultHooks* hooks) = 0;
  virtual void install_trace(trace::TraceRecorder* recorder) = 0;

  /// Per-rank virtual clocks, or nullptr on wall-clock backends (used by
  /// the DKV fault seam, which prices stalls in virtual time).
  virtual const std::vector<VirtualClock>* rank_clocks() const {
    return nullptr;
  }
};

}  // namespace scd::comm
