// The paper's contribution: the parallel + distributed SG-MCMC sampler,
// executed on a comm::Cluster backend: the virtual-time simulator
// (sim::SimCluster) or real forked processes (proc::ProcCluster).
//
// Topology: rank 0 is the master (owns E, draws and deploys minibatches,
// updates theta/beta); ranks 1..W are workers (own a static shard of the
// pi DKV rows and a slice of E_h). The master deploys each iteration and
// gathers the partial sums; the workers pass the two stage barriers
// among themselves through the lowest live worker. No rank joins a
// collective, so a dead worker is detected where its message is
// missing. Every read stage (chunk loads, update_beta pair endpoints,
// perplexity pairs) fetches each distinct DKV row once: pi is read-only
// between the stage barriers, so one copy serves every reference to it.
// One iteration:
//
//   master                         workers
//   ------------------------------ ---------------------------------------
//   draw E_n (t) [or already done  recv deploy record + minibatch share
//   during t-1 when pipelined]       + touched E subset (kDeployMinibatch
//   deploy records + shares          books the wait)
//   [pipelined: draw+deploy t+1]   sample V_n per local vertex
//                                  update_phi: chunked DKV loads of pi
//                                    rows double-buffered against compute
//                                  -- stage barrier (phi before pi) --
//                                  update_pi: write [pi|phi_sum] rows
//                                  -- stage barrier (pi before beta) --
//                                  update_beta: load pair rows, accumulate
//                                    theta-ratio partials
//   <------------- 2K ratio partials, folded in rank order ---------->
//   theta SGRLD step, beta = f(theta)
//   -------------- kBeta + beta to every live worker ---------------->
//   [every eval_interval] perplexity partials over the E_h slices,
//   folded in rank order, then kEvalDone releases the workers.
//
// Execution modes:
//   * Real — full inference on an actual graph, from the same derive_rng
//     streams as ParallelSampler. The theta-ratio partials fold one per
//     worker (the master's rank-order fold), where ParallelSampler folds
//     64 fixed blocks, so the trajectory depends on the worker count by
//     summation order: the two agree to test tolerance on the N=150
//     test fixtures, and can diverge on larger ones (N=600 and up, by
//     seed and options), W=1 included (ROADMAP item 1).
//   * CostOnly — no state, no graph: a PhantomWorkload supplies the loop
//     trip counts and the run charges exactly the costs the real mode
//     would, enabling paper-scale sweeps (com-Friendster, K = 12288).
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "core/grads.h"
#include "core/options.h"
#include "core/perplexity.h"
#include "core/state.h"
#include "comm/cluster.h"
#include "comm/context.h"
#include "dkv/sharded_dkv.h"
#include "graph/graph.h"
#include "graph/heldout.h"
#include "graph/minibatch.h"

namespace scd {
class ByteWriter;
}  // namespace scd

namespace scd::fault {
struct FaultPlan;
class FaultInjector;
}  // namespace scd::fault

namespace scd::core {

struct Checkpoint;

/// Loop trip counts for cost-only runs at paper scale.
struct PhantomWorkload {
  std::uint64_t num_vertices = 0;
  double avg_degree = 0.0;
  /// M: vertices per minibatch (each worker gets M / W of them).
  std::uint32_t minibatch_vertices = 0;
  /// |E_n|: pairs per minibatch for update_beta.
  std::uint64_t minibatch_pairs = 0;
  /// |E_h|: held-out pairs per perplexity evaluation (0 disables).
  std::uint64_t heldout_pairs = 0;
};

struct DistributedOptions {
  SamplerOptions base{};
  /// Pipelining (Section III-D): master draws/deploys iteration t+1
  /// during the workers' update_phi of t, and pi loads are
  /// double-buffered against the phi compute. Fig. 3 toggles this.
  /// Changes modeled and wall time only, never the numbers — with or
  /// without a fault plan.
  bool pipeline = true;
  /// Vertices per pipeline chunk in update_phi.
  std::uint32_t chunk_vertices = 32;
  /// Called by the master rank at the top of every iteration (tests and
  /// progress reporting; leave empty for none).
  std::function<void(std::uint64_t)> master_iteration_hook;
  /// Fault injection and recovery: when non-null the run injects this
  /// plan's faults and survives worker crashes — the master drops the
  /// dead worker, reassigns its minibatch and held-out slices over the
  /// survivors and re-homes its DKV shard. An *empty* plan gives the
  /// same numbers and virtual time as none. Null: a dead worker is a
  /// comm::TransportError. Real mode only; the plan must outlive run().
  const fault::FaultPlan* fault_plan = nullptr;
  /// With a fault plan: every this many iterations the master serializes a
  /// core/checkpoint snapshot of pi + theta, and a worker death rolls
  /// the run back to the latest snapshot instead of accepting the dead
  /// worker's lost in-flight pi writes. 0 disables rollback (the default
  /// recovery: redo the interrupted iteration on the survivors).
  std::uint64_t rollback_interval = 0;
  /// Row codec for pi rows in the DKV and on the wire (quant/row_codec.h):
  /// kFloat32 (default, bit-identical to the pre-codec path), kFp16, or
  /// kInt8 (per-row scale + offset). Rows are stored and shipped encoded
  /// — get/put costs charge the reduced value_bytes() in both real and
  /// cost-only mode — and the enc kernels dequantize in-register, so a
  /// decoded float row never materializes on the per-neighbor hot path.
  /// Lossy codecs perturb the trajectory; held-out perplexity stays
  /// within tolerance on the generator workloads (tests/quant).
  quant::RowCodec pi_codec = quant::RowCodec::kFloat32;
  /// Sparse pi codecs only: the top-R mass tolerance — each row keeps
  /// its largest entries until the dropped tail holds at most this
  /// fraction of row mass (quant/row_codec.h). Smaller = denser rows,
  /// closer trajectories; larger = fewer bytes and O(nnz) kernel work.
  /// Ignored by dense codecs.
  float sparse_eps = quant::kDefaultSparseEps;
  /// Real mode: initialize pi and theta/beta from this checkpoint
  /// instead of the seeded expanded-mean draw. The checkpoint's pi_codec
  /// provenance must equal `pi_codec` — resuming lossy state under a
  /// different codec silently changes what the DKV round-trips, so a
  /// mismatch is a hard error naming both codecs. Vertex count and K
  /// must match the run. Must outlive the constructor.
  const Checkpoint* resume_from = nullptr;
  /// When non-null, run() installs this recorder on the cluster,
  /// transport, and DKV store: every clock-advancing region is wrapped
  /// in a virtual-time span on its rank's lane, message edges
  /// are recorded for critical-path analysis, and the typed metrics
  /// (bytes, messages, DKV rows, recoveries) are counted. Recording only
  /// samples the clocks — trajectories and modeled virtual times are
  /// bit-identical to an untraced run. Must outlive run() and have at
  /// least workers + 1 lanes; uninstalled before run() returns.
  trace::TraceRecorder* trace = nullptr;
};

struct DistributedResult {
  std::uint64_t iterations = 0;
  /// max over ranks of final virtual clock.
  double virtual_seconds = 0.0;
  double avg_iteration_seconds = 0.0;
  /// Per-phase time, max over ranks, for the whole run (virtual seconds
  /// on the simulated backend, wall seconds on the process backend).
  comm::PhaseStats critical_path;
  /// Perplexity trace (real mode; seconds are virtual cluster time).
  std::vector<HistoryPoint> history;
  /// Worker ranks that fail-stopped during the run, in detection order.
  std::vector<unsigned> crashed_ranks;
  /// Iterations redone after a crash (restart or rollback).
  std::uint64_t redone_iterations = 0;
};

class DistributedSampler {
 public:
  /// Real mode. `cluster` must have num_ranks = workers + 1 (>= 2).
  /// The graph/heldout referents must outlive the sampler.
  DistributedSampler(comm::Cluster& cluster, const graph::Graph& training,
                     const graph::HeldOutSplit* heldout, const Hyper& hyper,
                     const DistributedOptions& options);

  /// Cost-only mode at the scale described by `workload` (simulated
  /// backend only — there is nothing real to execute).
  DistributedSampler(comm::Cluster& cluster,
                     const PhantomWorkload& workload, const Hyper& hyper,
                     const DistributedOptions& options);

  ~DistributedSampler();

  /// Execute `iterations` iterations. One-shot: a sampler instance runs
  /// once (per-worker evaluator state lives inside the run).
  DistributedResult run(std::uint64_t iterations);

  /// Real mode, after run(): copy all pi rows out of the DKV store.
  PiMatrix snapshot_pi() const;
  const GlobalState& global() const { return global_; }
  const dkv::ShardedDkv& store() const { return *store_; }
  unsigned num_workers() const { return num_workers_; }

 private:
  /// Per-rank state the stages of one run share (defined in the .cpp).
  struct MasterRank;
  struct WorkerRank;

  /// The protocol, one loop per role: the master deploys each iteration
  /// and gathers its partial sums, the workers meet at two stage barriers
  /// of their own, and a missing message is a death the master recovers
  /// from. See "Fault model & recovery" in DESIGN.md.
  void master_loop(comm::Context& ctx, std::uint64_t iterations);
  void worker_loop(comm::Context& ctx);

  /// Master stages: draw E_n (returns its h(E_n) scale), build one
  /// worker's share (slice `slot` of `parts`) behind the deploy record
  /// already in `message` and send it, step theta from the reduced
  /// ratios into the beta to ship.
  double draw_minibatch(MasterRank& m, std::uint64_t t);
  void send_share(MasterRank& m, unsigned slot, unsigned parts,
                  unsigned rank, std::uint64_t t, ByteWriter& message);
  void step_theta(MasterRank& m, std::uint64_t t, double scale);
  /// Worker stages, in iteration order. `bytes` is the serialized share
  /// behind a deploy record; `evaluator` is null in cost-only mode.
  void unpack_share(WorkerRank& r, std::uint64_t t,
                    std::span<const std::byte> bytes);
  void sample_neighbors(WorkerRank& r, std::uint64_t t);
  void update_phi(WorkerRank& r, std::uint64_t t);
  void write_pi(WorkerRank& r, std::uint64_t t);
  void ratio_partials(WorkerRank& r);
  void eval_partial(WorkerRank& r, PerplexityEvaluator* evaluator);
  /// Cost-only: modeled cost of a read stage of `refs` uniform references.
  double phantom_read_cost(const WorkerRank& r, double refs) const;

  bool real() const { return graph_ != nullptr; }
  bool eval_due(std::uint64_t t) const {
    const std::uint64_t every = options_.base.eval_interval;
    return every > 0 && (t + 1) % every == 0 && heldout_size_ > 0;
  }

  comm::Cluster& cluster_;
  const graph::Graph* graph_ = nullptr;        // null in cost-only mode
  const graph::HeldOutSplit* heldout_ = nullptr;
  PhantomWorkload phantom_{};
  Hyper hyper_;
  DistributedOptions options_;
  unsigned num_workers_;
  std::uint64_t num_vertices_;
  std::uint64_t heldout_size_;

  std::unique_ptr<dkv::ShardedDkv> store_;
  GlobalState global_;
  std::optional<graph::MinibatchSampler> minibatch_;

  std::unique_ptr<fault::FaultInjector> injector_;  // with a fault plan

  bool ran_ = false;
  std::vector<HistoryPoint> history_;  // written by master rank only
  std::vector<unsigned> crashed_ranks_;   // written by master rank only
  std::uint64_t redone_iterations_ = 0;   // written by master rank only
};

}  // namespace scd::core
