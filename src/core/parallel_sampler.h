// Algorithm 1, the SG-MCMC sampler for a-MMSB, on one machine: the
// paper's "vertical scaling" configuration (Section IV-D), all state in
// local RAM, any number of threads. Every single-process caller runs
// this engine; at one thread it is the sequential sampler. One
// iteration:
//   1. draw a minibatch E_n (the kMinibatch stream of the iteration);
//   2. update_phi: for every vertex a in E_n, draw V_n, accumulate the
//      phi gradient (Eqn 6) against the *current* state and stage the
//      SGRLD update (Eqn 5) — data-parallel over the minibatch vertices;
//   3. update_pi: commit every staged [pi | phi_sum] row (synchronous
//      minibatch semantics, as the distributed sampler's barrier-
//      separated stages);
//   4. update_beta/theta: theta-ratio partials over E_n's pairs with the
//      *updated* pi, in 64 fixed blocks folded in block order, then one
//      serial SGRLD step (Eqn 3) and beta = f(theta);
//   5. on eval_interval boundaries, held-out perplexity (Eqn 7), parallel
//      over the held-out pairs with a serial log-average.
// Randomness comes from the derive_rng streams keyed by (iteration,
// vertex), and the block boundaries depend on the pair count alone, so
// the trajectory is bit-identical for ANY thread count. It is not
// bit-identical to DistributedSampler, which folds one partial per
// worker (ROADMAP item 1).
#pragma once

#include <chrono>
#include <memory>
#include <vector>

#include "core/checkpoint.h"
#include "core/grads.h"
#include "core/iteration_workspace.h"
#include "core/options.h"
#include "core/perplexity.h"
#include "core/state.h"
#include "graph/graph.h"
#include "graph/heldout.h"
#include "graph/minibatch.h"
#include "threading/thread_pool.h"
#include "trace/recorder.h"

namespace scd::core {

class ParallelSampler {
 public:
  /// `heldout` may be null (no perplexity tracking); both referents must
  /// outlive the sampler.
  ParallelSampler(const graph::Graph& training,
                  const graph::HeldOutSplit* heldout, const Hyper& hyper,
                  const SamplerOptions& options, unsigned num_threads);

  /// Run `iterations` more iterations (cumulative across calls).
  void run(std::uint64_t iterations);

  std::uint64_t iteration() const { return iteration_; }
  const PiMatrix& pi() const { return pi_; }
  const GlobalState& global() const { return global_; }
  const std::vector<HistoryPoint>& history() const { return history_; }
  unsigned num_threads() const { return pool_.num_threads(); }

  /// Evaluate perplexity immediately (also appends to history).
  double evaluate_perplexity();

  /// Snapshot the resumable state. Every random event derives from
  /// (seed, iteration, ...), so a sampler restored from a checkpoint
  /// continues the exact trajectory of the uninterrupted run, at any
  /// thread count.
  Checkpoint checkpoint() const;

  /// Replace the state with a checkpoint's (graph and options stay).
  /// Throws scd::UsageError when N or K do not match, and
  /// scd::DataError on a pi row training cannot start from.
  void restore(const Checkpoint& checkpoint);

  /// Install (or clear, with nullptr) a trace recorder: every stage of
  /// every subsequent iteration records a WALL-CLOCK span on lane 0 —
  /// there is no virtual cluster here, so timestamps are real seconds
  /// since the first recorded span. The recorder must outlive this
  /// installation.
  void set_trace(trace::TraceRecorder* recorder) { trace_ = recorder; }

 private:
  void one_iteration();
  /// Wall-clock seconds since the first call (lazy origin).
  double trace_now();

  const graph::Graph& graph_;
  const graph::HeldOutSplit* heldout_;
  Hyper hyper_;
  SamplerOptions options_;
  threading::ThreadPool pool_;

  PiMatrix pi_;
  GlobalState global_;
  graph::MinibatchSampler minibatch_;
  LikelihoodTerms terms_;
  std::unique_ptr<PerplexityEvaluator> evaluator_;
  /// Reusable iteration buffers; one_iteration is allocation-free in
  /// steady state (see core/iteration_workspace.h).
  IterationWorkspace ws_;

  std::uint64_t iteration_ = 0;
  double elapsed_s_ = 0.0;
  std::vector<HistoryPoint> history_;
  trace::TraceRecorder* trace_ = nullptr;
  std::chrono::steady_clock::time_point trace_origin_{};
  bool trace_origin_set_ = false;
};

}  // namespace scd::core
