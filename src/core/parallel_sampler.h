// Multithreaded shared-memory sampler — the paper's "vertical scaling"
// configuration (Section IV-D): one machine, many cores, all state in
// local RAM.
//
// Parallel structure mirrors the paper's OpenMP annotations:
//   * update_phi: data-parallel over minibatch vertices, static chunks;
//   * update_pi: parallel commit of the staged rows;
//   * update_beta: per-thread partial theta gradients folded in thread
//     order (deterministic), then one serial SGRLD step;
//   * perplexity: parallel over the held-out slice with a two-stage
//     reduction.
// Randomness comes from the derive_rng streams keyed by (iteration,
// vertex), and the theta-ratio partials fold over 64 fixed blocks, so
// the trajectory is identical for ANY thread count. It is NOT bit-equal
// to SequentialSampler in general: Sequential folds the partials pair
// by pair, and the chain amplifies that last-bit summation-order
// difference. The two agree bit for bit on small fixtures only; at
// N=4000, K=16 every pi entry differs after 1500 iterations (ROADMAP
// item 1).
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
  ParallelSampler(const graph::Graph& training,
                  const graph::HeldOutSplit* heldout, const Hyper& hyper,
                  const SamplerOptions& options, unsigned num_threads);

  void run(std::uint64_t iterations);

  std::uint64_t iteration() const { return iteration_; }
  const PiMatrix& pi() const { return pi_; }
  const GlobalState& global() const { return global_; }
  const std::vector<HistoryPoint>& history() const { return history_; }
  unsigned num_threads() const { return pool_.num_threads(); }

  double evaluate_perplexity();

  /// See SequentialSampler::checkpoint / restore.
  Checkpoint checkpoint() const;
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
