// Single-threaded SG-MCMC sampler for the general (non-assortative)
// MMSB.
//
// Runs the iteration of Algorithm 1 (ParallelSampler's, for a-MMSB)
// with the full block matrix B in place of (beta, delta). Iteration
// cost is O(M |V_n| K^2) instead of O(M |V_n| K) — the reason the paper
// sticks to a-MMSB for its large-scale runs — so this engine targets
// moderate K (disassortative structure rarely needs thousands of
// blocks).
#pragma once

#include <memory>
#include <vector>

#include "core/general_mmsb.h"
#include "core/options.h"
#include "core/perplexity.h"
#include "graph/graph.h"
#include "graph/heldout.h"
#include "graph/minibatch.h"

namespace scd::core {

class GeneralSequentialSampler {
 public:
  GeneralSequentialSampler(const graph::Graph& training,
                           const graph::HeldOutSplit* heldout,
                           const Hyper& hyper,
                           const SamplerOptions& options);

  void run(std::uint64_t iterations);

  std::uint64_t iteration() const { return iteration_; }
  const PiMatrix& pi() const { return pi_; }
  const BlockMatrix& blocks() const { return blocks_; }
  const std::vector<HistoryPoint>& history() const { return history_; }

  double evaluate_perplexity();

  /// Replace the block-strength state before training. Joint recovery of
  /// disassortative structure from a fully diffuse start faces a
  /// symmetric saddle (all blocks see the same data while pi is
  /// uniform); warm-starting B with a structural hypothesis — even a
  /// rough one — breaks it. Must be called before run().
  void warm_start_blocks(const BlockMatrix& blocks);

  /// Freeze the block matrix for the first `iterations` iterations (only
  /// pi trains). Combined with warm_start_blocks this is the standard
  /// two-phase schedule for disassortative structure: pi locks onto the
  /// hypothesis before B is allowed to move.
  void freeze_blocks_for(std::uint64_t iterations) {
    block_freeze_until_ = iterations;
  }

 private:
  void one_iteration();

  const graph::Graph& graph_;
  const graph::HeldOutSplit* heldout_;
  Hyper hyper_;
  SamplerOptions options_;

  PiMatrix pi_;
  BlockMatrix blocks_;
  graph::MinibatchSampler minibatch_;
  GeneralLikelihoodTerms terms_;
  std::unique_ptr<PerplexityEvaluator> evaluator_;

  std::uint64_t iteration_ = 0;
  std::uint64_t block_freeze_until_ = 0;
  double elapsed_s_ = 0.0;
  std::vector<HistoryPoint> history_;
};

}  // namespace scd::core
