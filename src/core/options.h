// Options shared by all sampler frontends.
#pragma once

#include <cstdint>

#include "core/grads.h"
#include "core/hyper.h"
#include "graph/minibatch.h"

namespace scd::core {

/// Re-exported for sampler configuration. kUniform is Eqn 5 verbatim;
/// kLinkAware (links exact + scaled non-link sample) is the low-variance
/// construction sparse graphs need in practice — both unbiased, see
/// graph/minibatch.h.
using NeighborMode = graph::NeighborMode;

/// Tunable-knob plumbing: the autotuner (src/tune/search_space.h)
/// searches worker count, threads/node, pipelining, minibatch size, pi
/// codec and sparsity. The first two live on sim::Config, pipelining and
/// the codecs on DistributedOptions, and minibatch size is the phantom
/// workload's M; none of them is set here.
struct SamplerOptions {
  graph::MinibatchSampler::Options minibatch{};

  /// Neighbor sample size |V_n| per minibatch vertex (Eqn 5); in
  /// kLinkAware mode this is the non-link sample size, on top of the
  /// exact links.
  std::uint32_t num_neighbors = 32;

  NeighborMode neighbor_mode = NeighborMode::kUniform;

  /// Evaluate held-out perplexity every this many iterations (0 = never).
  std::uint64_t eval_interval = 64;

  StepSchedule step{};

  /// Gamma shape of the phi initialisation.
  double init_shape = 1.0;

  /// Langevin noise multiplier: 1 = SGRLD posterior sampling (the
  /// paper's algorithm); 0 = deterministic preconditioned SGD toward the
  /// MAP. Intermediate values anneal. MAP mode is how the general-MMSB
  /// sampler escapes the symmetric saddle of disassortative structure.
  double noise_factor = 1.0;

  /// SGRLD drift form: the paper's literal Eqn 3/5 (default) or the
  /// posterior-exact preconditioned form; see core::GradientForm.
  GradientForm gradient_form = GradientForm::kRawEqn3;

  /// Root seed; every random event derives deterministically from it.
  std::uint64_t seed = 42;

  void validate() const {
    step.validate();
    SCD_REQUIRE(num_neighbors >= 1, "need at least one neighbor sample");
    SCD_REQUIRE(init_shape > 0.0, "init_shape must be positive");
    SCD_REQUIRE(noise_factor >= 0.0, "noise_factor must be >= 0");
  }
};

/// One recorded perplexity measurement.
struct HistoryPoint {
  std::uint64_t iteration = 0;
  /// Seconds: wall clock for in-process samplers, virtual cluster time
  /// for the distributed sampler.
  double seconds = 0.0;
  double perplexity = 0.0;
};

}  // namespace scd::core
