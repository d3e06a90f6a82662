#include "core/sequential_sampler.h"

#include "core/phi_kernel.h"

#include <algorithm>
#include <chrono>

#include "util/error.h"

namespace scd::core {

namespace {
using steady = std::chrono::steady_clock;
}

SequentialSampler::SequentialSampler(const graph::Graph& training,
                                     const graph::HeldOutSplit* heldout,
                                     const Hyper& hyper,
                                     const SamplerOptions& options)
    : graph_(training),
      heldout_(heldout),
      hyper_(hyper),
      options_(options),
      pi_(training.num_vertices(), hyper.num_communities),
      global_(hyper.num_communities),
      minibatch_(training, heldout, options.minibatch),
      ws_(training, minibatch_, hyper.num_communities, pi_.row_width(),
          /*num_threads=*/1, options.num_neighbors,
          /*blocked_theta=*/false) {
  hyper_.validate();
  options_.validate();
  pi_.init_random(options_.seed, options_.init_shape);
  global_.init_random(options_.seed, hyper_);
  terms_.refresh(global_.beta_all(), hyper_.delta);
  if (heldout_ != nullptr) {
    evaluator_ = std::make_unique<PerplexityEvaluator>(
        std::span<const graph::HeldOutPair>(heldout_->pairs()));
  }
}

void SequentialSampler::one_iteration() {
  const double eps = options_.step.eps(iteration_);
  // Per-iteration stream: makes checkpoint resume reproduce the
  // uninterrupted trajectory exactly.
  rng::Xoshiro256 mb_rng =
      derive_rng(options_.seed, rng_label::kMinibatch, iteration_);
  minibatch_.draw_into(mb_rng, ws_.mb, ws_.mb_scratch);
  const graph::Minibatch& mb = ws_.mb;
  const std::uint32_t k = hyper_.num_communities;

  // --- update_phi: gradients against the current state, staged ---------
  ws_.staged.resize(mb.vertices.size() * pi_.row_width());
  ThreadSlot& slot = ws_.slots[0];
  for (std::size_t vi = 0; vi < mb.vertices.size(); ++vi) {
    const graph::Vertex a = mb.vertices[vi];
    rng::Xoshiro256 nbr_rng =
        derive_rng(options_.seed, rng_label::kNeighbors, iteration_, a);
    graph::draw_neighbor_set_into(nbr_rng, options_.neighbor_mode,
                                  graph_.num_vertices(), a,
                                  graph_.neighbors(a),
                                  options_.num_neighbors, slot.set, slot.nbr);
    const graph::NeighborSet& set = slot.set;
    std::span<float> out(ws_.staged.data() + vi * pi_.row_width(),
                         pi_.row_width());
    staged_phi_update(
        options_.seed, iteration_, a, pi_.row(a), set,
        [&](std::size_t i) { return pi_.row(set.samples[i].b); }, terms_,
        eps, hyper_.normalized_alpha(), out, slot.phi);
  }

  // --- update_pi: commit ----------------------------------------------
  for (std::size_t vi = 0; vi < mb.vertices.size(); ++vi) {
    std::span<const float> src(ws_.staged.data() + vi * pi_.row_width(),
                               pi_.row_width());
    std::copy(src.begin(), src.end(), pi_.row(mb.vertices[vi]).begin());
  }

  // --- update_beta/theta: gradients on the fresh pi --------------------
  // Accumulated in the factored ratio form so the arithmetic matches the
  // distributed sampler's reduce exactly (see grads.h).
  std::fill(ws_.ratios.begin(), ws_.ratios.end(), 0.0);
  std::span<double> ratio_link(ws_.ratios.data(), k);
  std::span<double> ratio_nonlink(ws_.ratios.data() + k, k);
  for (const graph::MinibatchPair& p : mb.pairs) {
    fast_accumulate_theta_ratio(pi_.row(p.a), pi_.row(p.b), terms_, p.link,
                                p.link ? ratio_link : ratio_nonlink,
                                slot.phi.w);
  }
  std::fill(ws_.theta_grad.begin(), ws_.theta_grad.end(), 0.0);
  theta_grad_from_ratios(ratio_link, ratio_nonlink, global_.theta_flat(),
                         ws_.theta_grad);
  for (double& g : ws_.theta_grad) g *= mb.scale;
  update_theta(options_.seed, iteration_, global_, ws_.theta_grad, eps,
               hyper_.eta0, hyper_.eta1, options_.noise_factor,
               options_.gradient_form);
  terms_.refresh(global_.beta_all(), hyper_.delta);

  ++iteration_;
}

void SequentialSampler::run(std::uint64_t iterations) {
  if (evaluator_ && options_.eval_interval > 0) {
    // Keep history appends out of the steady-state allocation profile.
    history_.reserve(history_.size() + iterations / options_.eval_interval +
                     1);
  }
  for (std::uint64_t i = 0; i < iterations; ++i) {
    const steady::time_point start = steady::now();
    one_iteration();
    elapsed_s_ += std::chrono::duration<double>(steady::now() - start).count();
    if (evaluator_ && options_.eval_interval > 0 &&
        iteration_ % options_.eval_interval == 0) {
      evaluate_perplexity();
    }
  }
}

double SequentialSampler::evaluate_perplexity() {
  SCD_REQUIRE(evaluator_ != nullptr,
              "no held-out split was given to the sampler");
  const double perp = evaluator_->evaluate(
      terms_, [this](graph::Vertex v) { return pi_.row(v); });
  history_.push_back({iteration_, elapsed_s_, perp});
  return perp;
}


Checkpoint SequentialSampler::checkpoint() const {
  Checkpoint snapshot;
  snapshot.iteration = iteration_;
  snapshot.hyper = hyper_;
  snapshot.pi = pi_;
  snapshot.global = global_;
  return snapshot;
}

void SequentialSampler::restore(const Checkpoint& checkpoint) {
  SCD_REQUIRE(checkpoint.pi.num_vertices() == graph_.num_vertices(),
              "checkpoint is for a different graph size");
  SCD_REQUIRE(checkpoint.hyper.num_communities == hyper_.num_communities,
              "checkpoint is for a different K");
  check_trainable_pi(checkpoint.pi);
  pi_ = checkpoint.pi;
  global_ = checkpoint.global;
  iteration_ = checkpoint.iteration;
  terms_.refresh(global_.beta_all(), hyper_.delta);
}

}  // namespace scd::core
