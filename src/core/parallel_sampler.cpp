#include "core/parallel_sampler.h"

#include "core/phi_kernel.h"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "threading/parallel.h"
#include "util/error.h"

namespace scd::core {

namespace {
using steady = std::chrono::steady_clock;

/// Minibatch vertices per claim in update_phi. Small, because a vertex
/// costs O((degree + |V_n|) K) and degrees are uneven.
constexpr std::uint64_t kPhiGrain = 4;
/// Theta blocks per claim; kThetaBlocks / kThetaGrain claims per stage.
constexpr std::uint64_t kThetaGrain = 4;
}  // namespace

ParallelSampler::ParallelSampler(const graph::Graph& training,
                                 const graph::HeldOutSplit* heldout,
                                 const Hyper& hyper,
                                 const SamplerOptions& options,
                                 unsigned num_threads)
    : graph_(training),
      heldout_(heldout),
      hyper_(hyper),
      options_(options),
      pool_(num_threads),
      pi_(PiMatrix::for_overwrite(training.num_vertices(),
                                  hyper.num_communities)),
      global_(hyper.num_communities),
      minibatch_(training, heldout, options.minibatch),
      ws_(training, minibatch_, hyper.num_communities, pi_.row_width(),
          num_threads, options.num_neighbors) {
  hyper_.validate();
  options_.validate();
  pi_.init_random(pool_, options_.seed, options_.init_shape);
  global_.init_random(options_.seed, hyper_);
  terms_.refresh(global_.beta_all(), hyper_.delta);
  if (heldout_ != nullptr) {
    evaluator_ = std::make_unique<PerplexityEvaluator>(
        std::span<const graph::HeldOutPair>(heldout_->pairs()));
  }
}

double ParallelSampler::trace_now() {
  if (!trace_origin_set_) {
    trace_origin_ = steady::now();
    trace_origin_set_ = true;
  }
  return std::chrono::duration<double>(steady::now() - trace_origin_)
      .count();
}

void ParallelSampler::one_iteration() {
  const double eps = options_.step.eps(iteration_);
  // Wall-clock stage boundaries, recorded on lane 0 when tracing is on.
  double mark = trace_ != nullptr ? trace_now() : 0.0;
  auto record_stage = [&](trace::Stage stage) {
    if (trace_ == nullptr) return;
    const double now = trace_now();
    trace_->record_span(0, stage, mark, now, iteration_);
    mark = now;
  };
  rng::Xoshiro256 mb_rng =
      derive_rng(options_.seed, rng_label::kMinibatch, iteration_);
  minibatch_.draw_into(mb_rng, ws_.mb, ws_.mb_scratch);
  const graph::Minibatch& mb = ws_.mb;
  const std::uint32_t k = hyper_.num_communities;
  record_stage(trace::Stage::kDrawMinibatch);

  // --- update_phi: minibatch vertices claimed dynamically. A vertex's
  // step depends only on (seed, iteration, vertex) and the previous pi,
  // and it writes its own staged slot, so any thread may take any vertex.
  ws_.staged.resize(mb.vertices.size() * pi_.row_width());
  pool_.parallel_for_dynamic(
      0, mb.vertices.size(), kPhiGrain,
      [&](unsigned thread, std::uint64_t lo, std::uint64_t hi) {
        ThreadSlot& slot = ws_.slots[thread];
        for (std::uint64_t vi = lo; vi < hi; ++vi) {
          const graph::Vertex a = mb.vertices[vi];
          rng::Xoshiro256 nbr_rng = derive_rng(
              options_.seed, rng_label::kNeighbors, iteration_, a);
          graph::draw_neighbor_set_into(
              nbr_rng, options_.neighbor_mode, graph_.num_vertices(), a,
              graph_.neighbors(a), options_.num_neighbors, slot.set,
              slot.nbr);
          const graph::NeighborSet& set = slot.set;
          std::span<float> out(ws_.staged.data() + vi * pi_.row_width(),
                               pi_.row_width());
          staged_phi_update(
              options_.seed, iteration_, a, pi_.row(a), set,
              [&](std::size_t i) { return pi_.row(set.samples[i].b); },
              terms_, eps, hyper_.normalized_alpha(), out, slot.phi,
              options_.noise_factor, options_.gradient_form);
        }
      });
  record_stage(trace::Stage::kUpdatePhi);

  // --- update_pi: commit on the calling thread. The staged rows are a
  // few tens of KB, which copy faster than one pool dispatch. ----------
  for (std::size_t vi = 0; vi < mb.vertices.size(); ++vi) {
    std::span<const float> src(ws_.staged.data() + vi * pi_.row_width(),
                               pi_.row_width());
    std::copy(src.begin(), src.end(), pi_.row(mb.vertices[vi]).begin());
  }
  record_stage(trace::Stage::kUpdatePi);

  // --- update_beta/theta: ratio partials over kThetaBlocks fixed blocks
  // of the pair range, claimed dynamically and folded serially in block
  // order. Block boundaries depend only on the pair count, never on the
  // thread count or on which thread ran a block, so the reduction — and
  // hence the whole trajectory — is bit-identical for any number of
  // threads (see tests/core/zero_alloc_test.cpp). ------------------------
  std::fill(ws_.theta_partials.begin(), ws_.theta_partials.end(), 0.0);
  const std::size_t num_pairs = mb.pairs.size();
  pool_.parallel_for_dynamic(
      0, kThetaBlocks, kThetaGrain,
      [&](unsigned thread, std::uint64_t blo, std::uint64_t bhi) {
        ThreadSlot& slot = ws_.slots[thread];
        for (std::uint64_t b = blo; b < bhi; ++b) {
          const auto [lo, hi] = threading::ThreadPool::chunk_bounds(
              0, num_pairs, static_cast<unsigned>(b), kThetaBlocks);
          double* base = ws_.theta_partials.data() + b * ws_.theta_stride;
          std::span<double> link(base, k);
          std::span<double> nonlink(base + k, k);
          for (std::uint64_t i = lo; i < hi; ++i) {
            const graph::MinibatchPair& p = mb.pairs[i];
            fast_accumulate_theta_ratio(pi_.row(p.a), pi_.row(p.b), terms_,
                                        p.link, p.link ? link : nonlink,
                                        slot.phi.w);
          }
        }
      });
  std::fill(ws_.ratios.begin(), ws_.ratios.end(), 0.0);
  for (std::size_t b = 0; b < kThetaBlocks; ++b) {
    const double* base = ws_.theta_partials.data() + b * ws_.theta_stride;
    for (std::size_t i = 0; i < ws_.ratios.size(); ++i) {
      ws_.ratios[i] += base[i];
    }
  }
  std::fill(ws_.theta_grad.begin(), ws_.theta_grad.end(), 0.0);
  theta_grad_from_ratios(std::span<const double>(ws_.ratios.data(), k),
                         std::span<const double>(ws_.ratios.data() + k, k),
                         global_.theta_flat(), ws_.theta_grad);
  for (double& g : ws_.theta_grad) g *= mb.scale;
  update_theta(options_.seed, iteration_, global_, ws_.theta_grad, eps,
               hyper_.eta0, hyper_.eta1, options_.noise_factor,
               options_.gradient_form);
  terms_.refresh(global_.beta_all(), hyper_.delta);
  record_stage(trace::Stage::kUpdateBetaTheta);

  ++iteration_;
}

void ParallelSampler::run(std::uint64_t iterations) {
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

double ParallelSampler::evaluate_perplexity() {
  SCD_REQUIRE(evaluator_ != nullptr,
              "no held-out split was given to the sampler");
  const double eval_begin = trace_ != nullptr ? trace_now() : 0.0;
  // Parallel per-pair probabilities (disjoint writes), then a serial
  // log-average over the slice (deterministic order).
  pool_.parallel_for(
      0, evaluator_->size(),
      [&](unsigned, std::uint64_t lo, std::uint64_t hi) {
        for (std::uint64_t i = lo; i < hi; ++i) {
          const graph::HeldOutPair& p = evaluator_->slice()[i];
          const double z = fast_pair_likelihood(pi_.row(p.a), pi_.row(p.b),
                                                terms_, p.link);
          evaluator_->add_sample_prob(i, z);
        }
      });
  evaluator_->finish_sample();
  const double perp = PerplexityEvaluator::perplexity(
      evaluator_->sum_log_avg(), evaluator_->size());
  if (trace_ != nullptr) {
    trace_->record_span(0, trace::Stage::kPerplexity, eval_begin,
                        trace_now(), iteration_);
  }
  history_.push_back({iteration_, elapsed_s_, perp});
  return perp;
}


Checkpoint ParallelSampler::checkpoint() const {
  Checkpoint snapshot;
  snapshot.iteration = iteration_;
  snapshot.hyper = hyper_;
  snapshot.pi = pi_;
  snapshot.global = global_;
  return snapshot;
}

void ParallelSampler::restore(const Checkpoint& checkpoint) {
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
