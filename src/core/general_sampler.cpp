#include "core/general_sampler.h"

#include <chrono>

#include "core/grads.h"  // update_phi_row (parameterization is shared)
#include "util/error.h"

namespace scd::core {

namespace {
using steady = std::chrono::steady_clock;
}

GeneralSequentialSampler::GeneralSequentialSampler(
    const graph::Graph& training, const graph::HeldOutSplit* heldout,
    const Hyper& hyper, const SamplerOptions& options)
    : graph_(training),
      heldout_(heldout),
      hyper_(hyper),
      options_(options),
      pi_(PiMatrix::for_overwrite(training.num_vertices(),
                                  hyper.num_communities)),
      blocks_(hyper.num_communities),
      minibatch_(training, heldout, options.minibatch) {
  hyper_.validate();
  options_.validate();
  pi_.init_random(options_.seed, options_.init_shape);
  // Assortative default start (see BlockMatrix::init_assortative);
  // warm_start_blocks overrides it for other structural hypotheses.
  blocks_.init_assortative(options_.seed, /*beta_diag=*/0.3, hyper_.delta);
  terms_.refresh(blocks_);
  if (heldout_ != nullptr) {
    evaluator_ = std::make_unique<PerplexityEvaluator>(
        std::span<const graph::HeldOutPair>(heldout_->pairs()));
  }
}

void GeneralSequentialSampler::one_iteration() {
  const double eps = options_.step.eps(iteration_);
  rng::Xoshiro256 mb_rng =
      derive_rng(options_.seed, rng_label::kMinibatch, iteration_);
  const graph::Minibatch mb = minibatch_.draw(mb_rng);
  const std::uint32_t k = hyper_.num_communities;

  // --- update_phi: staged against the current state --------------------
  std::vector<float> staged(mb.vertices.size() * pi_.row_width());
  std::vector<double> g_exact(k);
  std::vector<double> g_sampled(k);
  for (std::size_t vi = 0; vi < mb.vertices.size(); ++vi) {
    const graph::Vertex a = mb.vertices[vi];
    rng::Xoshiro256 nbr_rng =
        derive_rng(options_.seed, rng_label::kNeighbors, iteration_, a);
    const graph::NeighborSet set = graph::draw_neighbor_set(
        nbr_rng, options_.neighbor_mode, graph_.num_vertices(), a,
        graph_.neighbors(a), options_.num_neighbors);
    std::fill(g_exact.begin(), g_exact.end(), 0.0);
    std::fill(g_sampled.begin(), g_sampled.end(), 0.0);
    for (std::size_t i = 0; i < set.samples.size(); ++i) {
      const graph::NeighborSample& nb = set.samples[i];
      general_accumulate_phi_grad(
          pi_.row(a), pi_.row(nb.b), terms_, blocks_, nb.link,
          i < set.exact_prefix ? std::span<double>(g_exact)
                               : std::span<double>(g_sampled));
    }
    for (std::size_t i = 0; i < k; ++i) {
      g_exact[i] += set.sampled_scale * g_sampled[i];
    }
    std::span<float> out(staged.data() + vi * pi_.row_width(),
                         pi_.row_width());
    std::copy(pi_.row(a).begin(), pi_.row(a).end(), out.begin());
    update_phi_row(options_.seed, iteration_, a, out, g_exact,
                   /*scale=*/1.0, eps, hyper_.normalized_alpha(),
                   options_.noise_factor, options_.gradient_form);
  }

  // --- update_pi: commit ------------------------------------------------
  for (std::size_t vi = 0; vi < mb.vertices.size(); ++vi) {
    std::span<const float> src(staged.data() + vi * pi_.row_width(),
                               pi_.row_width());
    std::copy(src.begin(), src.end(), pi_.row(mb.vertices[vi]).begin());
  }

  // --- update B/theta ----------------------------------------------------
  const std::uint32_t blocks = blocks_.num_blocks();
  std::vector<double> ratio_link(blocks, 0.0);
  std::vector<double> ratio_nonlink(blocks, 0.0);
  for (const graph::MinibatchPair& p : mb.pairs) {
    general_accumulate_theta_ratio(
        pi_.row(p.a), pi_.row(p.b), terms_, blocks_, p.link,
        p.link ? std::span<double>(ratio_link)
               : std::span<double>(ratio_nonlink));
  }
  if (iteration_ >= block_freeze_until_) {
    std::vector<double> grad(std::size_t{blocks} * 2, 0.0);
    general_theta_grad_from_ratios(ratio_link, ratio_nonlink, blocks_,
                                   grad);
    for (double& g : grad) g *= mb.scale;
    general_update_theta(options_.seed, iteration_, blocks_, grad, eps,
                         hyper_.eta0, hyper_.eta1, options_.noise_factor);
    terms_.refresh(blocks_);
  }

  ++iteration_;
}

void GeneralSequentialSampler::run(std::uint64_t iterations) {
  for (std::uint64_t i = 0; i < iterations; ++i) {
    const steady::time_point start = steady::now();
    one_iteration();
    elapsed_s_ +=
        std::chrono::duration<double>(steady::now() - start).count();
    if (evaluator_ && options_.eval_interval > 0 &&
        iteration_ % options_.eval_interval == 0) {
      evaluate_perplexity();
    }
  }
}

double GeneralSequentialSampler::evaluate_perplexity() {
  SCD_REQUIRE(evaluator_ != nullptr,
              "no held-out split was given to the sampler");
  const auto slice = evaluator_->slice();
  for (std::size_t i = 0; i < slice.size(); ++i) {
    const graph::HeldOutPair& p = slice[i];
    evaluator_->add_sample_prob(
        i, general_pair_likelihood(pi_.row(p.a), pi_.row(p.b), terms_,
                                   blocks_, p.link));
  }
  evaluator_->finish_sample();
  const double perp = PerplexityEvaluator::perplexity(
      evaluator_->sum_log_avg(), slice.size());
  history_.push_back({iteration_, elapsed_s_, perp});
  return perp;
}

void GeneralSequentialSampler::warm_start_blocks(
    const BlockMatrix& blocks) {
  SCD_REQUIRE(blocks.num_communities() == hyper_.num_communities,
              "warm-start block matrix has the wrong K");
  SCD_REQUIRE(iteration_ == 0, "warm start must precede training");
  blocks_ = blocks;
  terms_.refresh(blocks_);
}

}  // namespace scd::core
