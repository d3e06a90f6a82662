// The SGRLD options of SamplerOptions reach the phi step of every engine.
//
// Pi after the first iteration depends on the phi step alone: theta is
// stepped after pi is committed. So if an engine honours `noise_factor`
// and `gradient_form` on phi, changing either must move the pi rows of
// that iteration's minibatch vertices, and leave every other row at its
// initial value.
#include <gtest/gtest.h>

#include <bit>
#include <functional>
#include <span>
#include <vector>

#include "core/distributed_sampler.h"
#include "core/parallel_sampler.h"
#include "sim/cluster.h"
#include "tests/core/test_fixtures.h"

namespace scd::core {
namespace {

using testing::Fixture;
using testing::small_planted_fixture;

bool same_row(std::span<const float> a, std::span<const float> b) {
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::bit_cast<std::uint32_t>(a[i]) !=
        std::bit_cast<std::uint32_t>(b[i])) {
      return false;
    }
  }
  return true;
}

/// pi after one iteration of an engine under the given options.
using OneIteration =
    std::function<PiMatrix(const Fixture&, const SamplerOptions&)>;

OneIteration parallel_engine(unsigned threads) {
  return [threads](const Fixture& f, const SamplerOptions& options) {
    ParallelSampler sampler(f.split->training(), f.split.get(), f.hyper,
                            options, threads);
    sampler.run(1);
    return sampler.pi();
  };
}

OneIteration distributed_engine(unsigned workers) {
  return [workers](const Fixture& f, const SamplerOptions& options) {
    sim::SimCluster::Config config;
    config.num_ranks = workers + 1;
    sim::SimCluster cluster(config);
    DistributedOptions dist_options;
    dist_options.base = options;
    dist_options.chunk_vertices = 8;
    DistributedSampler sampler(cluster, f.split->training(), f.split.get(),
                               f.hyper, dist_options);
    sampler.run(1);
    return sampler.snapshot_pi();
  };
}

/// The rows `base` moved from `init` (the minibatch vertices) must all
/// differ in `changed`; every other row keeps its initial value in both.
void expect_phi_rows_changed(const PiMatrix& init, const PiMatrix& base,
                             const PiMatrix& changed) {
  std::size_t moved = 0;
  for (std::uint32_t v = 0; v < init.num_vertices(); ++v) {
    if (same_row(base.row(v), init.row(v))) {
      EXPECT_TRUE(same_row(changed.row(v), init.row(v))) << "vertex " << v;
    } else {
      ++moved;
      EXPECT_FALSE(same_row(changed.row(v), base.row(v))) << "vertex " << v;
    }
  }
  EXPECT_GT(moved, 0u);
}

TEST(PhiOptionsTest, NoiseFactorAndGradientFormReachEveryEngine) {
  Fixture f = small_planted_fixture(2024, 150, 4, 80);
  f.options.eval_interval = 0;
  PiMatrix init(f.generated.graph.num_vertices(), f.hyper.num_communities);
  init.init_random(f.options.seed, f.options.init_shape);

  SamplerOptions noiseless = f.options;
  noiseless.noise_factor = 0.0;
  SamplerOptions preconditioned = f.options;
  preconditioned.gradient_form = GradientForm::kPreconditioned;

  const struct {
    const char* name;
    OneIteration run;
  } kEngines[] = {
      {"parallel T=1", parallel_engine(1)},
      {"parallel T=3", parallel_engine(3)},
      {"distributed sim W=1", distributed_engine(1)},
      {"distributed sim W=2", distributed_engine(2)},
  };
  for (const auto& engine : kEngines) {
    SCOPED_TRACE(engine.name);
    const PiMatrix base = engine.run(f, f.options);
    {
      SCOPED_TRACE("noise_factor 0 vs 1");
      expect_phi_rows_changed(init, base, engine.run(f, noiseless));
    }
    {
      SCOPED_TRACE("preconditioned vs raw Eqn 3");
      expect_phi_rows_changed(init, base, engine.run(f, preconditioned));
    }
  }
}

}  // namespace
}  // namespace scd::core
