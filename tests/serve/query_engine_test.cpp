#include "serve/query_engine.h"

#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "core/checkpoint.h"
#include "core/kernels_simd.h"
#include "core/parallel_sampler.h"
#include "core/perplexity.h"
#include "tests/core/test_fixtures.h"
#include "tests/serve/ranking_reference.h"
#include "threading/thread_pool.h"

namespace scd::serve {
namespace {

using core::testing::small_planted_fixture;

core::Checkpoint random_checkpoint(std::uint32_t n, std::uint32_t k,
                                   std::uint64_t seed) {
  core::Checkpoint c;
  c.hyper.num_communities = k;
  c.hyper.delta = 1e-3;
  c.pi = core::PiMatrix(n, k);
  c.pi.init_random(seed);
  c.global = core::GlobalState(k);
  c.global.init_random(seed, c.hyper);
  return c;
}

std::unique_ptr<ServingSnapshots> make_store(core::Checkpoint checkpoint,
                                             std::uint32_t top_r = 4) {
  threading::ThreadPool pool(2);
  ServingIndexOptions options;
  options.top_r = top_r;
  return std::make_unique<ServingSnapshots>(
      build_serving_index(std::move(checkpoint), options, pool));
}

TEST(QueryEngineTest, ThrowsUntilFirstSnapshot) {
  ServingSnapshots snapshots;
  QueryEngine engine(snapshots);
  EXPECT_THROW(engine.link_probability(0, 1), scd::Error);
  EXPECT_THROW(engine.top_communities(0, 3), scd::Error);
  EXPECT_THROW(engine.community_members(0, 3), scd::Error);
}

TEST(QueryEngineTest, RangeChecked) {
  auto snapshots = make_store(random_checkpoint(20, 6, 1));
  QueryEngine engine(*snapshots);
  EXPECT_THROW(engine.top_communities(20, 3), scd::UsageError);
  EXPECT_THROW(engine.link_probability(0, 20), scd::UsageError);
  EXPECT_THROW(engine.community_members(6, 3), scd::UsageError);
}

// The serving contract: a served link probability is the SAME number the
// training-side perplexity evaluator computes for that pair — same
// kernel, same rows, same terms, bit for bit. Exercised on a real
// (briefly) trained model, not just random state.
TEST(QueryEngineTest, LinkProbabilityBitIdenticalToTrainingKernel) {
  auto fixture = small_planted_fixture();
  core::ParallelSampler sampler(fixture.split->training(),
                                fixture.split.get(), fixture.hyper,
                                fixture.options, 2);
  sampler.run(100);
  const core::Checkpoint checkpoint = sampler.checkpoint();

  // Training-side terms, refreshed exactly as the evaluator does it.
  core::LikelihoodTerms terms;
  terms.refresh(checkpoint.global.beta_all(), checkpoint.hyper.delta);

  auto snapshots = make_store(sampler.checkpoint());
  QueryEngine engine(*snapshots);
  for (const graph::HeldOutPair& p : fixture.split->pairs()) {
    const double trained = core::fast_pair_likelihood(
        checkpoint.pi.row(p.a), checkpoint.pi.row(p.b), terms, p.link);
    EXPECT_EQ(engine.pair_likelihood(p.a, p.b, p.link), trained);
    if (p.link) {
      EXPECT_EQ(engine.link_probability(p.a, p.b), trained);
    }
  }
}

TEST(QueryEngineTest, DeepTopQueryFallsBackExactly) {
  const std::uint32_t k = 12;
  auto snapshots = make_store(random_checkpoint(30, k, 7), /*top_r=*/4);
  QueryEngine engine(*snapshots);

  // k <= R: served from the index.
  const auto shallow = engine.top_communities(3, 4);
  // k > R: exact fallback over the dense row; its prefix must agree.
  const auto deep = engine.top_communities(3, k);
  ASSERT_EQ(deep.size(), k);
  for (std::size_t i = 0; i < shallow.size(); ++i) {
    EXPECT_EQ(deep[i].community, shallow[i].community);
    EXPECT_EQ(deep[i].weight, shallow[i].weight);
  }
  // Full ranking is weight-descending and covers every community once.
  std::vector<bool> seen(k, false);
  for (std::size_t i = 0; i < deep.size(); ++i) {
    EXPECT_FALSE(seen[deep[i].community]);
    seen[deep[i].community] = true;
    if (i > 0) EXPECT_LE(deep[i].weight, deep[i - 1].weight);
  }
  // Asks beyond K clamp.
  EXPECT_EQ(engine.top_communities(3, k + 50).size(), k);

  // Every depth of every row equals the brute-force ranking, on random
  // and tie-heavy rows (few levels, all equal, mixed signed zeros), at
  // R < K, R = K and the benchmark shape K = 256, R = 32.
  const struct {
    std::uint32_t k, r;
    bool ties;
  } kCases[] = {
      {12, 4, false}, {12, 4, true}, {12, 12, true}, {256, 32, true},
  };
  for (const auto& tc : kCases) {
    SCOPED_TRACE(::testing::Message() << "k=" << tc.k << " r=" << tc.r
                                      << " ties=" << tc.ties);
    core::Checkpoint checkpoint = random_checkpoint(24, tc.k, 9);
    if (tc.ties) testing::shape_ties(checkpoint.pi);
    auto store = make_store(std::move(checkpoint), tc.r);
    const QueryEngine tied(*store);
    const auto ref = store->acquire();
    for (std::uint32_t u = 0; u < 24; ++u) {
      for (const std::uint32_t depth : {tc.r, tc.r + 1, tc.k}) {
        if (depth > tc.k) continue;
        EXPECT_TRUE(testing::same_entries(
            tied.top_communities(u, depth),
            testing::brute_force_top(ref->pi_row(u), tc.k, depth)))
            << "u=" << u << " depth=" << depth;
      }
    }
  }
}

TEST(QueryEngineTest, CommunityMembersClampsToListSize) {
  auto snapshots = make_store(random_checkpoint(40, 6, 3), /*top_r=*/6);
  QueryEngine engine(*snapshots);
  std::size_t full = 0;
  {
    const auto ref = snapshots->acquire();
    full = ref->members(2).size();
  }
  EXPECT_EQ(engine.community_members(2, 1'000'000).size(), full);
  if (full > 1) {
    EXPECT_EQ(engine.community_members(2, 1).size(), 1u);
  }
}

TEST(QueryEngineTest, QueriesFollowPublishedSnapshot) {
  threading::ThreadPool pool(2);
  ServingIndexOptions options;
  options.top_r = 4;
  ServingSnapshots snapshots(
      build_serving_index(random_checkpoint(20, 6, 1), options, pool));
  QueryEngine engine(snapshots);
  EXPECT_EQ(engine.epoch(), 1u);
  const double before = engine.link_probability(0, 1);

  snapshots.publish(
      build_serving_index(random_checkpoint(20, 6, 2), options, pool));
  EXPECT_EQ(engine.epoch(), 2u);
  // Different model state ⇒ (almost surely) different probability; the
  // point is the engine answers from the new snapshot without rebinding.
  EXPECT_NE(engine.link_probability(0, 1), before);
}

}  // namespace
}  // namespace scd::serve
