#include "serve/serving_index.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <utility>

#include "core/checkpoint.h"
#include "core/report.h"
#include "quant/row_codec.h"
#include "tests/serve/ranking_reference.h"
#include "threading/thread_pool.h"

namespace scd::serve {
namespace {

core::Checkpoint make_checkpoint(std::uint32_t n, std::uint32_t k,
                                 std::uint64_t seed) {
  core::Checkpoint c;
  c.iteration = 77;
  c.hyper.num_communities = k;
  c.hyper.delta = 1e-3;
  c.pi = core::PiMatrix(n, k);
  c.pi.init_random(seed);
  c.global = core::GlobalState(k);
  c.global.init_random(seed, c.hyper);
  return c;
}

// Random rows, then tie-heavy ones (few levels, all equal, mixed signed
// zeros), at R < K, at R = K and at the benchmark shape K = 256, R = 32.
TEST(ServingIndexTest, TopListsMatchBruteForce) {
  const struct {
    std::uint32_t n, k, r;
    bool ties;
  } kCases[] = {
      {64, 12, 5, false}, {64, 12, 5, true},   {64, 12, 12, true},
      {40, 256, 32, true}, {40, 256, 256, true},
  };
  threading::ThreadPool pool(2);
  for (const auto& tc : kCases) {
    SCOPED_TRACE(::testing::Message() << "k=" << tc.k << " r=" << tc.r
                                      << " ties=" << tc.ties);
    core::Checkpoint checkpoint = make_checkpoint(tc.n, tc.k, 3);
    if (tc.ties) testing::shape_ties(checkpoint.pi);
    ServingIndexOptions options;
    options.top_r = tc.r;
    const ServingIndex index(std::move(checkpoint), options, pool);
    ASSERT_EQ(index.top_r(), tc.r);
    for (std::uint32_t v = 0; v < tc.n; ++v) {
      const auto expected =
          testing::brute_force_top(index.pi_row(v), tc.k, tc.r);
      EXPECT_TRUE(testing::same_entries(index.top_list(v), expected))
          << "v=" << v;
    }
  }
}

// A NaN or infinite pi weight has no place in the ranking: the build
// refuses it and names where it sits.
TEST(ServingIndexTest, RefusesNonFiniteWeights) {
  threading::ThreadPool pool(2);
  for (const float bad : {std::numeric_limits<float>::quiet_NaN(),
                          std::numeric_limits<float>::infinity(),
                          -std::numeric_limits<float>::infinity()}) {
    SCOPED_TRACE(bad);
    core::Checkpoint checkpoint = make_checkpoint(30, 8, 4);
    checkpoint.pi.row(17)[5] = bad;
    try {
      const ServingIndex index(
          core::checkpoint_from_bytes(core::checkpoint_to_bytes(checkpoint)),
          ServingIndexOptions{}, pool);
      ADD_FAILURE() << "non-finite weight accepted";
    } catch (const scd::DataError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("vertex 17"), std::string::npos) << what;
      EXPECT_NE(what.find("community 5"), std::string::npos) << what;
    }
  }
}

TEST(ServingIndexTest, BuildIsThreadCountIndependent) {
  const std::uint32_t n = 150;
  const std::uint32_t k = 16;
  ServingIndexOptions options;
  options.top_r = 6;
  threading::ThreadPool pool1(1);
  threading::ThreadPool pool3(3);
  const ServingIndex a(make_checkpoint(n, k, 11), options, pool1);
  const ServingIndex b(make_checkpoint(n, k, 11), options, pool3);
  ASSERT_EQ(a.inverted_entries(), b.inverted_entries());
  for (std::uint32_t v = 0; v < n; ++v) {
    const auto la = a.top_list(v);
    const auto lb = b.top_list(v);
    for (std::size_t i = 0; i < la.size(); ++i) {
      ASSERT_EQ(la[i].community, lb[i].community);
      ASSERT_EQ(la[i].weight, lb[i].weight);
    }
  }
  for (std::uint32_t c = 0; c < k; ++c) {
    const auto ma = a.members(c);
    const auto mb = b.members(c);
    ASSERT_EQ(ma.size(), mb.size());
    for (std::size_t i = 0; i < ma.size(); ++i) {
      ASSERT_EQ(ma[i].vertex, mb[i].vertex);
      ASSERT_EQ(ma[i].weight, mb[i].weight);
    }
  }
}

TEST(ServingIndexTest, InvertedListsRespectThresholdAndOrder) {
  const std::uint32_t n = 120;
  const std::uint32_t k = 10;
  threading::ThreadPool pool(2);
  ServingIndexOptions options;
  options.top_r = k;  // full window: membership decided by threshold alone
  options.membership_threshold = 0.2;
  const ServingIndex index(make_checkpoint(n, k, 5), options, pool);
  EXPECT_DOUBLE_EQ(index.membership_threshold(), 0.2);

  std::uint64_t listed = 0;
  for (std::uint32_t c = 0; c < k; ++c) {
    const auto members = index.members(c);
    listed += members.size();
    for (std::size_t i = 0; i < members.size(); ++i) {
      EXPECT_GE(members[i].weight, 0.2f);
      EXPECT_EQ(members[i].weight, index.pi_row(members[i].vertex)[c]);
      if (i > 0) {
        const bool ordered =
            members[i - 1].weight > members[i].weight ||
            (members[i - 1].weight == members[i].weight &&
             members[i - 1].vertex < members[i].vertex);
        EXPECT_TRUE(ordered) << "c=" << c << " i=" << i;
      }
    }
  }
  // Cross-check the total against a dense scan.
  std::uint64_t expected = 0;
  for (std::uint32_t v = 0; v < n; ++v) {
    for (std::uint32_t c = 0; c < k; ++c) {
      if (index.pi_row(v)[c] >= 0.2f) ++expected;
    }
  }
  EXPECT_EQ(listed, expected);
  EXPECT_EQ(index.inverted_entries(), expected);
}

TEST(ServingIndexTest, AutoThresholdMatchesReportHeuristic) {
  threading::ThreadPool pool(1);
  const ServingIndex index(make_checkpoint(40, 8, 1), ServingIndexOptions{},
                           pool);
  EXPECT_DOUBLE_EQ(index.membership_threshold(),
                   core::default_membership_threshold(8));
}

TEST(ServingIndexTest, TopRClampsToK) {
  threading::ThreadPool pool(1);
  ServingIndexOptions options;
  options.top_r = 100;
  const ServingIndex index(make_checkpoint(30, 6, 2), options, pool);
  EXPECT_EQ(index.top_r(), 6u);
  EXPECT_EQ(index.top_list(0).size(), 6u);
}

TEST(ServingIndexTest, BuildsFromLossyCodecCheckpoint) {
  const auto original = make_checkpoint(50, 8, 9);
  const std::string bytes =
      core::checkpoint_to_bytes(original, quant::RowCodec::kInt8);
  threading::ThreadPool pool(2);
  ServingIndexOptions options;
  options.top_r = 4;
  const ServingIndex index(core::checkpoint_from_bytes(bytes), options,
                           pool);
  EXPECT_EQ(index.num_vertices(), 50u);
  EXPECT_EQ(index.iteration(), 77u);
  // Lists rank the *decoded* rows — exactly what pi_row exposes.
  for (std::uint32_t v = 0; v < 50; ++v) {
    const auto expected = testing::brute_force_top(index.pi_row(v), 8, 4);
    const auto got = index.top_list(v);
    for (std::size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got[i].community, expected[i].community);
    }
  }
}

TEST(ServingIndexTest, IndexBytesAccountsForStructures) {
  threading::ThreadPool pool(1);
  const ServingIndex index(make_checkpoint(40, 8, 1), ServingIndexOptions{},
                           pool);
  // At minimum the dense rows + top lists are resident.
  EXPECT_GT(index.index_bytes(),
            std::size_t{40} * 9 * sizeof(float));
}

}  // namespace
}  // namespace scd::serve
