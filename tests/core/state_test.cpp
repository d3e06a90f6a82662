#include "core/state.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>
#include <span>
#include <vector>

#include "threading/thread_pool.h"

namespace scd::core {
namespace {

TEST(DeriveRngTest, DeterministicPerTuple) {
  auto a = derive_rng(1, rng_label::kPhiNoise, 10, 20);
  auto b = derive_rng(1, rng_label::kPhiNoise, 10, 20);
  for (int i = 0; i < 20; ++i) EXPECT_EQ(a(), b());
}

TEST(DeriveRngTest, TupleComponentsAllMatter) {
  const std::uint64_t base = derive_rng(1, 2, 3, 4)();
  EXPECT_NE(derive_rng(9, 2, 3, 4)(), base);
  EXPECT_NE(derive_rng(1, 9, 3, 4)(), base);
  EXPECT_NE(derive_rng(1, 2, 9, 4)(), base);
  EXPECT_NE(derive_rng(1, 2, 3, 9)(), base);
}

TEST(PiMatrixTest, InitRowsAreNormalizedWithConsistentSum) {
  PiMatrix pi(50, 8);
  pi.init_random(123);
  for (std::uint32_t v = 0; v < 50; ++v) {
    double sum = 0.0;
    for (std::uint32_t k = 0; k < 8; ++k) {
      EXPECT_GT(pi.pi(v, k), 0.0f);
      sum += pi.pi(v, k);
    }
    EXPECT_NEAR(sum, 1.0, 1e-5);
    EXPECT_GT(pi.phi_sum(v), 0.0f);
  }
}

TEST(PiMatrixTest, InitIsDeterministicPerSeedAndVertex) {
  PiMatrix a(10, 4);
  a.init_random(7);
  PiMatrix b(10, 4);
  b.init_random(7);
  for (std::uint32_t v = 0; v < 10; ++v) {
    for (std::uint32_t k = 0; k < 5; ++k) {  // includes phi_sum slot
      EXPECT_EQ(a.row(v)[k], b.row(v)[k]);
    }
  }
  PiMatrix c(10, 4);
  c.init_random(8);
  EXPECT_NE(a.row(0)[0], c.row(0)[0]);
}

TEST(PiMatrixTest, InitRowStandaloneMatchesMatrix) {
  PiMatrix m(5, 6);
  m.init_random(99, 0.7);
  std::vector<float> row(7);
  init_pi_row(99, 3, 0.7, row);
  for (int i = 0; i < 7; ++i) EXPECT_EQ(row[static_cast<std::size_t>(i)], m.row(3)[static_cast<std::size_t>(i)]);
}

// init_random draws each row from its own stream on the pool, so at any
// thread count the matrix is the per-vertex init_pi_row output byte for
// byte. N runs from one row to many claims, K from one community
// (1024-row claims) to 257 (3-row claims), and the Gamma shape from
// below 1 to above it.
TEST(PiMatrixTest, PoolInitMatchesPerVertexRowsAtAnyThreadCount) {
  constexpr std::uint64_t kSeed = 2024;
  std::vector<std::unique_ptr<threading::ThreadPool>> pools;
  for (const unsigned threads : {1u, 2u, 3u, 5u}) {
    pools.push_back(std::make_unique<threading::ThreadPool>(threads));
  }
  for (const std::uint32_t n : {1u, 63u, 64u, 65u, 2000u}) {
    for (const std::uint32_t k : {1u, 7u, 64u, 257u}) {
      for (const double shape : {0.5, 1.0, 2.0}) {
        std::vector<float> expected(std::size_t{n} * (k + 1));
        for (std::uint32_t v = 0; v < n; ++v) {
          init_pi_row(kSeed, v, shape,
                      std::span<float>(expected).subspan(
                          std::size_t{v} * (k + 1), k + 1));
        }
        for (const auto& pool : pools) {
          PiMatrix pi = PiMatrix::for_overwrite(n, k);
          pi.init_random(*pool, kSeed, shape);
          ASSERT_EQ(pi.flat().size(), expected.size());
          EXPECT_EQ(std::memcmp(pi.flat().data(), expected.data(),
                                pi.flat().size_bytes()),
                    0)
              << "T=" << pool->num_threads() << " N=" << n << " K=" << k
              << " shape=" << shape;
        }
      }
    }
  }
}

TEST(PiMatrixTest, NewMatrixIsZeroAndCopiesAreIndependent) {
  PiMatrix zero(3, 4);
  for (const float x : zero.flat()) EXPECT_EQ(x, 0.0f);
  PiMatrix a(3, 4);
  a.init_random(11);
  PiMatrix b(a);
  b.row(1)[2] = -1.0f;
  EXPECT_NE(a.row(1)[2], -1.0f);
  PiMatrix moved(std::move(b));
  EXPECT_EQ(b.num_vertices(), 0u);
  EXPECT_TRUE(b.flat().empty());
  EXPECT_EQ(moved.row(1)[2], -1.0f);
}

TEST(GlobalStateTest, BetaDerivedFromTheta) {
  GlobalState g(3);
  g.set_theta(0, 0, 3.0);
  g.set_theta(0, 1, 1.0);
  g.set_theta(1, 0, 1.0);
  g.set_theta(1, 1, 4.0);
  g.update_beta_from_theta();
  EXPECT_NEAR(g.beta(0), 0.25, 1e-6);
  EXPECT_NEAR(g.beta(1), 0.8, 1e-6);
}

TEST(GlobalStateTest, BetaClampedIntoOpenInterval) {
  GlobalState g(1);
  g.set_theta(0, 0, 0.0);
  g.set_theta(0, 1, 5.0);
  g.update_beta_from_theta();
  EXPECT_LT(g.beta(0), 1.0f);
  EXPECT_GT(g.beta(0), 0.0f);
}

TEST(GlobalStateTest, InitRandomPositiveAndDeterministic) {
  Hyper hyper;
  hyper.num_communities = 6;
  GlobalState a(6);
  a.init_random(5, hyper);
  GlobalState b(6);
  b.init_random(5, hyper);
  for (std::uint32_t k = 0; k < 6; ++k) {
    EXPECT_GT(a.theta(k, 0), 0.0);
    EXPECT_GT(a.theta(k, 1), 0.0);
    EXPECT_EQ(a.theta(k, 0), b.theta(k, 0));
    EXPECT_EQ(a.beta(k), b.beta(k));
  }
}

TEST(StateTest, RowWidthIsKPlusOne) {
  EXPECT_EQ(pi_row_width(16), 17u);
}

}  // namespace
}  // namespace scd::core
