#include "serve/serving_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "core/checkpoint.h"
#include "core/report.h"
#include "quant/row_codec.h"
#include "random/xoshiro.h"
#include "util/rank_key.h"
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

/// Row shapes for the select_top property test.
enum class Shape {
  kContinuous,
  kQuantised,   // a few levels: long runs of equal weights
  kAllEqual,
  kSignedZeros, // +0.0f and -0.0f interleaved around a few positives
  kSubnormal,
  kNegative,
  kStraddle,    // a run of equal weights across the k-th position
  kSpike,       // one huge weight over tiny noise
  kConcentrated,  // the serving model's rows: planted weights over noise
};

std::vector<float> shaped_row(Shape shape, std::uint32_t num,
                              std::uint32_t k, rng::Xoshiro256& rng) {
  std::vector<float> row(num);
  for (std::uint32_t c = 0; c < num; ++c) {
    const float u = rng.next_float();
    switch (shape) {
      case Shape::kContinuous: row[c] = u; break;
      case Shape::kQuantised: row[c] = std::round(u * 4.0f) / 4.0f; break;
      case Shape::kAllEqual: row[c] = 0.125f; break;
      case Shape::kSignedZeros:
        row[c] = u < 0.05f ? u : (c % 2 == 0 ? 0.0f : -0.0f);
        break;
      case Shape::kSubnormal:
        row[c] = u < 0.2f ? 0.0f : u * 1e-39f;
        break;
      case Shape::kNegative: row[c] = 2.0f * u - 1.0f; break;
      case Shape::kStraddle:
        // About k/2 entries above the run, the run itself at 0.5, the
        // rest below it: the k-th best lands inside the run.
        row[c] = u < 0.5f * static_cast<float>(k) / static_cast<float>(num)
                     ? 0.5f + u
                     : (u < 0.9f ? 0.5f : 0.5f * u);
        break;
      case Shape::kSpike: row[c] = 1e-7f + u * 1e-9f; break;
      case Shape::kConcentrated:
        row[c] = u * 0.2f / static_cast<float>(num);
        break;
    }
  }
  if (shape == Shape::kConcentrated) {
    const std::uint32_t planted = 1 + static_cast<std::uint32_t>(rng() % 3);
    for (std::uint32_t i = 0; i < planted; ++i) {
      row[static_cast<std::uint32_t>(rng() % num)] =
          0.3f + 0.6f * rng.next_float();
    }
  }
  if (shape == Shape::kSpike) {
    row[static_cast<std::uint32_t>(rng() % num)] = 0.99f;
  }
  return row;
}

// select_top on its own, against the brute-force ranking compared by
// bits: every row size around the 8-wide and 64-entry boundaries, k on
// both sides of the 64-entry rank-count limit, and row shapes that hit
// each tie rule and force the threshold search to narrow.
TEST(SelectTopTest, MatchesBruteForceOnEveryShape) {
  const Shape kShapes[] = {
      Shape::kContinuous, Shape::kQuantised, Shape::kAllEqual,
      Shape::kSignedZeros, Shape::kSubnormal, Shape::kNegative,
      Shape::kStraddle, Shape::kSpike,
  };
  rng::Xoshiro256 rng(20261018);
  for (const std::uint32_t num : {1u, 2u, 7u, 8u, 9u, 63u, 64u, 65u, 256u,
                                  1000u}) {
    for (const std::uint32_t ask : {1u, 2u, 32u, 64u, 65u, num - 1, num}) {
      const std::uint32_t k = std::clamp(ask, 1u, num);
      for (const Shape shape : kShapes) {
        SCOPED_TRACE(::testing::Message()
                     << "K=" << num << " k=" << k
                     << " shape=" << static_cast<int>(shape));
        for (int rep = 0; rep < 3; ++rep) {
          const std::vector<float> row = shaped_row(shape, num, k, rng);
          std::vector<TopEntry> got(k);
          select_top(row, k, got);
          ASSERT_TRUE(testing::same_entries(
              got, testing::brute_force_top(row, num, k)))
              << "rep=" << rep;
        }
      }
    }
  }
}

/// True when select_top's k best of `row` are the brute-force ranking's,
/// compared by bits.
bool selects_like_brute_force(const std::vector<float>& row,
                              std::uint32_t k) {
  const auto num = static_cast<std::uint32_t>(row.size());
  std::vector<TopEntry> got(k);
  select_top(row, k, got);
  return testing::same_entries(got, testing::brute_force_top(row, num, k));
}

/// Every k worth asking of a row of `num` weights: small ones, both sides
/// of the top-R = 32 window and of the 64-entry rank-count limit, and
/// the whole row.
std::vector<std::uint32_t> asks(std::uint32_t num) {
  std::vector<std::uint32_t> out;
  for (const std::uint32_t k : {1u, 2u, 3u, 4u, 8u, 31u, 32u, 33u, 63u, 64u,
                                65u, num - 1, num}) {
    if (k >= 1 && k <= num) out.push_back(k);
  }
  return out;
}

// The serving workload's rows: one to three planted weights between 0.3
// and 0.9 over a few hundred tiny ones. The tail is either seeded noise
// summing to 0.1 or near-equal weights a few hundred ulps apart, which
// puts the k-th key deep inside a narrow key range and drives the
// threshold search through its most passes.
TEST(SelectTopTest, PlantedWeightsOverNearEqualNoise) {
  rng::Xoshiro256 rng(20261019);
  for (const std::uint32_t num : {250u, 256u, 257u, 300u, 1000u}) {
    for (const bool near_equal : {false, true}) {
      for (int rep = 0; rep < 40; ++rep) {
        std::vector<float> row(num);
        double sum = 0.0;
        for (float& w : row) {
          const float u = rng.next_float();
          w = near_equal ? 1e-4f * (1.0f + u * 1e-4f) : u;
          sum += w;
        }
        if (!near_equal) {
          for (float& w : row) w = static_cast<float>(w * 0.1 / sum);
        }
        const std::uint32_t planted = 1 + static_cast<std::uint32_t>(rng() % 3);
        for (std::uint32_t i = 0; i < planted; ++i) {
          row[rng() % num] = 0.3f + 0.6f * rng.next_float();
        }
        for (const std::uint32_t k : asks(num)) {
          ASSERT_TRUE(selects_like_brute_force(row, k))
              << "K=" << num << " k=" << k << " near_equal=" << near_equal
              << " rep=" << rep;
        }
      }
    }
  }
}

// Keys across the whole 32-bit order: both signs, both zeros, subnormals,
// the smallest normals and +-FLT_MAX, mixed with finite weights drawn
// from random bit patterns.
TEST(SelectTopTest, KeysSpanTheWholeOrder) {
  const float kExtremes[] = {
      std::numeric_limits<float>::max(),
      -std::numeric_limits<float>::max(),
      0.0f,
      -0.0f,
      std::numeric_limits<float>::denorm_min(),
      -std::numeric_limits<float>::denorm_min(),
      std::numeric_limits<float>::min(),
      -std::numeric_limits<float>::min(),
      std::nextafter(std::numeric_limits<float>::min(), 0.0f),
      1.0f,
      -1.0f,
  };
  rng::Xoshiro256 rng(7);
  for (const std::uint32_t num : {2u, 9u, 64u, 100u, 256u}) {
    for (int rep = 0; rep < 30; ++rep) {
      std::vector<float> row(num);
      for (float& w : row) {
        if (rng() % 2 == 0) {
          w = kExtremes[rng() % std::size(kExtremes)];
        } else {
          do {
            w = std::bit_cast<float>(static_cast<std::uint32_t>(rng()));
          } while (!std::isfinite(w));
        }
      }
      for (const std::uint32_t k : asks(num)) {
        ASSERT_TRUE(selects_like_brute_force(row, k))
            << "K=" << num << " k=" << k << " rep=" << rep;
      }
    }
  }
}

// The k-th and (k+1)-th keys are adjacent integers, so no pivot can fall
// between them with room to spare and the search ends on a one-key
// interval: around 0.5, at the smallest subnormal next to +0.0f, and
// around a negative weight, each with and without ties at the cut.
TEST(SelectTopTest, AdjacentKeysAtTheCut) {
  const float kCuts[] = {0.5f, std::numeric_limits<float>::denorm_min(),
                         -0.25f};
  rng::Xoshiro256 rng(11);
  for (const float cut : kCuts) {
    const float next = std::nextafter(cut, -1.0f);  // the next larger key
    ASSERT_EQ(order_key(next), order_key(cut) + 1);
    for (const std::uint32_t num : {8u, 40u, 256u}) {
      for (const std::uint32_t k : asks(num)) {
        if (k == num) continue;
        for (const std::uint32_t ties : {1u, 3u}) {
          // k - 1 weights above the cut, `ties` copies of the cut, the
          // rest one key below it; shuffled, so ids decide the ties.
          std::vector<float> row(num, next);
          for (std::uint32_t c = 0; c + 1 < k; ++c) {
            row[c] = 2.0f + static_cast<float>(c % 5);
          }
          for (std::uint32_t t = 0; t < ties && k - 1 + t < num; ++t) {
            row[k - 1 + t] = cut;
          }
          for (std::uint32_t c = num - 1; c > 0; --c) {
            std::swap(row[c], row[rng() % (c + 1)]);
          }
          ASSERT_TRUE(selects_like_brute_force(row, k))
              << "cut=" << cut << " K=" << num << " k=" << k
              << " ties=" << ties;
        }
      }
    }
  }
}

// Every row of up to 7 weights over a 3-value alphabet, at every k. The
// alphabets cover signed zeros tying, adjacent keys and a negative
// weight.
TEST(SelectTopTest, ExhaustiveOverSmallAlphabets) {
  const float kAlphabets[][3] = {
      {1.0f, 0.0f, -0.0f},
      {0.5f, std::nextafter(0.5f, 0.0f), std::nextafter(0.5f, 1.0f)},
      {0.25f, -0.25f, std::numeric_limits<float>::denorm_min()},
  };
  for (const auto& alphabet : kAlphabets) {
    for (std::uint32_t num = 1; num <= 7; ++num) {
      std::uint32_t rows = 1;
      for (std::uint32_t i = 0; i < num; ++i) rows *= 3;
      std::vector<float> row(num);
      for (std::uint32_t code = 0; code < rows; ++code) {
        for (std::uint32_t c = 0, rest = code; c < num; ++c, rest /= 3) {
          row[c] = alphabet[rest % 3];
        }
        for (std::uint32_t k = 1; k <= num; ++k) {
          ASSERT_TRUE(selects_like_brute_force(row, k))
              << "alphabet " << alphabet[0] << "/" << alphabet[1] << "/"
              << alphabet[2] << " K=" << num << " code=" << code
              << " k=" << k;
        }
      }
    }
  }
}

/// The shapes the seeded search is checked on, in the order the index
/// build test cycles through them.
constexpr Shape kSeedShapes[] = {Shape::kConcentrated, Shape::kContinuous,
                                 Shape::kAllEqual, Shape::kSignedZeros,
                                 Shape::kSubnormal};

/// Seeds worth trying on `row` at depth k: none (~0u), below, on and
/// above the ends of its key range, around its k-th key, a band's width
/// either side of it (which puts a seeded pivot on the k-th key), on a
/// tied key when the row has one, and a few arbitrary keys.
std::vector<std::uint32_t> seeds_for(const std::vector<float>& row,
                                     std::uint32_t k, rng::Xoshiro256& rng) {
  std::vector<std::uint32_t> sorted;
  for (const float w : row) sorted.push_back(order_key(w));
  std::sort(sorted.begin(), sorted.end());
  const std::uint32_t lo = sorted.front();
  const std::uint32_t hi = sorted.back();
  const std::uint32_t kth = sorted[k - 1];
  constexpr std::uint32_t kBand = 1u << 20;
  std::vector<std::uint32_t> out = {~0u, 0u, lo, lo + 1, hi, hi - 1,
                                    hi + 1, kth, kth - 1, kth + 1,
                                    kth + kBand, kth - kBand,
                                    kth + kBand - 1, kth - kBand + 1};
  if (lo > 0) out.push_back(lo - 1);
  const auto tie = std::adjacent_find(sorted.begin(), sorted.end());
  if (tie != sorted.end()) out.push_back(*tie);
  for (int i = 0; i < 3; ++i) {
    out.push_back(lo + static_cast<std::uint32_t>(
                           rng() % (std::uint64_t{hi} - lo + 1)));
  }
  return out;
}

// select_top_seeded against unseeded select_top and the brute-force
// ranking: every seed of seeds_for on rows of each seeded shape, at
// every depth the build asks for around the top-R window and the
// rank-count limit. The returned key must be the row's k-th.
TEST(SelectTopTest, SeededSearchMatchesUnseeded) {
  rng::Xoshiro256 rng(20261020);
  for (const std::uint32_t num : {65u, 256u}) {
    for (const std::uint32_t k : {1u, 31u, 32u, 33u, 64u, 65u, num}) {
      for (const Shape shape : kSeedShapes) {
        for (int rep = 0; rep < 4; ++rep) {
          const std::vector<float> row = shaped_row(shape, num, k, rng);
          const auto expected = testing::brute_force_top(row, num, k);
          std::vector<TopEntry> unseeded(k);
          select_top(row, k, unseeded);
          ASSERT_TRUE(testing::same_entries(unseeded, expected));
          for (const std::uint32_t seed : seeds_for(row, k, rng)) {
            SCOPED_TRACE(::testing::Message()
                         << "K=" << num << " k=" << k << " shape="
                         << static_cast<int>(shape) << " rep=" << rep
                         << " seed=" << seed);
            std::vector<TopEntry> got(k);
            const SelectTopResult result =
                select_top_seeded(row, k, got, seed);
            ASSERT_TRUE(testing::same_entries(got, unseeded));
            ASSERT_EQ(result.kth_key, order_key(expected[k - 1].weight));
          }
        }
      }
    }
  }
}

// The seed only moves the pivots, so it shows in the pass count: seeded
// with its own k-th key, a row whose k-th key lies strictly inside its
// key range and differs from the (k+1)-th ends the search on the first
// pass (the middle pivot, k-th key + 1, has exactly k keys under it). A
// seed on the end of the key range falls back to the unseeded search.
TEST(SelectTopTest, SeedOnTheKthKeyEndsTheSearchInOnePass) {
  rng::Xoshiro256 rng(20261023);
  for (const Shape shape : {Shape::kConcentrated, Shape::kContinuous}) {
    for (const std::uint32_t k : {2u, 31u, 32u, 33u, 64u, 65u}) {
      for (int rep = 0; rep < 20; ++rep) {
        const std::vector<float> row = shaped_row(shape, 256, k, rng);
        std::vector<std::uint32_t> keys;
        for (const float w : row) keys.push_back(order_key(w));
        std::sort(keys.begin(), keys.end());
        // The k-th key on an end of the range, or tied at the cut.
        if (keys[k - 1] == keys.front() || keys[k - 1] == keys[k]) continue;
        SCOPED_TRACE(::testing::Message() << "shape="
                                          << static_cast<int>(shape)
                                          << " k=" << k << " rep=" << rep);
        std::vector<TopEntry> got(k);
        EXPECT_EQ(select_top_seeded(row, k, got, keys[k - 1]).passes, 1u);
        const std::uint32_t outside =
            select_top_seeded(row, k, got, keys.back()).passes;
        EXPECT_EQ(outside, select_top_seeded(row, k, got, ~0u).passes);
      }
    }
  }
}

// On rows shaped like the serving model's (one to three planted weights
// over noise, K = 256, R = 32), chaining each row's k-th key into the
// next row's search cuts the mean pass count by more than two. The
// counts are deterministic for a fixed stream of rows.
TEST(SelectTopTest, ChainedSeedsCutPassesOnServingRows) {
  rng::Xoshiro256 rng(20261024);
  constexpr std::uint32_t kRows = 2000;
  std::uint64_t seeded = 0;
  std::uint64_t unseeded = 0;
  std::uint32_t seed = ~0u;
  std::vector<TopEntry> got(32);
  for (std::uint32_t v = 0; v < kRows; ++v) {
    const std::vector<float> row =
        shaped_row(Shape::kConcentrated, 256, 32, rng);
    const SelectTopResult result = select_top_seeded(row, 32, got, seed);
    seeded += result.passes;
    seed = result.kth_key;
    unseeded += select_top_seeded(row, 32, got, ~0u).passes;
  }
  const double mean_seeded = static_cast<double>(seeded) / kRows;
  const double mean_unseeded = static_cast<double>(unseeded) / kRows;
  EXPECT_LT(mean_seeded, 4.0);
  EXPECT_GT(mean_unseeded, mean_seeded + 2.0);
}

// The index build seeds each row's search with the row before it in its
// thread's chunk. Rows that alternate between the seeded shapes put the
// chained seeds inside, below and above the next row's key range; every
// top list must still be select_top's and the brute-force ranking, at 1
// and 3 build threads (which chunk the rows differently).
TEST(ServingIndexTest, SeededBuildMatchesUnseededSelection) {
  constexpr std::uint32_t kN = 70;
  constexpr std::uint32_t kK = 256;
  rng::Xoshiro256 rng(20261021);
  core::Checkpoint base = make_checkpoint(kN, kK, 8);
  for (std::uint32_t v = 0; v < kN; ++v) {
    // Two rows of a shape, then the next shape: both in-range and
    // out-of-range seeds occur.
    const Shape shape = kSeedShapes[(v / 2) % std::size(kSeedShapes)];
    const std::vector<float> row = shaped_row(shape, kK, 32, rng);
    std::copy(row.begin(), row.end(), base.pi.row(v).begin());
  }
  for (const std::uint32_t r : {1u, 31u, 32u, 33u, 64u, 65u, kK}) {
    for (const unsigned threads : {1u, 3u}) {
      SCOPED_TRACE(::testing::Message() << "r=" << r << " threads="
                                        << threads);
      ServingIndexOptions options;
      options.top_r = r;
      threading::ThreadPool pool(threads);
      const ServingIndex index(base, options, pool);
      std::vector<TopEntry> unseeded(r);
      for (std::uint32_t v = 0; v < kN; ++v) {
        const auto row = index.pi_row(v).first(kK);
        select_top(row, r, unseeded);
        ASSERT_TRUE(testing::same_entries(index.top_list(v), unseeded))
            << "v=" << v;
        ASSERT_TRUE(testing::same_entries(
            unseeded, testing::brute_force_top(row, kK, r)))
            << "v=" << v;
      }
    }
  }
}

// Member weights are rebuilt from their rank keys; the key of +0.0f also
// stands for -0.0f, so those are re-read from the row. With threshold 0
// both zeros, subnormals and ordinary weights are listed, and each
// listed weight must carry the exact bits of its pi entry.
TEST(ServingIndexTest, MemberWeightsKeepTheirBits) {
  constexpr std::uint32_t kN = 60;
  constexpr std::uint32_t kK = 40;
  rng::Xoshiro256 rng(20261022);
  core::Checkpoint checkpoint = make_checkpoint(kN, kK, 6);
  for (std::uint32_t v = 0; v < kN; ++v) {
    const Shape shape = kSeedShapes[v % std::size(kSeedShapes)];
    const std::vector<float> row = shaped_row(shape, kK, 8, rng);
    std::copy(row.begin(), row.end(), checkpoint.pi.row(v).begin());
  }
  ServingIndexOptions options;
  options.top_r = 8;
  options.membership_threshold = 0.0;
  threading::ThreadPool pool(2);
  const ServingIndex index(std::move(checkpoint), options, pool);
  std::uint64_t negative_zeros = 0;
  for (std::uint32_t c = 0; c < kK; ++c) {
    for (const MemberEntry& m : index.members(c)) {
      const float expected = index.pi_row(m.vertex)[c];
      ASSERT_EQ(std::bit_cast<std::uint32_t>(m.weight),
                std::bit_cast<std::uint32_t>(expected))
          << "c=" << c << " v=" << m.vertex;
      negative_zeros += std::bit_cast<std::uint32_t>(m.weight) == 0x80000000u;
    }
  }
  EXPECT_GT(negative_zeros, 0u) << "no -0.0f member: the case is not hit";
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

/// FNV-1a 64, fed one trivially copyable value at a time.
struct Fnv1a64 {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  template <typename T>
  void add(const T& value) {
    unsigned char bytes[sizeof(T)];
    std::memcpy(bytes, &value, sizeof(T));
    for (const unsigned char b : bytes) {
      h ^= b;
      h *= 0x100000001b3ULL;
    }
  }
};

// The index is pinned bit for bit: the top lists, the member offsets and
// the member lists of two fixed-seed models (K = 256 random rows, and
// K = 64 with tie-heavy rows) hash to the same constants at 1 and 3
// build threads, whatever selection algorithm produces them. The
// membership threshold 1/K sits inside the rows' spread, so the member
// lists are neither empty nor the whole top window.
TEST(ServingIndexTest, ListsAreStable) {
  const struct {
    std::uint32_t n, k, r;
    bool ties;
    std::uint64_t top, offsets, members;
  } kPinned[] = {
      {300, 256, 32, false, 0xbbd319921faadd19ULL, 0xad7ed71060bad2d7ULL,
       0x1fbadd22b0e5bb80ULL},
      {300, 64, 16, true, 0x09b59a5e60515d2eULL, 0xcea01be57b43c63dULL,
       0xb31198c6fca1e7e6ULL},
  };
  for (const auto& pinned : kPinned) {
    for (const unsigned threads : {1u, 3u}) {
      SCOPED_TRACE(::testing::Message() << "k=" << pinned.k
                                        << " threads=" << threads);
      core::Checkpoint checkpoint = make_checkpoint(pinned.n, pinned.k, 21);
      if (pinned.ties) testing::shape_ties(checkpoint.pi);
      ServingIndexOptions options;
      options.top_r = pinned.r;
      options.membership_threshold = 1.0 / pinned.k;
      threading::ThreadPool pool(threads);
      const ServingIndex index(std::move(checkpoint), options, pool);
      Fnv1a64 top, offsets, members;
      std::uint64_t offset = 0;
      for (std::uint32_t v = 0; v < pinned.n; ++v) {
        for (const TopEntry& e : index.top_list(v)) {
          top.add(e.community);
          top.add(e.weight);
        }
      }
      for (std::uint32_t c = 0; c < pinned.k; ++c) {
        const auto list = index.members(c);
        offset += list.size();
        offsets.add(offset);
        for (const MemberEntry& e : list) {
          members.add(e.vertex);
          members.add(e.weight);
        }
      }
      EXPECT_EQ(top.h, pinned.top) << std::hex << top.h;
      EXPECT_EQ(offsets.h, pinned.offsets) << std::hex << offsets.h;
      EXPECT_EQ(members.h, pinned.members) << std::hex << members.h;
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
