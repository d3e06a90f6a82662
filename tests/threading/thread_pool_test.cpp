#include "threading/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <thread>
#include <vector>

#include "threading/parallel.h"
#include "util/error.h"

namespace scd::threading {
namespace {

TEST(ChunkBoundsTest, PartitionCoversRangeExactly) {
  for (unsigned threads : {1u, 2u, 3u, 7u, 16u}) {
    for (std::uint64_t n : {0ull, 1ull, 5ull, 16ull, 100ull, 101ull}) {
      std::uint64_t covered = 0;
      std::uint64_t prev_end = 0;
      for (unsigned t = 0; t < threads; ++t) {
        const auto [lo, hi] = ThreadPool::chunk_bounds(0, n, t, threads);
        EXPECT_EQ(lo, prev_end) << "gap at thread " << t;
        EXPECT_LE(lo, hi);
        covered += hi - lo;
        prev_end = hi;
      }
      EXPECT_EQ(covered, n);
      EXPECT_EQ(prev_end, n);
    }
  }
}

TEST(ChunkBoundsTest, BalancedWithinOne) {
  const auto [lo0, hi0] = ThreadPool::chunk_bounds(0, 10, 0, 3);
  const auto [lo2, hi2] = ThreadPool::chunk_bounds(0, 10, 2, 3);
  EXPECT_LE((hi0 - lo0) - (hi2 - lo2), 1u);
}

class ThreadPoolParamTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(ThreadPoolParamTest, ParallelForVisitsEveryIndexOnce) {
  ThreadPool pool(GetParam());
  std::vector<std::atomic<int>> visits(1000);
  pool.parallel_for(0, 1000,
                    [&](unsigned, std::uint64_t lo, std::uint64_t hi) {
                      for (std::uint64_t i = lo; i < hi; ++i) {
                        visits[i].fetch_add(1);
                      }
                    });
  for (const auto& v : visits) EXPECT_EQ(v.load(), 1);
}

TEST_P(ThreadPoolParamTest, EmptyRangeIsNoop) {
  ThreadPool pool(GetParam());
  bool called = false;
  pool.parallel_for(5, 5, [&](unsigned, std::uint64_t, std::uint64_t) {
    called = true;
  });
  EXPECT_FALSE(called);
}

TEST_P(ThreadPoolParamTest, ExceptionsPropagate) {
  ThreadPool pool(GetParam());
  // Thrown by the caller (thread 0), by the last worker, and by every
  // thread at once; each time the pool must stay usable afterwards.
  const unsigned last = pool.num_threads() - 1;
  for (const unsigned thrower : {0u, last, ~0u}) {
    SCOPED_TRACE(thrower);
    EXPECT_THROW(pool.run_on_all([&](unsigned id) {
                   if (thrower == ~0u || id == thrower) {
                     throw scd::Error("thread failed");
                   }
                 }),
                 scd::Error);
    std::atomic<int> count{0};
    pool.parallel_for(0, 10,
                      [&](unsigned, std::uint64_t lo, std::uint64_t hi) {
                        count += static_cast<int>(hi - lo);
                      });
    EXPECT_EQ(count.load(), 10);
  }
  EXPECT_THROW(
      pool.parallel_for_dynamic(0, 100, 3,
                                [&](unsigned, std::uint64_t lo,
                                    std::uint64_t) {
                                  if (lo == 99) throw scd::Error("range");
                                }),
      scd::Error);
}

TEST_P(ThreadPoolParamTest, DynamicForVisitsEveryIndexOnce) {
  ThreadPool pool(GetParam());
  for (const std::uint64_t grain : {1u, 3u, 64u}) {
    SCOPED_TRACE(grain);
    std::vector<std::atomic<int>> visits(1000);
    pool.parallel_for_dynamic(
        5, 1000, grain,
        [&](unsigned thread, std::uint64_t lo, std::uint64_t hi) {
          EXPECT_LT(thread, pool.num_threads());
          EXPECT_LT(lo, hi);
          EXPECT_LE(hi - lo, grain);
          for (std::uint64_t i = lo; i < hi; ++i) visits[i].fetch_add(1);
        });
    for (std::size_t i = 0; i < visits.size(); ++i) {
      EXPECT_EQ(visits[i].load(), i < 5 ? 0 : 1) << "index " << i;
    }
  }
}

TEST_P(ThreadPoolParamTest, RunOnAllReachesEveryThread) {
  ThreadPool pool(GetParam());
  std::vector<std::atomic<int>> hits(pool.num_threads());
  pool.run_on_all([&](unsigned id) { hits[id].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST_P(ThreadPoolParamTest, ParallelReduceMatchesSerialSum) {
  ThreadPool pool(GetParam());
  std::vector<double> values(5000);
  std::iota(values.begin(), values.end(), 1.0);
  const double expected =
      std::accumulate(values.begin(), values.end(), 0.0);
  const double total = parallel_reduce<double>(
      pool, 0, values.size(), 0.0,
      [&](double& acc, std::uint64_t i) { acc += values[i]; },
      [](double a, double b) { return a + b; });
  EXPECT_DOUBLE_EQ(total, expected);
}

INSTANTIATE_TEST_SUITE_P(Threads, ThreadPoolParamTest,
                         ::testing::Values(1u, 2u, 4u, 8u));

TEST(ThreadPoolTest, ZeroThreadsRejected) {
  EXPECT_THROW(ThreadPool(0), scd::UsageError);
}

TEST(ThreadPoolTest, ManySmallLaunchesDoNotDeadlock) {
  // Back-to-back launches find the workers spinning; launches spaced
  // wider than the spin bound find them asleep in the atomic wait.
  const auto asleep = ThreadPool::kSpinBound * 3;
  for (const auto gap : {decltype(asleep){0}, asleep}) {
    SCOPED_TRACE(gap.count());
    ThreadPool pool(4);
    std::atomic<int> total{0};
    const int launches = gap.count() == 0 ? 500 : 20;
    for (int i = 0; i < launches; ++i) {
      if (gap.count() > 0) std::this_thread::sleep_for(gap);
      pool.parallel_for(0, 4,
                        [&](unsigned, std::uint64_t lo, std::uint64_t hi) {
                          total += static_cast<int>(hi - lo);
                        });
    }
    EXPECT_EQ(total.load(), 4 * launches);
  }
  // Destroyed right after construction (workers may not have started),
  // right after a launch (workers spinning), and after the spin bound
  // has run out (workers asleep).
  { ThreadPool pool(4); }
  for (const bool sleep_first : {false, true}) {
    std::atomic<int> hits{0};
    {
      ThreadPool pool(4);
      pool.run_on_all([&](unsigned) { hits.fetch_add(1); });
      if (sleep_first) std::this_thread::sleep_for(asleep);
    }
    EXPECT_EQ(hits.load(), 4);
  }
}

}  // namespace
}  // namespace scd::threading
