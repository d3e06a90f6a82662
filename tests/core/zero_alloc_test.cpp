// Steady-state allocation and determinism regression tests.
//
// This binary overrides the global allocation operators with counting
// wrappers (which is why it is a separate test executable): after a
// warm-up run, ParallelSampler::one_iteration must perform ZERO heap
// allocations, at one thread and at several — every buffer it touches
// lives in the IterationWorkspace sized at construction (see
// core/iteration_workspace.h), and ThreadPool dispatch is a raw function
// pointer, not a std::function.
//
// It also pins down the thread-count invariance of ParallelSampler: a
// vertex's phi step depends only on (seed, iteration, vertex), whichever
// thread claims it, and the theta reduction runs over kThetaBlocks fixed
// blocks folded in block order, so trajectories are bit-identical for any
// number of threads.
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <span>
#include <thread>
#include <utility>
#include <vector>

#ifdef SCD_ZERO_ALLOC_BACKTRACE
#include <execinfo.h>

#include <cstdio>
#endif

#include <gtest/gtest.h>

#include "core/distributed_sampler.h"
#include "core/parallel_sampler.h"
#include "serve/query_engine.h"
#include "sim/cluster.h"
#include "tests/core/test_fixtures.h"
#include "trace/recorder.h"

namespace {

std::atomic<std::uint64_t> g_alloc_count{0};
std::atomic<bool> g_tracking{false};

void* counted_alloc(std::size_t size) {
  if (g_tracking.load(std::memory_order_relaxed)) {
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
#ifdef SCD_ZERO_ALLOC_BACKTRACE
    g_tracking.store(false, std::memory_order_relaxed);
    void* frames[32];
    const int n = backtrace(frames, 32);
    backtrace_symbols_fd(frames, n, 2);
    std::fprintf(stderr, "---- alloc of %zu bytes ----\n", size);
    g_tracking.store(true, std::memory_order_relaxed);
#endif
  }
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

class AllocationGuard {
 public:
  AllocationGuard() {
    g_alloc_count.store(0, std::memory_order_relaxed);
    g_tracking.store(true, std::memory_order_relaxed);
  }
  ~AllocationGuard() { g_tracking.store(false, std::memory_order_relaxed); }
  std::uint64_t count() const {
    return g_alloc_count.load(std::memory_order_relaxed);
  }
};

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace scd::core {
namespace {

TEST(ZeroAllocTest, ParallelIterationIsAllocationFreeAfterWarmup) {
  for (const unsigned threads : {4u, 1u}) {
    SCOPED_TRACE(threads);
    testing::Fixture f = testing::small_planted_fixture();
    f.options.eval_interval = 0;  // isolate one_iteration
    ParallelSampler sampler(f.generated.graph, /*heldout=*/nullptr, f.hyper,
                            f.options, threads);
    sampler.run(20);  // warm-up

    AllocationGuard guard;
    sampler.run(30);
    EXPECT_EQ(guard.count(), 0u)
        << "steady-state one_iteration must not touch the heap";
  }
}

TEST(ZeroAllocTest, PerplexityEvaluationIsAllocationFreeAfterWarmup) {
  testing::Fixture f = testing::small_planted_fixture();
  f.options.eval_interval = 0;
  ParallelSampler sampler(f.generated.graph, f.split.get(), f.hyper,
                          f.options, /*num_threads=*/4);
  sampler.run(5);
  // Warm the history vector past libstdc++'s 1 -> 2 -> 4 growth steps so
  // the tracked append below lands in existing capacity.
  sampler.evaluate_perplexity();
  sampler.evaluate_perplexity();
  sampler.evaluate_perplexity();

  AllocationGuard guard;
  sampler.evaluate_perplexity();
  EXPECT_EQ(guard.count(), 0u)
      << "per-sample probability writes must reuse the evaluator state";
}

TEST(ZeroAllocTest, DistributedIterationIsAllocationFreeAfterWarmup) {
  // The distributed path (master deploy -> worker stages -> collectives)
  // must also be heap-quiet once warm: DistributedWorkspace owns every
  // per-iteration buffer and the transport recycles payload buffers and
  // collective slots from pools. run() is one-shot, so the tracking
  // window is carved out of a single 60-iteration run via the master
  // hook: iterations [0, 20) warm the pools, [20, 55) are tracked, and
  // the tail is left untracked so worker shutdown is not counted.
  testing::Fixture f = testing::small_planted_fixture();
  f.options.eval_interval = 0;  // isolate the iteration path

  sim::SimCluster::Config config;
  config.num_ranks = 3;  // master + 2 workers
  sim::SimCluster cluster(config);
  DistributedOptions options;
  options.base = f.options;
  options.pipeline = true;
  options.chunk_vertices = 8;
  std::uint64_t hook_calls = 0;
  options.master_iteration_hook = [&hook_calls](std::uint64_t t) {
    ++hook_calls;
    if (t == 20) {
      g_alloc_count.store(0, std::memory_order_relaxed);
      g_tracking.store(true, std::memory_order_relaxed);
    } else if (t == 55) {
      g_tracking.store(false, std::memory_order_relaxed);
    }
  };
  DistributedSampler dist(cluster, f.split->training(), f.split.get(),
                          f.hyper, options);
  dist.run(60);
  g_tracking.store(false, std::memory_order_relaxed);
  EXPECT_EQ(hook_calls, 60u);  // the tracking window really ran
  EXPECT_EQ(g_alloc_count.load(std::memory_order_relaxed), 0u)
      << "steady-state distributed iterations must not touch the heap";
}

TEST(ZeroAllocTest, TracedDistributedIterationIsAllocationFreeAfterWarmup) {
  // Same carve-out as above, but with a TraceRecorder installed: after
  // run() pre-sizes the lanes via reserve(), steady-state span/metric
  // recording must not touch the heap either.
  testing::Fixture f = testing::small_planted_fixture();
  f.options.eval_interval = 0;

  sim::SimCluster::Config config;
  config.num_ranks = 3;
  sim::SimCluster cluster(config);
  trace::TraceRecorder recorder(config.num_ranks);
  DistributedOptions options;
  options.base = f.options;
  options.pipeline = true;
  options.chunk_vertices = 8;
  options.trace = &recorder;
  std::uint64_t hook_calls = 0;
  options.master_iteration_hook = [&hook_calls](std::uint64_t t) {
    ++hook_calls;
    if (t == 20) {
      g_alloc_count.store(0, std::memory_order_relaxed);
      g_tracking.store(true, std::memory_order_relaxed);
    } else if (t == 55) {
      g_tracking.store(false, std::memory_order_relaxed);
    }
  };
  DistributedSampler dist(cluster, f.split->training(), f.split.get(),
                          f.hyper, options);
  dist.run(60);
  g_tracking.store(false, std::memory_order_relaxed);
  EXPECT_EQ(hook_calls, 60u);
  EXPECT_EQ(g_alloc_count.load(std::memory_order_relaxed), 0u)
      << "steady-state tracing must record into reserved lanes";
  EXPECT_GT(recorder.total_spans(), 0u);
}

TEST(ZeroAllocTest, ParallelTrajectoryBitIdenticalAcrossThreadCounts) {
  // Both neighbor modes: link-aware sets cost degree + |V_n| per vertex,
  // so dynamically claimed vertices land on different threads from run
  // to run. Evaluation is on, so the perplexity histories must agree too.
  for (const NeighborMode mode :
       {NeighborMode::kUniform, NeighborMode::kLinkAware}) {
    SCOPED_TRACE(mode == NeighborMode::kUniform ? "uniform" : "link-aware");
    testing::Fixture f = testing::small_planted_fixture();
    f.options.neighbor_mode = mode;
    f.options.eval_interval = 10;

    std::vector<std::unique_ptr<ParallelSampler>> samplers;
    for (unsigned threads : {1u, 2u, 3u, 5u}) {
      samplers.push_back(std::make_unique<ParallelSampler>(
          f.generated.graph, f.split.get(), f.hyper, f.options, threads));
      samplers.back()->run(40);
    }

    const ParallelSampler& ref = *samplers[0];
    ASSERT_EQ(ref.history().size(), 4u);
    for (std::size_t s = 1; s < samplers.size(); ++s) {
      const ParallelSampler& other = *samplers[s];
      for (std::uint32_t v = 0; v < ref.pi().num_vertices(); ++v) {
        const auto a = ref.pi().row(v);
        const auto b = other.pi().row(v);
        for (std::size_t i = 0; i < a.size(); ++i) {
          ASSERT_EQ(a[i], b[i]) << "pi row " << v << " slot " << i
                                << " differs for sampler " << s;
        }
      }
      const auto ta = ref.global().theta_flat();
      const auto tb = other.global().theta_flat();
      for (std::size_t i = 0; i < ta.size(); ++i) {
        ASSERT_EQ(ta[i], tb[i]) << "theta slot " << i;
      }
      ASSERT_EQ(ref.history().size(), other.history().size());
      for (std::size_t h = 0; h < ref.history().size(); ++h) {
        EXPECT_EQ(ref.history()[h].iteration, other.history()[h].iteration);
        EXPECT_EQ(ref.history()[h].perplexity,
                  other.history()[h].perplexity)
            << "history point " << h << " differs for sampler " << s;
      }
    }
  }
}

TEST(ZeroAllocTest, ServingQueriesAreAllocationFreeAfterWarmup) {
  // K = 96 puts asks on both sides of R = 8 and of select_top's 64-entry
  // rank-count limit, so the span overloads cover the index path and
  // both orderings of the exact fallback.
  constexpr std::uint32_t kN = 40;
  constexpr std::uint32_t kK = 96;
  Checkpoint model;
  model.hyper.num_communities = kK;
  model.hyper.delta = 1e-3;
  model.pi = PiMatrix(kN, kK);
  model.pi.init_random(5);
  model.global = GlobalState(kK);
  model.global.init_random(5, model.hyper);
  threading::ThreadPool pool(1);
  serve::ServingIndexOptions options;
  options.top_r = 8;
  options.membership_threshold = 0.0;  // every top-R entry is listed
  serve::ServingSnapshots snapshots(
      serve::build_serving_index(std::move(model), options, pool));
  serve::QueryEngine engine(snapshots);
  std::vector<serve::TopEntry> top(kK);
  std::vector<serve::MemberEntry> members(kN);
  const std::span<serve::TopEntry> all_top(top);
  // Warm-up: one call of each kind, the top ask at full depth.
  engine.top_communities(0, all_top);
  double sink = engine.link_probability(0, 1);
  engine.community_members(0, members);

  AllocationGuard guard;
  std::uint64_t written = 0;
  for (std::uint32_t u = 0; u < kN; ++u) {
    for (const std::uint32_t k : {1u, 8u, 9u, 32u, 64u, 65u, kK}) {
      written += engine.top_communities(u, all_top.first(k));
    }
    sink += engine.link_probability(u, (u + 7) % kN);
    written += engine.community_members(u % kK, members);
  }
  EXPECT_EQ(guard.count(), 0u)
      << "span queries, the k > R fallback included, must reuse scratch";
  EXPECT_GT(written, 0u);
  EXPECT_GT(sink, 0.0);
}

TEST(ZeroAllocTest, FreshQueryThreadIsAllocationFreeFromItsFirstAcquire) {
  // A query thread takes its snapshot reader stripe at its first
  // acquire(). Counting from before that acquire, on a thread that has
  // never queried, pins that the stripe assignment allocates nothing,
  // and neither do index-path queries (k <= R), link and members.
  constexpr std::uint32_t kN = 40;
  constexpr std::uint32_t kK = 32;
  constexpr std::uint32_t kR = 8;
  Checkpoint model;
  model.hyper.num_communities = kK;
  model.hyper.delta = 1e-3;
  model.pi = PiMatrix(kN, kK);
  model.pi.init_random(7);
  model.global = GlobalState(kK);
  model.global.init_random(7, model.hyper);
  threading::ThreadPool pool(1);
  serve::ServingIndexOptions options;
  options.top_r = kR;
  options.membership_threshold = 0.0;
  serve::ServingSnapshots snapshots(
      serve::build_serving_index(std::move(model), options, pool));
  serve::QueryEngine engine(snapshots);
  std::vector<serve::TopEntry> top(kR);
  std::vector<serve::MemberEntry> members(kN);
  const std::span<serve::TopEntry> top_span(top);

  std::uint64_t allocations = ~std::uint64_t{0};
  std::uint64_t written = 0;
  double sink = 0.0;
  // The thread's own start-up allocations happen before its body runs;
  // the guard spans only the queries. The spawning thread sits in join().
  std::thread fresh([&] {
    AllocationGuard guard;
    for (std::uint32_t u = 0; u < kN; ++u) {
      for (const std::uint32_t k : {1u, 4u, kR}) {
        written += engine.top_communities(u, top_span.first(k));
      }
      sink += engine.link_probability(u, (u + 3) % kN);
      written += engine.community_members(u % kK, members);
    }
    allocations = guard.count();
  });
  fresh.join();
  EXPECT_EQ(allocations, 0u)
      << "a thread's first acquire and its index-path queries must not "
         "allocate";
  EXPECT_GT(written, 0u);
  EXPECT_GT(sink, 0.0);
}

}  // namespace
}  // namespace scd::core
