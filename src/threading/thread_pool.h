// Fixed-size thread pool with two ways to split a range.
//
// parallel_for hands each thread one static contiguous chunk, as the
// paper's OpenMP static scheduling does. Chunk i always goes to thread i,
// so callers that key state on the chunk index can rely on it:
// serve::run_traffic derives per-thread RNG streams from it, the serving
// index build counts per thread, and parallel_reduce stores one partial
// per thread.
//
// parallel_for_dynamic lets threads claim fixed-size ranges from a shared
// cursor instead, so a slow vertex or a stalled vCPU delays only the
// ranges it holds. Which thread runs which range is then up to the
// scheduler; it is only for stages whose output depends on the range
// alone. The sampler stages qualify: a minibatch vertex's phi step
// depends only on (seed, iteration, vertex), and the theta partials are
// summed per fixed block.
//
// Dispatch is spin-then-wait on two atomic counters, with no mutex. A
// launch bumps `generation_`; each worker runs the task and decrements
// `pending_`, which the caller (thread 0) watches. Both sides spin with a
// CPU pause for up to kSpinBound, which covers the short serial gaps
// between the sampler's stages, and then sleep in atomic wait until the
// other side notifies.
//
// The task is a raw function pointer + context pointer rather than a
// std::function: caller lambdas of any capture size run without a heap
// allocation, which is what lets the samplers' one_iteration stay
// allocation-free in steady state (see tests/core/zero_alloc_test.cpp).
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace scd::threading {

/// Hardware destructive-interference distance. Hard-coded 64 rather than
/// std::hardware_destructive_interference_size: the libstdc++ constant is
/// an ABI hazard behind a warning, and 64 is right for every x86 and most
/// ARM parts this targets.
inline constexpr std::size_t kCacheLineBytes = 64;

class ThreadPool {
 public:
  /// How long an idle worker (or the caller awaiting completion) spins
  /// before it sleeps. Sized to outlast the serial gaps inside and
  /// between sampler iterations (tens of microseconds), so back-to-back
  /// stages never pay a futex wake.
  static constexpr std::chrono::microseconds kSpinBound{100};

  /// Spawns `num_threads - 1` workers; the calling thread acts as worker 0
  /// inside parallel_for, so `num_threads == 1` costs nothing.
  explicit ThreadPool(unsigned num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  unsigned num_threads() const { return num_threads_; }

  /// Run fn(thread_index, chunk_begin, chunk_end) on every thread with a
  /// static partition of [begin, end). Blocks until all chunks finish.
  /// Exceptions from workers are rethrown (first one wins). `fn` may be
  /// any callable; it is invoked through a pointer to the caller's own
  /// object, so no allocation or copy happens.
  template <typename Fn>
  void parallel_for(std::uint64_t begin, std::uint64_t end, Fn&& fn) {
    if (begin >= end) return;
    struct Ctx {
      std::remove_reference_t<Fn>* fn;
      std::uint64_t begin;
      std::uint64_t end;
      unsigned threads;
    } ctx{&fn, begin, end, num_threads_};
    launch(
        [](void* raw, unsigned id) {
          auto& c = *static_cast<Ctx*>(raw);
          const auto [lo, hi] = chunk_bounds(c.begin, c.end, id, c.threads);
          if (lo < hi) (*c.fn)(id, lo, hi);
        },
        &ctx);
  }

  /// Run fn(thread_index, lo, hi) over [begin, end) in ranges of `grain`
  /// elements (the last may be shorter) that threads claim from a shared
  /// cursor. Every index is visited exactly once, but a thread may get
  /// any number of ranges, including none. Blocks; exceptions as in
  /// parallel_for.
  template <typename Fn>
  void parallel_for_dynamic(std::uint64_t begin, std::uint64_t end,
                            std::uint64_t grain, Fn&& fn) {
    if (begin >= end) return;
    struct Ctx {
      alignas(kCacheLineBytes) std::atomic<std::uint64_t> next;
      std::remove_reference_t<Fn>* fn;
      std::uint64_t end;
      std::uint64_t grain;
    } ctx{{begin}, &fn, end, std::max<std::uint64_t>(grain, 1)};
    launch(
        [](void* raw, unsigned id) {
          auto& c = *static_cast<Ctx*>(raw);
          for (;;) {
            const std::uint64_t lo = c.next.fetch_add(c.grain);
            if (lo >= c.end) return;
            (*c.fn)(id, lo, std::min(lo + c.grain, c.end));
          }
        },
        &ctx);
  }

  /// Run an arbitrary task per thread: fn(thread_index). Blocks.
  template <typename Fn>
  void run_on_all(Fn&& fn) {
    launch(
        [](void* raw, unsigned id) {
          (*static_cast<std::remove_reference_t<Fn>*>(raw))(id);
        },
        &fn);
  }

  /// Static chunk bounds for thread t of `threads` over [begin, end).
  static std::pair<std::uint64_t, std::uint64_t> chunk_bounds(
      std::uint64_t begin, std::uint64_t end, unsigned t, unsigned threads);

 private:
  /// Task body: (context, thread_index). The context lives on the
  /// launching caller's stack; workers only touch it while the caller
  /// blocks in launch().
  using RawTask = void (*)(void*, unsigned);

  void worker_main(unsigned id);
  void launch(RawTask task, void* ctx);

  unsigned num_threads_;

  // Written by the caller before each launch, read by workers after they
  // observe the new generation.
  alignas(kCacheLineBytes) std::atomic<std::uint32_t> generation_{0};
  RawTask task_ = nullptr;
  void* task_ctx_ = nullptr;
  std::atomic<bool> stopping_{false};
  // Workers still running the current task; the last one out notifies.
  alignas(kCacheLineBytes) std::atomic<std::uint32_t> pending_{0};
  std::atomic<bool> error_claimed_{false};
  std::exception_ptr first_error_;

  // Last, so the workers start after, and are joined before, the state
  // they read.
  std::vector<std::thread> workers_;
};

}  // namespace scd::threading
