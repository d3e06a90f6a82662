#include "threading/thread_pool.h"

#include <algorithm>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

#include "util/error.h"

namespace scd::threading {

namespace {

void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  _mm_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

/// Spin for up to ThreadPool::kSpinBound, then sleep in atomic wait, until
/// `counter` holds a value other than `old`; returns that value. Every
/// counter operation keeps the default seq_cst order, so a waiter that
/// registers just as the value changes is not missed by the notify.
std::uint32_t await_change(const std::atomic<std::uint32_t>& counter,
                           std::uint32_t old) {
  const auto deadline =
      std::chrono::steady_clock::now() + ThreadPool::kSpinBound;
  do {
    const std::uint32_t now = counter.load();
    if (now != old) return now;
    cpu_relax();
  } while (std::chrono::steady_clock::now() < deadline);
  for (;;) {
    counter.wait(old);
    const std::uint32_t now = counter.load();
    if (now != old) return now;
  }
}

}  // namespace

ThreadPool::ThreadPool(unsigned num_threads) : num_threads_(num_threads) {
  SCD_REQUIRE(num_threads >= 1, "thread pool needs at least one thread");
  workers_.reserve(num_threads - 1);
  for (unsigned id = 1; id < num_threads; ++id) {
    workers_.emplace_back([this, id] { worker_main(id); });
  }
}

ThreadPool::~ThreadPool() {
  // A new generation with stopping_ set releases every worker, whether
  // it is spinning (sees the bump) or asleep (gets the notify).
  stopping_.store(true);
  generation_.fetch_add(1);
  generation_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::worker_main(unsigned id) {
  std::uint32_t seen = 0;
  for (;;) {
    seen = await_change(generation_, seen);
    if (stopping_.load()) return;
    try {
      task_(task_ctx_, id);
    } catch (...) {
      if (!error_claimed_.exchange(true)) {
        first_error_ = std::current_exception();
      }
    }
    if (pending_.fetch_sub(1) == 1) {
      pending_.notify_one();
    }
  }
}

void ThreadPool::launch(RawTask task, void* ctx) {
  if (num_threads_ == 1) {
    task(ctx, 0);
    return;
  }
  task_ = task;
  task_ctx_ = ctx;
  first_error_ = nullptr;
  error_claimed_.store(false);
  pending_.store(num_threads_ - 1);
  generation_.fetch_add(1);
  generation_.notify_all();
  // The caller participates as thread 0.
  std::exception_ptr caller_error;
  try {
    task(ctx, 0);
  } catch (...) {
    caller_error = std::current_exception();
  }
  for (std::uint32_t left = pending_.load(); left != 0;) {
    left = await_change(pending_, left);
  }
  if (caller_error) std::rethrow_exception(caller_error);
  if (first_error_) std::rethrow_exception(first_error_);
}

std::pair<std::uint64_t, std::uint64_t> ThreadPool::chunk_bounds(
    std::uint64_t begin, std::uint64_t end, unsigned t, unsigned threads) {
  const std::uint64_t n = end - begin;
  const std::uint64_t base = n / threads;
  const std::uint64_t extra = n % threads;
  // The first `extra` threads get one more element each.
  const std::uint64_t lo =
      begin + t * base + std::min<std::uint64_t>(t, extra);
  const std::uint64_t hi = lo + base + (t < extra ? 1 : 0);
  return {lo, hi};
}

}  // namespace scd::threading
