// parallel_reduce and small helpers layered on ThreadPool.
#pragma once

#include <vector>

#include "threading/thread_pool.h"

namespace scd::threading {

/// A value padded out to a cache line, so adjacent per-thread slots never
/// false-share.
template <typename T>
struct alignas(kCacheLineBytes) CacheLinePadded {
  T value;
};

/// Two-stage reduction as in the paper's perplexity computation: each
/// thread folds its static chunk locally (`fold`), then partials are
/// combined sequentially (`combine`). Deterministic: combination order is
/// by thread index, not completion order. Per-thread partial slots are
/// padded to cache-line boundaries so the final stores don't false-share.
template <typename T, typename Fold, typename Combine>
T parallel_reduce(ThreadPool& pool, std::uint64_t begin, std::uint64_t end,
                  T identity, Fold fold, Combine combine) {
  std::vector<CacheLinePadded<T>> partials(pool.num_threads(),
                                           CacheLinePadded<T>{identity});
  pool.parallel_for(begin, end,
                    [&](unsigned t, std::uint64_t lo, std::uint64_t hi) {
                      T acc = identity;
                      for (std::uint64_t i = lo; i < hi; ++i) {
                        fold(acc, i);
                      }
                      partials[t].value = acc;
                    });
  T total = identity;
  for (const CacheLinePadded<T>& p : partials) total = combine(total, p.value);
  return total;
}

}  // namespace scd::threading
