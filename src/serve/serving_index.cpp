#include "serve/serving_index.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "core/report.h"
#include "util/error.h"
#include "util/isa_clones.h"
#include "util/rank_key.h"

namespace scd::serve {

namespace {

/// Up to this many winners, select_top orders them by counting ranks
/// (k^2 compares, no branches); above it, by sorting packed keys.
constexpr std::uint32_t kRankCountLimit = 64;

/// Histogram resolution of the threshold search.
constexpr int kBucketBits = 8;

/// select_top's working memory, grown once per thread: order keys, the
/// bucket being narrowed (later the winners' ids) and the winners' keys,
/// plus packed keys for the sort above kRankCountLimit.
thread_local std::vector<std::uint32_t> t_select_keys;
thread_local std::vector<std::uint64_t> t_select_packed;

/// select_top's body. It returns false, writing nothing, when a weight is
/// NaN or +-inf, and never throws (see util/isa_clones.h); select_top
/// raises the error. `arena` holds at least 2 * num + k + 2 entries and
/// `packed` at least k when k > kRankCountLimit.
SCD_KERNEL
bool select_top_kernel(const float* row, std::uint32_t num, std::uint32_t k,
                       TopEntry* out, std::uint32_t* arena,
                       std::uint64_t* packed) noexcept {
  std::uint32_t* const keys = arena;               // num
  std::uint32_t* const work = keys + num;          // num + 1
  std::uint32_t* const win_keys = work + num + 1;  // k + 1

  // 1. Order keys, their range, and whether any weight is NaN or +-inf.
  std::uint32_t lo = ~0u;
  std::uint32_t hi = 0;
  std::uint32_t non_finite = 0;
  for (std::uint32_t c = 0; c < num; ++c) {
    const std::uint32_t bits = std::bit_cast<std::uint32_t>(row[c]);
    non_finite |= (bits & 0x7f800000u) == 0x7f800000u ? 1u : 0u;
    const std::uint32_t key = order_key(row[c]);
    keys[c] = key;
    lo = std::min(lo, key);
    hi = std::max(hi, key);
  }
  if (non_finite != 0) return false;

  // 2. Threshold search. A histogram of (key - lo) >> shift over the
  // candidates finds the bucket holding the k-th smallest key; `below`
  // keys rank ahead of it and `need` more come from it. The search
  // narrows to that bucket's keys until the bucket is taken whole or
  // holds a single key value. Each narrowing drops kBucketBits of range,
  // so there are at most four passes.
  const std::uint32_t* candidates = keys;
  std::uint32_t count = num;
  std::uint32_t below = 0;
  std::uint32_t need = 0;
  std::uint32_t threshold = 0;  // winners: key < threshold, then `need` ties
  for (;;) {
    const std::uint32_t range = hi - lo;
    const int shift =
        std::max(0, static_cast<int>(std::bit_width(range)) - kBucketBits);
    std::uint32_t hist[1u << kBucketBits] = {};
    for (std::uint32_t i = 0; i < count; ++i) {
      ++hist[(candidates[i] - lo) >> shift];
    }
    std::uint32_t b = 0;
    while (below + hist[b] < k) below += hist[b++];
    need = k - below;
    if (hist[b] == need) {  // the whole bucket wins
      threshold = lo + static_cast<std::uint32_t>(std::min(
                           (std::uint64_t{b} + 1) << shift,
                           std::uint64_t{range} + 1));
      need = 0;
      break;
    }
    if (shift == 0) {  // one key value: the first `need` of its ties win
      threshold = lo + b;
      break;
    }
    std::uint32_t kept = 0;
    for (std::uint32_t i = 0; i < count; ++i) {
      const std::uint32_t key = candidates[i];
      work[kept] = key;
      kept += ((key - lo) >> shift) == b ? 1u : 0u;
    }
    candidates = work;
    count = kept;
    lo = ~0u;
    hi = 0;
    for (std::uint32_t i = 0; i < count; ++i) {
      lo = std::min(lo, work[i]);
      hi = std::max(hi, work[i]);
    }
  }

  // 3. Collect the winners in id order: every key below the threshold,
  // then the first `need` keys equal to it (ties go to the smaller id).
  std::uint32_t* const ids = work;
  std::uint32_t n = 0;
  for (std::uint32_t c = 0; c < num; ++c) {
    const std::uint32_t key = keys[c];
    ids[n] = c;
    win_keys[n] = key;
    n += key < threshold ? 1u : 0u;
  }
  for (std::uint32_t c = 0; need > 0; ++c) {
    if (keys[c] == threshold) {
      ids[n] = c;
      win_keys[n] = threshold;
      ++n;
      --need;
    }
  }

  // 4. Order the winners. A winner's rank is the number of smaller keys
  // plus the number of equal keys collected before it (a smaller id).
  if (k <= kRankCountLimit) {
    for (std::uint32_t i = 0; i < k; ++i) {
      const std::uint32_t key = win_keys[i];
      std::uint32_t rank = 0;
      for (std::uint32_t j = 0; j < k; ++j) {
        rank += (win_keys[j] < key) | ((win_keys[j] == key) & (j < i));
      }
      out[rank] = TopEntry{ids[i], row[ids[i]]};
    }
    return true;
  }
  for (std::uint32_t i = 0; i < k; ++i) {
    packed[i] = rank_key(win_keys[i], ids[i]);
  }
  std::sort(packed, packed + k);
  for (std::uint32_t r = 0; r < k; ++r) {
    const auto c = static_cast<std::uint32_t>(packed[r]);
    out[r] = TopEntry{c, row[c]};
  }
  return true;
}

}  // namespace

void select_top(std::span<const float> row, std::uint32_t k,
                std::span<TopEntry> out) {
  const auto num = static_cast<std::uint32_t>(row.size());
  SCD_REQUIRE(k >= 1 && k <= num && out.size() >= k,
              "select_top needs 1 <= k <= row size and room for k entries");
  // Sized by the row alone, so one call per row size (and one with
  // k > kRankCountLimit) warms the scratch for every k.
  std::vector<std::uint32_t>& arena = t_select_keys;
  const std::size_t arena_size = std::size_t{num} * 3 + 2;
  if (arena.size() < arena_size) arena.resize(arena_size);
  std::vector<std::uint64_t>& packed = t_select_packed;
  if (k > kRankCountLimit && packed.size() < num) packed.resize(num);
  if (!select_top_kernel(row.data(), num, k, out.data(), arena.data(),
                         packed.data())) {
    const auto bad = static_cast<std::size_t>(
        std::find_if_not(row.begin(), row.end(),
                         [](float w) { return std::isfinite(w); }) -
        row.begin());
    throw DataError("non-finite pi weight " + std::to_string(row[bad]) +
                    " for community " + std::to_string(bad));
  }
}

ServingIndex::ServingIndex(core::Checkpoint checkpoint,
                           const ServingIndexOptions& options,
                           threading::ThreadPool& pool)
    : checkpoint_(std::move(checkpoint)),
      n_(checkpoint_.pi.num_vertices()),
      k_(checkpoint_.pi.num_communities()) {
  SCD_REQUIRE(options.top_r >= 1, "serving index needs top_r >= 1");
  top_r_ = std::min(options.top_r, k_);
  threshold_ = options.membership_threshold >= 0.0
                   ? options.membership_threshold
                   : core::default_membership_threshold(k_);
  terms_.refresh(checkpoint_.global.beta_all(), checkpoint_.hyper.delta);
  build(pool);
}

void ServingIndex::build(threading::ThreadPool& pool) {
  top_.resize(std::size_t{n_} * top_r_);

  // Stage 1 — per-node top-R selection, embarrassingly parallel over
  // vertices. Output slots are disjoint, so the result is identical at
  // any thread count. The key pass also refuses NaN and +-inf weights:
  // no order can rank them.
  pool.parallel_for(0, n_, [&](unsigned, std::uint64_t lo,
                               std::uint64_t hi) {
    for (std::uint64_t v = lo; v < hi; ++v) {
      const auto u = static_cast<std::uint32_t>(v);
      try {
        select_top(checkpoint_.pi.row(u).first(k_), top_r_,
                   {top_.data() + v * top_r_, top_r_});
      } catch (const DataError& e) {
        throw DataError("serving index: vertex " + std::to_string(u) +
                        ": " + e.what());
      }
    }
  });

  // Stage 2 — size the inverted lists: count, per community, the
  // vertices whose top window clears the membership threshold. Threads
  // count into private arrays which are reduced in thread order.
  const unsigned threads = pool.num_threads();
  std::vector<std::vector<std::size_t>> counts(
      threads, std::vector<std::size_t>(k_, 0));
  const float threshold = static_cast<float>(threshold_);
  pool.parallel_for(0, n_, [&](unsigned t, std::uint64_t lo,
                               std::uint64_t hi) {
    std::vector<std::size_t>& mine = counts[t];
    for (std::uint64_t v = lo; v < hi; ++v) {
      const TopEntry* slot = top_.data() + v * top_r_;
      for (std::uint32_t r = 0; r < top_r_ && slot[r].weight >= threshold;
           ++r) {
        ++mine[slot[r].community];
      }
    }
  });
  member_offsets_.assign(std::size_t{k_} + 1, 0);
  for (std::uint32_t c = 0; c < k_; ++c) {
    std::size_t total = 0;
    for (unsigned t = 0; t < threads; ++t) total += counts[t][c];
    member_offsets_[c + 1] = member_offsets_[c] + total;
  }
  members_.resize(member_offsets_[k_]);

  // Stage 3 — scatter in vertex order (sequential: the per-community
  // cursors make parallel scatter order-dependent; this pass is a cheap
  // O(N * R) sweep next to stage 1's O(N * K)).
  std::vector<std::size_t> cursor(member_offsets_.begin(),
                                  member_offsets_.end() - 1);
  for (std::uint32_t v = 0; v < n_; ++v) {
    const TopEntry* slot = top_.data() + std::size_t{v} * top_r_;
    for (std::uint32_t r = 0; r < top_r_ && slot[r].weight >= threshold;
         ++r) {
      members_[cursor[slot[r].community]++] =
          MemberEntry{v, slot[r].weight};
    }
  }

  // Stage 4 — rank each community's members, parallel over communities,
  // on the same packed key as stage 1. Sorting a deterministic input with
  // a strict total order keeps the output thread-count independent.
  pool.parallel_for(0, k_, [&](unsigned, std::uint64_t lo,
                               std::uint64_t hi) {
    for (std::uint64_t c = lo; c < hi; ++c) {
      auto begin = members_.begin() +
                   static_cast<std::ptrdiff_t>(member_offsets_[c]);
      auto end = members_.begin() +
                 static_cast<std::ptrdiff_t>(member_offsets_[c + 1]);
      std::sort(begin, end, [](const MemberEntry& a, const MemberEntry& b) {
        return rank_key(order_key(a.weight), a.vertex) <
               rank_key(order_key(b.weight), b.vertex);
      });
    }
  });
}

std::size_t ServingIndex::index_bytes() const {
  return top_.size() * sizeof(TopEntry) +
         members_.size() * sizeof(MemberEntry) +
         member_offsets_.size() * sizeof(std::size_t) +
         std::size_t{n_} * (k_ + 1) * sizeof(float) +  // dense rows
         std::size_t{k_} * (2 * sizeof(double) + sizeof(float));  // theta+beta
}

std::unique_ptr<const ServingIndex> build_serving_index(
    core::Checkpoint checkpoint, const ServingIndexOptions& options,
    threading::ThreadPool& pool) {
  return std::make_unique<const ServingIndex>(std::move(checkpoint),
                                              options, pool);
}

}  // namespace scd::serve
