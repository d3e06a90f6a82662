#include "serve/serving_index.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <span>
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
/// (k^2 compares, no branches); above it, by sorting.
constexpr std::uint32_t kRankCountLimit = 64;

/// Pivots per pass of the threshold search: each pass cuts the key
/// interval that holds the k-th key into kPivots + 1 parts.
constexpr std::uint32_t kPivots = 3;

/// The key array is padded with ~0u keys to a multiple of this, the width
/// of the collect pass's winner bitmask. No pivot or threshold exceeds
/// the largest finite key, so padding never counts and never wins.
constexpr std::uint32_t kMaskBits = 32;

/// The padded length of a key array for a row of `num` weights.
constexpr std::uint32_t padded_length(std::uint32_t num) {
  return (num + kMaskBits - 1) / kMaskBits * kMaskBits;
}

/// select_top's working memory, grown once per thread: the padded order
/// keys, and one packed (key, id) word per winner.
thread_local std::vector<std::uint32_t> t_select_keys;
thread_local std::vector<std::uint64_t> t_select_packed;

/// select_top's body. It returns false, writing nothing, when a weight is
/// NaN or +-inf, and never throws (see util/isa_clones.h); select_top
/// raises the error. `keys` holds padded_length(num) entries and `packed`
/// at least k.
SCD_KERNEL
bool select_top_kernel(const float* row, std::uint32_t num, std::uint32_t k,
                       TopEntry* out, std::uint32_t* keys,
                       std::uint64_t* packed) noexcept {
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
  const std::uint32_t padded = padded_length(num);
  for (std::uint32_t c = num; c < padded; ++c) keys[c] = ~0u;

  // 2. Threshold search for the k-th smallest key. [lo, hi] always holds
  // it and `below` keys lie under lo. Each pass counts, in one
  // branch-free sweep, the keys under kPivots pivots spread over the
  // interval. A pivot with exactly k keys under it ends the search: those
  // keys win. Otherwise the interval shrinks to the part between the two
  // pivots around the k-th key, until it holds one key value: the keys
  // under it win, then the first `need` keys equal to it.
  std::uint32_t below = 0;
  std::uint32_t threshold = 0;  // winners: key < threshold, then `need` ties
  std::uint32_t need = 0;
  for (;;) {
    if (lo == hi) {
      threshold = lo;
      need = k - below;
      break;
    }
    const std::uint64_t width = std::uint64_t{hi} - lo + 1;
    std::uint32_t pivot[kPivots];
    std::uint32_t under[kPivots] = {};
    for (std::uint32_t p = 0; p < kPivots; ++p) {
      pivot[p] = lo + static_cast<std::uint32_t>(width * (p + 1) /
                                                 (kPivots + 1));
    }
    for (std::uint32_t c = 0; c < padded; ++c) {
      for (std::uint32_t p = 0; p < kPivots; ++p) {
        under[p] += keys[c] < pivot[p] ? 1u : 0u;
      }
    }
    std::uint32_t p = 0;
    while (p < kPivots && under[p] < k) ++p;
    if (p < kPivots && under[p] == k) {
      threshold = pivot[p];
      break;
    }
    if (p > 0) {
      lo = pivot[p - 1];
      below = under[p - 1];
    }
    if (p < kPivots) hi = pivot[p] - 1;
  }

  // 3. Collect the winners in id order as packed (key, id) words: every
  // key below the threshold, found a bitmask of kMaskBits keys at a time,
  // then the first `need` keys equal to it (ties go to the smaller id).
  std::uint32_t n = 0;
  for (std::uint32_t base = 0; base < padded; base += kMaskBits) {
    std::uint32_t mask = 0;
    for (std::uint32_t i = 0; i < kMaskBits; ++i) {
      mask |= (keys[base + i] < threshold ? 1u : 0u) << i;
    }
    for (; mask != 0; mask &= mask - 1) {
      const std::uint32_t c =
          base + static_cast<std::uint32_t>(std::countr_zero(mask));
      packed[n++] = rank_key(keys[c], c);
    }
  }
  for (std::uint32_t c = 0; need > 0; ++c) {
    if (keys[c] == threshold) {
      packed[n++] = rank_key(threshold, c);
      --need;
    }
  }

  // 4. Order the winners. Packed words are unique, so a winner's rank is
  // the number of smaller words. The count is 64-bit, as wide as the
  // words, so the compare lanes need no narrowing.
  if (k <= kRankCountLimit) {
    for (std::uint32_t i = 0; i < k; ++i) {
      const std::uint64_t word = packed[i];
      std::uint64_t rank = 0;
      for (std::uint32_t j = 0; j < k; ++j) {
        rank += packed[j] < word ? 1u : 0u;
      }
      const auto c = static_cast<std::uint32_t>(word);
      out[rank] = TopEntry{c, row[c]};
    }
    return true;
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
  // Sized by the row alone, so one call per row size warms the scratch
  // for every k.
  std::vector<std::uint32_t>& keys = t_select_keys;
  if (keys.size() < padded_length(num)) keys.resize(padded_length(num));
  std::vector<std::uint64_t>& packed = t_select_packed;
  if (packed.size() < num) packed.resize(num);
  if (!select_top_kernel(row.data(), num, k, out.data(), keys.data(),
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
  // no order can rank them. Once a vertex's list is written, the same
  // body counts, per community, the entries that clear the membership
  // threshold: that sizes the inverted lists. Threads count into private
  // arrays which are reduced in thread order.
  const unsigned threads = pool.num_threads();
  std::vector<std::vector<std::size_t>> counts(
      threads, std::vector<std::size_t>(k_, 0));
  const float threshold = static_cast<float>(threshold_);
  pool.parallel_for(0, n_, [&](unsigned t, std::uint64_t lo,
                               std::uint64_t hi) {
    std::vector<std::size_t>& mine = counts[t];
    for (std::uint64_t v = lo; v < hi; ++v) {
      const auto u = static_cast<std::uint32_t>(v);
      TopEntry* slot = top_.data() + v * top_r_;
      try {
        select_top(checkpoint_.pi.row(u).first(k_), top_r_, {slot, top_r_});
      } catch (const DataError& e) {
        throw DataError("serving index: vertex " + std::to_string(u) +
                        ": " + e.what());
      }
      for (std::uint32_t r = 0; r < top_r_ && slot[r].weight >= threshold;
           ++r) {
        ++mine[slot[r].community];
      }
    }
  });

  // Stage 2 — the inverted lists' offsets, from the counts.
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
  // on the same packed key as stage 1: sort the unique rank_key words,
  // then rebuild the entries, re-reading each weight from its pi row
  // (order_key folds -0.0f onto +0.0f, so the key cannot give it back).
  // Sorting a deterministic input with a strict total order keeps the
  // output thread-count independent.
  pool.parallel_for(0, k_, [&](unsigned, std::uint64_t lo,
                               std::uint64_t hi) {
    std::vector<std::uint64_t> words;
    for (std::uint64_t c = lo; c < hi; ++c) {
      const auto community = static_cast<std::uint32_t>(c);
      const std::span<MemberEntry> list(
          members_.data() + member_offsets_[c],
          member_offsets_[c + 1] - member_offsets_[c]);
      words.clear();
      for (const MemberEntry& m : list) {
        words.push_back(rank_key(order_key(m.weight), m.vertex));
      }
      std::sort(words.begin(), words.end());
      for (std::size_t i = 0; i < list.size(); ++i) {
        const auto v = static_cast<std::uint32_t>(words[i]);
        list[i] = MemberEntry{v, checkpoint_.pi.pi(v, community)};
      }
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
