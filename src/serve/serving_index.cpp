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
/// of the collect pass's winner bitmask. Keys are counted and collected
/// by `key < pivot` and `key < threshold`, and ~0u is under no value, so
/// padding never counts and never wins.
constexpr std::uint32_t kMaskBits = 32;

/// The padded length of a key array for a row of `num` weights.
constexpr std::uint32_t padded_length(std::uint32_t num) {
  return (num + kMaskBits - 1) / kMaskBits * kMaskBits;
}

/// select_top's working memory, grown once per thread: the padded order
/// keys and their winner bitmasks; per winner, its signed key and its id;
/// and, for the sort path, one packed (key, id) word per winner.
struct SelectScratch {
  std::vector<std::uint32_t> keys;
  std::vector<std::uint32_t> masks;  // one per kMaskBits keys
  std::vector<std::int32_t> winner_keys;
  std::vector<std::uint32_t> winner_ids;
  std::vector<std::uint64_t> words;
};
thread_local SelectScratch t_select;

/// An order key with its top bit flipped: signed compares of these order
/// them as unsigned compares order the keys, and AVX2 compares signed
/// 32-bit lanes eight at a time.
inline std::int32_t signed_key(std::uint32_t key) {
  return static_cast<std::int32_t>(key ^ 0x80000000u);
}
inline std::uint32_t unsigned_key(std::int32_t key) {
  return static_cast<std::uint32_t>(key) ^ 0x80000000u;
}

/// The seed select_top passes: no row's key range holds ~0u strictly
/// inside it, so the search starts from evenly spread pivots.
constexpr std::uint32_t kNoSeed = ~0u;

/// Half-width, in key units, of the first search pass's pivot band
/// around a seed. Neighbouring rows of a fitted model put their k-th
/// keys close together. On rows shaped like the serving benchmark's
/// (N = 20k, K = 256, R = 32: one to three planted weights over seeded
/// noise) the average pass count is about 5.9 unseeded, and 4.7, 3.9,
/// 3.5, 3.9 and 4.3 seeded with a band of 2^18 to 2^22 (1/8 of a binade
/// at 2^20).
constexpr std::uint32_t kSeedBand = 1u << 20;

/// select_top's body. It returns false, writing nothing, when a weight is
/// NaN or +-inf, and never throws (see util/isa_clones.h); its callers
/// raise the error. `scratch` is sized for padded_length(num) keys.
/// `result.kth_key` comes in as the key to centre the first search pass
/// on (kNoSeed for none); the kernel fills in both fields.
SCD_KERNEL
bool select_top_kernel(const float* row, std::uint32_t num, std::uint32_t k,
                       TopEntry* out, SelectScratch& scratch,
                       SelectTopResult& result) noexcept {
  const std::uint32_t seed = result.kth_key;
  std::uint32_t* keys = scratch.keys.data();
  // 1. Order keys, their range, whether any weight is NaN or +-inf, and
  // the counts of keys under the seeded pivots: seed + 1 and kSeedBand
  // either side of it, saturating. They are the first search pass when
  // the seed lies strictly inside the key range, and unused otherwise.
  static_assert(kPivots == 3, "the seeded pass places three pivots");
  const std::uint32_t centre = seed + 1;
  const std::uint32_t seed_pivot[kPivots] = {
      centre > kSeedBand ? centre - kSeedBand : 0u, centre,
      centre < ~0u - kSeedBand ? centre + kSeedBand : ~0u};
  std::uint32_t seed_under[kPivots] = {};
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
    for (std::uint32_t p = 0; p < kPivots; ++p) {
      seed_under[p] += key < seed_pivot[p] ? 1u : 0u;
    }
  }
  if (non_finite != 0) return false;
  const std::uint32_t padded = padded_length(num);
  for (std::uint32_t c = num; c < padded; ++c) keys[c] = ~0u;

  // 2. Threshold search for the k-th smallest key. [lo, hi] always holds
  // it and `below` keys lie under lo. Each pass counts, in one
  // branch-free sweep, the keys under kPivots ascending pivots. A pivot
  // with exactly k keys under it ends the search: those keys win.
  // Otherwise the interval shrinks to the part between the two pivots
  // around the k-th key, until it holds one key value: the keys under it
  // win, then the first `need` keys equal to it. The first pass is the
  // seeded one when the seed lies strictly inside [lo, hi]; every other
  // pass spreads its pivots evenly over the interval. A seeded pivot may
  // lie outside [lo, hi], which only widens the next interval. The
  // winners are the same for any pivots, and no padding key (~0u) lies
  // under a pivot or the threshold.
  bool seeded = lo < seed && seed < hi;
  std::uint32_t passes = 0;
  std::uint32_t below = 0;
  std::uint32_t threshold = 0;  // winners: key < threshold, then `need` ties
  std::uint32_t need = 0;
  for (;;) {
    if (lo == hi) {
      threshold = lo;
      need = k - below;
      break;
    }
    std::uint32_t pivot[kPivots] = {};
    std::uint32_t under[kPivots] = {};
    ++passes;
    if (seeded) {
      std::copy_n(seed_pivot, kPivots, pivot);
      std::copy_n(seed_under, kPivots, under);
      seeded = false;
    } else {
      const std::uint64_t width = std::uint64_t{hi} - lo + 1;
      for (std::uint32_t p = 0; p < kPivots; ++p) {
        pivot[p] = lo + static_cast<std::uint32_t>(width * (p + 1) /
                                                   (kPivots + 1));
      }
      for (std::uint32_t c = 0; c < padded; ++c) {
        for (std::uint32_t p = 0; p < kPivots; ++p) {
          under[p] += keys[c] < pivot[p] ? 1u : 0u;
        }
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

  // 3. Collect the winners in id order, as signed keys and ids. The
  // k - need keys below the threshold are marked in one bitmask per
  // kMaskBits keys, then read off in a loop of known length (one
  // unpredictable loop exit per row, not one per bitmask); the first
  // `need` keys equal to the threshold follow (ties go to the smaller
  // id).
  std::uint32_t* masks = scratch.masks.data();
  for (std::uint32_t base = 0; base < padded; base += kMaskBits) {
    std::uint32_t mask = 0;
    for (std::uint32_t i = 0; i < kMaskBits; ++i) {
      mask |= (keys[base + i] < threshold ? 1u : 0u) << i;
    }
    masks[base / kMaskBits] = mask;
  }
  std::int32_t* winner_keys = scratch.winner_keys.data();
  std::uint32_t* winner_ids = scratch.winner_ids.data();
  std::uint32_t n = 0;
  for (std::uint32_t word = 0, mask = masks[0]; n < k - need; ++n) {
    while (mask == 0) mask = masks[++word];
    const std::uint32_t c =
        word * kMaskBits + static_cast<std::uint32_t>(std::countr_zero(mask));
    mask &= mask - 1;
    winner_keys[n] = signed_key(keys[c]);
    winner_ids[n] = c;
  }
  for (std::uint32_t c = 0; need > 0; ++c) {
    if (keys[c] == threshold) {
      winner_keys[n] = signed_key(threshold);
      winner_ids[n++] = c;
      --need;
    }
  }

  // 4. Order the winners. Up to kRankCountLimit, a winner's rank is the
  // number of smaller keys, counted branch-free on 32-bit lanes. Those
  // ranks are a permutation exactly when they sum to k(k-1)/2, that is
  // when no two winners tie; otherwise a second count breaks ties by
  // collection order, which is id order within equal keys. Above the
  // limit, the packed (key, id) words are sorted. The last winner's key
  // is the row's k-th key.
  if (k <= kRankCountLimit) {
    std::uint32_t rank[kRankCountLimit] = {};
    std::uint32_t rank_sum = 0;
    for (std::uint32_t i = 0; i < k; ++i) {
      const std::int32_t key = winner_keys[i];
      std::uint32_t r = 0;
      for (std::uint32_t j = 0; j < k; ++j) {
        r += winner_keys[j] < key ? 1u : 0u;
      }
      rank[i] = r;
      rank_sum += r;
    }
    if (rank_sum != k * (k - 1) / 2) {
      for (std::uint32_t i = 0; i < k; ++i) {
        const std::int32_t key = winner_keys[i];
        std::uint32_t r = 0;
        for (std::uint32_t j = 0; j < k; ++j) {
          r += winner_keys[j] < key || (winner_keys[j] == key && j < i) ? 1u
                                                                        : 0u;
        }
        rank[i] = r;
      }
    }
    std::uint32_t kth = 0;
    for (std::uint32_t i = 0; i < k; ++i) {
      const std::uint32_t c = winner_ids[i];
      out[rank[i]] = TopEntry{c, row[c]};
      kth = rank[i] == k - 1 ? unsigned_key(winner_keys[i]) : kth;
    }
    result = {kth, passes};
    return true;
  }
  std::uint64_t* words = scratch.words.data();
  for (std::uint32_t i = 0; i < k; ++i) {
    words[i] = rank_key(unsigned_key(winner_keys[i]), winner_ids[i]);
  }
  std::sort(words, words + k);
  for (std::uint32_t r = 0; r < k; ++r) {
    const auto c = static_cast<std::uint32_t>(words[r]);
    out[r] = TopEntry{c, row[c]};
  }
  result = {static_cast<std::uint32_t>(words[k - 1] >> 32), passes};
  return true;
}

/// The weight behind an order key: the inverse of order_key, except that
/// the key of +0.0f also stands for -0.0f.
float weight_of_key(std::uint32_t key) {
  return std::bit_cast<float>(key < 0x80000000u ? key ^ 0x7fffffffu : key);
}

/// order_key(+0.0f), the one key weight_of_key cannot invert exactly.
constexpr std::uint32_t kZeroKey = 0x7fffffffu;

}  // namespace

SelectTopResult select_top_seeded(std::span<const float> row,
                                  std::uint32_t k, std::span<TopEntry> out,
                                  std::uint32_t seed) {
  const auto num = static_cast<std::uint32_t>(row.size());
  SCD_REQUIRE(k >= 1 && k <= num && out.size() >= k,
              "select_top needs 1 <= k <= row size and room for k entries");
  // Sized by the row alone, so one call per row size warms the scratch
  // for every k.
  SelectScratch& scratch = t_select;
  if (const std::uint32_t padded = padded_length(num);
      scratch.keys.size() < padded) {
    scratch.keys.resize(padded);
    scratch.masks.resize(padded / kMaskBits);
    scratch.winner_keys.resize(padded);
    scratch.winner_ids.resize(padded);
    scratch.words.resize(padded);
  }
  SelectTopResult result{seed, 0};
  if (!select_top_kernel(row.data(), num, k, out.data(), scratch, result)) {
    const auto bad = static_cast<std::size_t>(
        std::find_if_not(row.begin(), row.end(),
                         [](float w) { return std::isfinite(w); }) -
        row.begin());
    throw DataError("non-finite pi weight " + std::to_string(row[bad]) +
                    " for community " + std::to_string(bad));
  }
  return result;
}

void select_top(std::span<const float> row, std::uint32_t k,
                std::span<TopEntry> out) {
  select_top_seeded(row, k, out, kNoSeed);
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
  // Stage 1 writes every top slot and stage 3 every member slot, so
  // neither buffer is filled first.
  top_ = std::make_unique_for_overwrite<TopEntry[]>(std::size_t{n_} *
                                                    top_r_);

  // Stage 1 — per-node top-R selection, embarrassingly parallel over
  // vertices. Output slots are disjoint, so the result is identical at
  // any thread count. Each row's search starts around the k-th key of
  // the row before it in the thread's chunk; the seed moves pivots, not
  // winners. The key pass also refuses NaN and +-inf weights: no order
  // can rank them. Once a vertex's list is written, the same body
  // counts, per community, the entries that clear the membership
  // threshold: that sizes the inverted lists. Threads count into private
  // arrays which are reduced in thread order.
  const unsigned threads = pool.num_threads();
  std::vector<std::vector<std::size_t>> counts(
      threads, std::vector<std::size_t>(k_, 0));
  const float threshold = static_cast<float>(threshold_);
  pool.parallel_for(0, n_, [&](unsigned t, std::uint64_t lo,
                               std::uint64_t hi) {
    std::vector<std::size_t>& mine = counts[t];
    std::uint32_t seed = kNoSeed;
    for (std::uint64_t v = lo; v < hi; ++v) {
      const auto u = static_cast<std::uint32_t>(v);
      TopEntry* slot = top_.get() + v * top_r_;
      try {
        seed = select_top_seeded(checkpoint_.pi.row(u).first(k_), top_r_,
                                 {slot, top_r_}, seed)
                   .kth_key;
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
  members_ =
      std::make_unique_for_overwrite<MemberEntry[]>(member_offsets_[k_]);

  // Stage 3 — scatter in vertex order (sequential: the per-community
  // cursors make parallel scatter order-dependent; this pass is a cheap
  // O(N * R) sweep next to stage 1's O(N * K)).
  std::vector<std::size_t> cursor(member_offsets_.begin(),
                                  member_offsets_.end() - 1);
  for (std::uint32_t v = 0; v < n_; ++v) {
    const TopEntry* slot = top_.get() + std::size_t{v} * top_r_;
    for (std::uint32_t r = 0; r < top_r_ && slot[r].weight >= threshold;
         ++r) {
      members_[cursor[slot[r].community]++] =
          MemberEntry{v, slot[r].weight};
    }
  }

  // Stage 4 — rank each community's members, parallel over communities,
  // on the same packed key as stage 1: sort the unique rank_key words,
  // then rebuild the entries, each weight decoded from its key. Only the
  // key of +-0.0f sends the rebuild back to the pi row: order_key folds
  // -0.0f onto +0.0f, so that key cannot tell the two apart. Sorting a
  // deterministic input with a strict total order keeps the output
  // thread-count independent.
  pool.parallel_for(0, k_, [&](unsigned, std::uint64_t lo,
                               std::uint64_t hi) {
    std::vector<std::uint64_t> words;
    for (std::uint64_t c = lo; c < hi; ++c) {
      const auto community = static_cast<std::uint32_t>(c);
      const std::span<MemberEntry> list(
          members_.get() + member_offsets_[c],
          member_offsets_[c + 1] - member_offsets_[c]);
      words.clear();
      for (const MemberEntry& m : list) {
        words.push_back(rank_key(order_key(m.weight), m.vertex));
      }
      std::sort(words.begin(), words.end());
      for (std::size_t i = 0; i < list.size(); ++i) {
        const auto v = static_cast<std::uint32_t>(words[i]);
        const auto key = static_cast<std::uint32_t>(words[i] >> 32);
        list[i] = MemberEntry{v, key == kZeroKey
                                     ? checkpoint_.pi.pi(v, community)
                                     : weight_of_key(key)};
      }
    }
  });
}

std::size_t ServingIndex::index_bytes() const {
  return std::size_t{n_} * top_r_ * sizeof(TopEntry) +
         inverted_entries() * sizeof(MemberEntry) +
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
