#include "serve/serving_index.h"

#include <algorithm>
#include <bit>
#include <climits>
#include <cmath>
#include <cstring>
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

/// Up to this many winners, select_top orders them by counting ranks in
/// registers (no branches); above it, by sorting. On rows of the serving
/// benchmark's model, select_top with 33 to 64 winners sorted took 1.9 to
/// 4.0 times as long as with them counted on 64 lanes.
constexpr std::uint32_t kRankCountLimit = 64;

/// Pivots per pass of the threshold search: each pass cuts the key
/// interval that holds the k-th key into kPivots + 1 parts.
constexpr std::uint32_t kPivots = 3;

/// Eight 32-bit lanes: one AVX2 register. The collect and rank steps are
/// written on these (GCC vector extensions), so each clone lowers the same
/// integer lane operations to its own instructions.
using Lanes = std::int32_t __attribute__((vector_size(32)));
using HalfLanes = std::int32_t __attribute__((vector_size(16)));
constexpr std::uint32_t kLanes = 8;

/// The key array is padded with ~0u keys to a multiple of this: the collect
/// pass reads kGroup keys (four Lanes) per step and folds their winner
/// lanes into one 32-bit mask. Keys are counted and collected by
/// `key < pivot`, `key < threshold` and `key == threshold`, and ~0u is
/// under no finite key and equal to none, so padding never counts and
/// never wins.
constexpr std::uint32_t kGroup = 32;

/// The padded length of a key array for a row of `num` weights.
constexpr std::uint32_t padded_length(std::uint32_t num) {
  return (num + kGroup - 1) / kGroup * kGroup;
}

/// The collect pass's lane compress: for each 8-bit lane mask, the indices
/// of its set lanes in ascending order, then zeros, and how many are set.
/// One permute by `index[mask]` moves the selected lanes of eight keys to
/// the front, in id order.
struct CompressTable {
  std::int32_t index[256][kLanes];
  std::uint32_t count[256];
};
constexpr CompressTable make_compress_table() {
  CompressTable table{};
  for (std::uint32_t mask = 0; mask < 256; ++mask) {
    std::uint32_t n = 0;
    for (std::uint32_t lane = 0; lane < kLanes; ++lane) {
      if ((mask >> lane & 1u) != 0) {
        table.index[mask][n++] = static_cast<std::int32_t>(lane);
      }
    }
    table.count[mask] = n;
  }
  return table;
}
alignas(32) constexpr CompressTable kCompress = make_compress_table();

/// select_top's working memory, grown once per thread: the padded order
/// keys; per winner, its signed key and its id, with room for a
/// compress's spill past the last winner and for the rank count's
/// INT32_MAX padding; and, for the sort path, one packed (key, id) word
/// per winner.
struct SelectScratch {
  std::vector<std::uint32_t> keys;
  std::vector<std::int32_t> winner_keys;
  std::vector<std::uint32_t> winner_ids;
  std::vector<std::uint64_t> words;
};
thread_local SelectScratch t_select;

/// An order key with its top bit flipped: signed compares of these order
/// them as unsigned compares order the keys, and AVX2 compares signed
/// 32-bit lanes eight at a time. The padding key ~0u becomes INT32_MAX.
inline std::int32_t signed_key(std::uint32_t key) {
  return static_cast<std::int32_t>(key ^ 0x80000000u);
}
inline std::uint32_t unsigned_key(std::int32_t key) {
  return static_cast<std::uint32_t>(key) ^ 0x80000000u;
}

inline Lanes load_lanes(const void* from) {
  Lanes v;
  std::memcpy(&v, from, sizeof v);
  return v;
}
inline void store_lanes(void* to, Lanes v) { std::memcpy(to, &v, sizeof v); }

/// The OR of a vector's eight lanes.
inline std::uint32_t or_lanes(Lanes v) {
  HalfLanes h = __builtin_shufflevector(v, v, 0, 1, 2, 3) |
                __builtin_shufflevector(v, v, 4, 5, 6, 7);
  h |= __builtin_shufflevector(h, h, 2, 3, 0, 1);
  h |= __builtin_shufflevector(h, h, 1, 0, 3, 2);
  return static_cast<std::uint32_t>(h[0]);
}

/// Appends, in id order, the keys of `keys[0..padded)` that `select`
/// picks, as signed keys with their ids, to `winner_keys`/`winner_ids`
/// from entry n on, and returns the new count. It stops after the first
/// group of kGroup keys that brings the count to `stop` or more (and
/// after the last group), so up to kGroup - 1 entries past `stop` may be
/// written. Per group: one compare per eight keys, their lanes' bits
/// folded into one 32-bit mask (group lane 8q + i at bit 8q + i), then
/// per eight keys one compress-table permute of the keys and of the ids
/// and one store of each, all eight lanes wide.
template <typename Select>
inline std::uint32_t collect(const std::uint32_t* keys, std::uint32_t padded,
                             Select select, std::uint32_t n, std::uint32_t stop,
                             std::int32_t* winner_keys,
                             std::uint32_t* winner_ids) {
  const Lanes lane_bit = {1, 2, 4, 8, 16, 32, 64, 128};
  const Lanes lane_id = {0, 1, 2, 3, 4, 5, 6, 7};
  constexpr std::uint32_t kBlocks = kGroup / kLanes;
  for (std::uint32_t base = 0; base < padded && n < stop; base += kGroup) {
    Lanes key[kBlocks];
    Lanes bits = {};
    for (std::uint32_t q = 0; q < kBlocks; ++q) {
      key[q] = load_lanes(keys + base + q * kLanes) ^ INT32_MIN;
      bits |= select(key[q]) & (lane_bit << static_cast<int>(q * kLanes));
    }
    const std::uint32_t mask = or_lanes(bits);
    for (std::uint32_t q = 0; q < kBlocks; ++q) {
      const std::uint32_t lanes = mask >> (q * kLanes) & 0xffu;
      const Lanes index = load_lanes(kCompress.index[lanes]);
      const Lanes id = lane_id + static_cast<std::int32_t>(base + q * kLanes);
      store_lanes(winner_keys + n, __builtin_shuffle(key[q], index));
      store_lanes(winner_ids + n, __builtin_shuffle(id, index));
      n += kCompress.count[lanes];
    }
  }
  return n;
}

/// The rank of each of `keys[0..kWidth)` among them, in `rank`: the number
/// of smaller keys, plus with kById the number of equal keys before it.
/// Counted in registers: per key, one broadcast, then per eight lanes one
/// compare (two with kById) and one subtract. The trip count is the fixed
/// kWidth, so callers pad the keys past the winners with INT32_MAX,
/// which is under no key and equal to no real one (a real key would be
/// the order key of a NaN).
template <std::uint32_t kWidth, bool kById>
inline void count_ranks(const std::int32_t* keys, std::int32_t* rank) {
  constexpr std::uint32_t kBlocks = kWidth / kLanes;
  Lanes key[kBlocks];
  Lanes count[kBlocks] = {};
  for (std::uint32_t q = 0; q < kBlocks; ++q) {
    key[q] = load_lanes(keys + q * kLanes);
  }
  for (std::uint32_t j = 0; j < kWidth; ++j) {
    const Lanes other = Lanes{} + keys[j];
    for (std::uint32_t q = 0; q < kBlocks; ++q) {
      Lanes before = other < key[q];
      if constexpr (kById) {
        const Lanes id = Lanes{0, 1, 2, 3, 4, 5, 6, 7} +
                         static_cast<std::int32_t>(q * kLanes);
        before |= (other == key[q]) & (static_cast<std::int32_t>(j) < id);
      }
      count[q] += before;  // -1 per key before
    }
  }
  for (std::uint32_t q = 0; q < kBlocks; ++q) {
    store_lanes(rank + q * kLanes, -count[q]);
  }
}

/// The rank of each of the k winners (k <= kWidth), ties broken by
/// collection order: a first count by key alone, and a second by key
/// then position only when some ranks tie, that is when they are not a
/// permutation of 0..k-1 (their sum is not k(k-1)/2). Pads the winners'
/// keys to kWidth.
template <std::uint32_t kWidth>
inline void rank_winners(std::int32_t* winner_keys, std::uint32_t k,
                         std::int32_t* rank) {
  std::fill(winner_keys + k, winner_keys + kWidth, INT32_MAX);
  count_ranks<kWidth, false>(winner_keys, rank);
  std::uint32_t rank_sum = 0;
  for (std::uint32_t i = 0; i < k; ++i) {
    rank_sum += static_cast<std::uint32_t>(rank[i]);
  }
  if (rank_sum != k * (k - 1) / 2) {
    count_ranks<kWidth, true>(winner_keys, rank);
  }
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

  // 3. Collect the winners in id order, as signed keys and ids: the
  // k - need keys below the threshold by a packed compress, then by the
  // same compress on `key == threshold` the first `need` keys equal to it
  // (ties go to the smaller id).
  std::int32_t* winner_keys = scratch.winner_keys.data();
  std::uint32_t* winner_ids = scratch.winner_ids.data();
  const Lanes cut = Lanes{} + signed_key(threshold);
  const std::uint32_t n = collect(
      keys, padded, [cut](Lanes key) { return key < cut; }, 0, k - need,
      winner_keys, winner_ids);
  collect(keys, padded, [cut](Lanes key) { return key == cut; }, n, k,
          winner_keys, winner_ids);

  // 4. Order the winners. Up to kRankCountLimit, by counted ranks (see
  // rank_winners) over the fewest of 8, 16, 32, 48 or 64 lanes that hold
  // them, so a short list pays no long padding; above it, by sorting the
  // packed (key, id) words. The last winner's key is the row's k-th key.
  if (k <= kRankCountLimit) {
    std::int32_t rank[kRankCountLimit];
    if (k <= 8) {
      rank_winners<8>(winner_keys, k, rank);
    } else if (k <= 16) {
      rank_winners<16>(winner_keys, k, rank);
    } else if (k <= 32) {
      rank_winners<32>(winner_keys, k, rank);
    } else if (k <= 48) {
      rank_winners<48>(winner_keys, k, rank);
    } else {
      rank_winners<kRankCountLimit>(winner_keys, k, rank);
    }
    std::uint32_t kth = 0;
    for (std::uint32_t i = 0; i < k; ++i) {
      const std::uint32_t c = winner_ids[i];
      const auto r = static_cast<std::uint32_t>(rank[i]);
      out[r] = TopEntry{c, row[c]};
      kth = r == k - 1 ? unsigned_key(winner_keys[i]) : kth;
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
    scratch.winner_keys.resize(padded + kRankCountLimit);
    scratch.winner_ids.resize(padded + kRankCountLimit);
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
