#include "serve/serving_index.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <string>
#include <utility>

#include "core/report.h"
#include "util/error.h"

namespace scd::serve {

namespace {

/// The one ordering every list in the index uses — weight descending,
/// id ascending — packed into a single integer so one unsigned compare
/// decides it. The high word holds the weight's order-preserving bits,
/// inverted so larger weights give smaller keys; -0.0f is folded onto
/// +0.0f so the two still tie. The low word is the id, which makes keys
/// unique, so results are unique and thread-count independent.
inline std::uint64_t rank_key(float weight, std::uint32_t id) {
  std::uint32_t bits = std::bit_cast<std::uint32_t>(weight);
  bits = bits == 0x80000000u ? 0u : bits;
  // Non-negative weights: flip the magnitude so larger sorts first.
  // Negative ones already grow with magnitude and sort after them.
  const std::uint32_t flip = (bits >> 31) != 0 ? 0u : 0x7fffffffu;
  return (std::uint64_t{bits ^ flip} << 32) | id;
}

}  // namespace

void select_top(std::span<const float> row, std::uint32_t k,
                std::span<TopEntry> out) {
  const auto num = static_cast<std::uint32_t>(row.size());
  SCD_REQUIRE(k >= 1 && k <= num && out.size() >= k,
              "select_top needs 1 <= k <= row size and room for k entries");
  static thread_local std::vector<std::uint64_t> scratch;
  scratch.resize(num);
  std::uint64_t* keys = scratch.data();
  bool finite = true;
  for (std::uint32_t c = 0; c < num; ++c) {
    keys[c] = rank_key(row[c], c);
    finite &= std::isfinite(row[c]);
  }
  if (!finite) {
    const auto bad = static_cast<std::size_t>(
        std::find_if_not(row.begin(), row.end(),
                         [](float w) { return std::isfinite(w); }) -
        row.begin());
    throw DataError("non-finite pi weight " + std::to_string(row[bad]) +
                    " for community " + std::to_string(bad));
  }
  // Cut-off: split the keys into k contiguous groups and take the worst
  // of the group bests. Each group holds a key <= cut, so the k best keys
  // all pass it; only those candidates go through the selection.
  std::uint64_t cut = 0;
  for (std::uint32_t g = 0; g < k; ++g) {
    const auto lo = static_cast<std::uint32_t>(std::uint64_t{num} * g / k);
    const auto hi =
        static_cast<std::uint32_t>(std::uint64_t{num} * (g + 1) / k);
    cut = std::max(cut, *std::min_element(keys + lo, keys + hi));
  }
  std::uint32_t candidates = 0;
  for (std::uint32_t c = 0; c < num; ++c) {
    const std::uint64_t key = keys[c];
    keys[candidates] = key;
    candidates += key <= cut ? 1 : 0;
  }
  std::nth_element(keys, keys + (k - 1), keys + candidates);
  std::sort(keys, keys + k);
  for (std::uint32_t r = 0; r < k; ++r) {
    const auto c = static_cast<std::uint32_t>(keys[r]);
    out[r] = TopEntry{c, row[c]};
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
        return rank_key(a.weight, a.vertex) < rank_key(b.weight, b.vertex);
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
