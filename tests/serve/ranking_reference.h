// Shared by the serving tests: the brute-force ranking every top list is
// checked against, and row shapes that stress its tie-breaking.
#pragma once

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "core/state.h"
#include "serve/serving_index.h"

namespace scd::serve::testing {

/// Reference ranking: weight-descending, community-ascending.
inline std::vector<TopEntry> brute_force_top(std::span<const float> row,
                                             std::uint32_t k,
                                             std::uint32_t r) {
  std::vector<TopEntry> all(k);
  for (std::uint32_t c = 0; c < k; ++c) all[c] = TopEntry{c, row[c]};
  std::sort(all.begin(), all.end(), [](const TopEntry& a, const TopEntry& b) {
    if (a.weight != b.weight) return a.weight > b.weight;
    return a.community < b.community;
  });
  all.resize(std::min(r, k));
  return all;
}

/// Rewrite the pi entries of most rows into tie-heavy shapes, chosen by
/// vertex: v % 4 == 0 keeps its random row, 1 is quantised to a few
/// levels, 2 is all equal, 3 mixes +0.0f and -0.0f around two positive
/// weights.
inline void shape_ties(core::PiMatrix& pi) {
  const std::uint32_t k = pi.num_communities();
  const float levels = 2.0f * static_cast<float>(k);
  for (std::uint32_t v = 0; v < pi.num_vertices(); ++v) {
    const std::span<float> row = pi.row(v).first(k);
    switch (v % 4) {
      case 1:
        for (float& w : row) w = std::round(w * levels) / levels;
        break;
      case 2:
        std::fill(row.begin(), row.end(), 1.0f / static_cast<float>(k));
        break;
      case 3:
        for (std::uint32_t c = 0; c < k; ++c) {
          row[c] = c % 2 == 0 ? 0.0f : -0.0f;
        }
        row[v % k] = 0.7f;
        row[(7 * v + 3) % k] = 0.3f;
        break;
      default:
        break;
    }
  }
}

/// True when `got` is `expected` entry for entry, weights compared by
/// bits (so a -0.0f listed as +0.0f is a mismatch).
inline bool same_entries(std::span<const TopEntry> got,
                         std::span<const TopEntry> expected) {
  return std::equal(got.begin(), got.end(), expected.begin(), expected.end(),
                    [](const TopEntry& a, const TopEntry& b) {
                      return a.community == b.community &&
                             std::bit_cast<std::uint32_t>(a.weight) ==
                                 std::bit_cast<std::uint32_t>(b.weight);
                    });
}

}  // namespace scd::serve::testing
