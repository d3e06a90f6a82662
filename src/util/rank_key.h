// The ranking order shared by the serving lists and the sparse row codec:
// weight descending, id ascending, with -0.0f tying with +0.0f. It is a
// strict total order on finite weights; callers refuse NaN and +-inf.
#pragma once

#include <bit>
#include <cstdint>

namespace scd {

/// 32-bit order key of one weight: smaller key = higher rank. The
/// weight's order-preserving bits, inverted so larger weights give
/// smaller keys, with -0.0f folded onto +0.0f so the two tie.
inline std::uint32_t order_key(float weight) {
  std::uint32_t bits = std::bit_cast<std::uint32_t>(weight);
  bits = bits == 0x80000000u ? 0u : bits;
  // Non-negative weights: flip the magnitude so larger sorts first.
  // Negative ones already grow with magnitude and sort after them.
  return bits ^ (((bits >> 31) - 1u) & 0x7fffffffu);
}

/// The order key with the id in the low word: keys are then unique and
/// one unsigned compare decides the whole order.
inline std::uint64_t rank_key(std::uint32_t key, std::uint32_t id) {
  return (std::uint64_t{key} << 32) | id;
}

}  // namespace scd
