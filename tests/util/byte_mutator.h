// Seeded byte-level mutator for parser robustness tests: each mutant is
// the seed text with 1-3 edits, each a byte replacement, an insertion or
// a deletion at a uniform position. Replacement and inserted bytes are
// either uniform over 0..255 or drawn from characters that parsers of
// text formats branch on, so mutants reach past the first token.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "random/xoshiro.h"

namespace scd::testing {

inline char mutant_byte(rng::Xoshiro256& rng) {
  constexpr std::string_view kSyntax = "{}[]:,\"-+.eE0123456789 \t\n\r#%x";
  if (rng.next_below(2) == 0) {
    return static_cast<char>(rng.next_below(256));
  }
  return kSyntax[rng.next_below(kSyntax.size())];
}

inline std::string mutate_bytes(rng::Xoshiro256& rng, std::string text) {
  const std::uint64_t edits = 1 + rng.next_below(3);
  for (std::uint64_t e = 0; e < edits; ++e) {
    const std::uint64_t kind = text.empty() ? 1 : rng.next_below(3);
    if (kind == 0) {
      text[rng.next_below(text.size())] = mutant_byte(rng);
    } else if (kind == 1) {
      text.insert(text.begin() + static_cast<std::ptrdiff_t>(
                                     rng.next_below(text.size() + 1)),
                  mutant_byte(rng));
    } else {
      text.erase(rng.next_below(text.size()), 1);
    }
  }
  return text;
}

}  // namespace scd::testing
