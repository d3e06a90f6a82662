#include "serve/query_engine.h"

#include <algorithm>

#include "core/kernels_simd.h"
#include "util/error.h"

namespace scd::serve {

ServingSnapshots::Ref QueryEngine::current() const {
  ServingSnapshots::Ref ref = snapshots_.acquire();
  if (!ref) throw Error("no serving snapshot published yet");
  return ref;
}

std::uint32_t QueryEngine::top_communities(std::uint32_t u,
                                           std::span<TopEntry> out) const {
  const ServingSnapshots::Ref index = current();
  SCD_REQUIRE(u < index->num_vertices(), "vertex out of range");
  const auto k = static_cast<std::uint32_t>(
      std::min<std::size_t>(out.size(), index->num_communities()));
  if (k <= index->top_r()) {
    const std::span<const TopEntry> list = index->top_list(u);
    std::copy_n(list.begin(), k, out.begin());
    return k;
  }
  // Exact fallback: select over the full dense row (allocation-free
  // after warm-up; the index path above allocates nothing at all).
  select_top(index->pi_row(u).first(index->num_communities()), k, out);
  return k;
}

std::vector<TopEntry> QueryEngine::top_communities(std::uint32_t u,
                                                   std::uint32_t k) const {
  std::vector<TopEntry> result(k);
  result.resize(top_communities(u, result));
  return result;
}

double QueryEngine::pair_likelihood(std::uint32_t u, std::uint32_t v,
                                    bool link) const {
  const ServingSnapshots::Ref index = current();
  SCD_REQUIRE(u < index->num_vertices() && v < index->num_vertices(),
              "vertex out of range");
  return core::fast_pair_likelihood(index->pi_row(u), index->pi_row(v),
                                    index->terms(), link);
}

double QueryEngine::link_probability(std::uint32_t u, std::uint32_t v) const {
  return pair_likelihood(u, v, /*link=*/true);
}

std::uint32_t QueryEngine::community_members(std::uint32_t c,
                                             std::span<MemberEntry> out)
    const {
  const ServingSnapshots::Ref index = current();
  SCD_REQUIRE(c < index->num_communities(), "community out of range");
  const std::span<const MemberEntry> list = index->members(c);
  const auto k = static_cast<std::uint32_t>(
      std::min(out.size(), list.size()));
  std::copy_n(list.begin(), k, out.begin());
  return k;
}

std::vector<MemberEntry> QueryEngine::community_members(
    std::uint32_t c, std::uint32_t k) const {
  std::vector<MemberEntry> result(k);
  result.resize(community_members(c, result));
  return result;
}

}  // namespace scd::serve
