// Membership-query API over lock-free snapshots of a ServingIndex.
//
// Every query acquires the current snapshot through the
// threading::SnapshotManager guard, answers against that immutable index,
// and releases it — so a concurrent model refresh (publish of a freshly
// built index) never blocks a query and never tears one: a query sees
// entirely the old snapshot or entirely the new one.
//
// link_probability routes through the same pair-likelihood kernel
// (core::fast_pair_likelihood) on the same dense [pi | phi_sum]
// rows and LikelihoodTerms training used, so a served probability is
// bit-identical to the training-side perplexity term for the same
// checkpoint (asserted by tests/serve/query_engine_test.cpp).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "serve/serving_index.h"
#include "threading/snapshot.h"

namespace scd::serve {

/// The snapshot store the serving layer publishes into and queries from.
using ServingSnapshots = threading::SnapshotManager<ServingIndex>;

class QueryEngine {
 public:
  /// The engine reads whatever snapshot `snapshots` currently holds; the
  /// manager must outlive the engine. Queries throw scd::Error until the
  /// first snapshot is published.
  explicit QueryEngine(ServingSnapshots& snapshots)
      : snapshots_(snapshots) {}

  /// Top-k communities of `u`, weight-descending, written into `out`
  /// (clamped to out.size()); returns the count written. k <= top_r is
  /// served from the index in O(k); deeper asks fall back to the exact
  /// selection (select_top) over the dense pi row, O(K + k^2) up to
  /// k = 64 and O(K + k log k) above, so any k up to K is answerable.
  /// Allocation-free after warm-up: select_top's thread-local scratch,
  /// sized by the row alone, grows on the thread's first fallback
  /// (tests/core/zero_alloc_test.cpp).
  std::uint32_t top_communities(std::uint32_t u, std::span<TopEntry> out)
      const;
  std::vector<TopEntry> top_communities(std::uint32_t u,
                                        std::uint32_t k) const;

  /// Model probability of edge (u, v) existing — Z_uv^(1) of the pair
  /// kernel. O(K).
  double link_probability(std::uint32_t u, std::uint32_t v) const;

  /// Z_uv^(y): the y = link/non-link stratified form the training-side
  /// perplexity evaluator averages. link_probability is y = true.
  double pair_likelihood(std::uint32_t u, std::uint32_t v, bool link) const;

  /// Top-k members of community `c`, weight-descending, into `out`
  /// (clamped); returns the count written (may be short: only members
  /// above the index's membership threshold are listed). O(k),
  /// allocation-free.
  std::uint32_t community_members(std::uint32_t c, std::span<MemberEntry> out)
      const;
  std::vector<MemberEntry> community_members(std::uint32_t c,
                                             std::uint32_t k) const;

  /// Snapshot generation the next query will see.
  std::uint64_t epoch() const { return snapshots_.epoch(); }

 private:
  ServingSnapshots::Ref current() const;

  ServingSnapshots& snapshots_;
};

}  // namespace scd::serve
