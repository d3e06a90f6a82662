// Read-optimized serving index over a fitted pi/beta snapshot.
//
// Training produces a checkpoint; serving answers membership queries
// against it under heavy traffic. The query mix the ROADMAP names ("top
// communities for user u", "link probability u-v", "members of community
// k") wants two access paths the training layout does not provide:
//   * per-node top-R community lists — top_communities(u, k) in O(k)
//     instead of an O(K) scan plus an O(K log K) sort per query;
//   * per-community inverted member lists — community_members(c, k) in
//     O(k) instead of an O(N * K) sweep.
// The index is post-processed from any checkpoint (v1-v3; lossy/sparse
// rows were already decoded to dense floats by the loader through
// quant::decode_row) and also keeps the dense pi rows themselves: exact
// queries (link probability, top lists deeper than R) fall back to the
// full row, and the pair kernel runs on the same [pi | phi_sum] layout
// training used, so served probabilities are bit-identical to the
// training-side perplexity terms.
//
// A ServingIndex is immutable after construction — that is what makes the
// lock-free snapshot swap (threading/snapshot.h) sound. Model refreshes
// build a new index from checkpoint bytes and publish it; in-flight
// queries keep reading the old one until they drop their guard.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/checkpoint.h"
#include "core/grads.h"
#include "threading/thread_pool.h"

namespace scd::serve {

struct ServingIndexOptions {
  /// Per-node top list capacity R (clamped to K). Queries for k <= R are
  /// served from the index; deeper ones fall back to the dense row.
  std::uint32_t top_r = 32;
  /// Minimum pi for a vertex to appear in a community's inverted member
  /// list. Negative = auto: core::default_membership_threshold(K), the
  /// same heuristic the offline community report uses.
  double membership_threshold = -1.0;
};

/// One entry of a per-node top list: community id + its pi weight.
/// Trivial, so the index allocates its lists without filling them;
/// `TopEntry{}` is still zero.
struct TopEntry {
  std::uint32_t community;
  float weight;
};

/// One entry of a per-community inverted list: vertex id + its pi weight.
/// Trivial, like TopEntry.
struct MemberEntry {
  std::uint32_t vertex;
  float weight;
};

/// The k best entries of `row` (weights indexed by community), weight
/// descending with community-ascending tie-break, into out[0, k). -0.0f
/// ties with +0.0f. The selection works on one 32-bit order key per
/// weight: passes of a branch-free count of the keys under three
/// ascending pivots narrow a key interval onto the k-th key, stopping
/// early when a pivot has exactly k keys under it; the k winners are
/// collected in id order from one bitmask per 32 keys, then ordered by a
/// branch-free count of smaller keys (k <= 64; ties, rare, take a second
/// count that breaks them by id) or by sorting packed (key, id) words
/// (k > 64). A search pass is O(K); with evenly spread pivots it cuts
/// the interval to a quarter, so a row takes at most 16 (the serving
/// model's rows take about six); the rest is O(K + k^2) for k <= 64 and
/// O(K + k log k) above. Throws scd::DataError naming the community
/// when the row holds a NaN or +-inf weight. Allocation-free after
/// warm-up (the scratch is thread-local). The query engine's exact
/// fallback for k > R calls it; it is select_top_seeded with no seed.
void select_top(std::span<const float> row, std::uint32_t k,
                std::span<TopEntry> out);

/// What select_top_seeded reports besides the list.
struct SelectTopResult {
  std::uint32_t kth_key;  ///< the row's k-th key, in order_key's order
  std::uint32_t passes;   ///< threshold-search passes over the row's keys
};

/// select_top with its first search pass placed around `seed`, a key in
/// order_key's order: pivots at seed + 1 and a fixed band either side of
/// it, when the seed lies strictly inside the row's key range; evenly
/// spread pivots otherwise (~0u never lies inside). The index build
/// passes each row the k-th key of the row before it, which cuts the
/// serving model's passes from about six to about three and a half. The
/// winners, and so `out`, are select_top's for any seed.
SelectTopResult select_top_seeded(std::span<const float> row,
                                  std::uint32_t k, std::span<TopEntry> out,
                                  std::uint32_t seed);

class ServingIndex {
 public:
  /// Post-process `checkpoint` (taken by value; the pi matrix moves into
  /// the index as the exact-query fallback) into the two serving access
  /// paths. The build parallelizes over `pool` and is deterministic: the
  /// same checkpoint yields byte-identical lists at any thread count.
  /// Throws scd::DataError, naming the vertex and community, when a pi
  /// weight is NaN or +-inf.
  ServingIndex(core::Checkpoint checkpoint,
               const ServingIndexOptions& options,
               threading::ThreadPool& pool);

  // --- shape & provenance ------------------------------------------------
  std::uint32_t num_vertices() const { return n_; }
  std::uint32_t num_communities() const { return k_; }
  std::uint32_t top_r() const { return top_r_; }
  double membership_threshold() const { return threshold_; }
  /// Iteration the source checkpoint was taken at.
  std::uint64_t iteration() const { return checkpoint_.iteration; }
  /// Total entries across all inverted member lists.
  std::uint64_t inverted_entries() const { return member_offsets_[k_]; }
  /// Approximate resident bytes of the index structures (top lists,
  /// inverted lists, dense rows).
  std::size_t index_bytes() const;

  // --- query access paths -----------------------------------------------
  /// Top-R communities of `u`, weight-descending (community-ascending
  /// tie-break).
  std::span<const TopEntry> top_list(std::uint32_t u) const {
    return {top_.get() + std::size_t{u} * top_r_, top_r_};
  }

  /// Members of community `c` with pi >= membership_threshold, weight-
  /// descending (vertex-ascending tie-break).
  std::span<const MemberEntry> members(std::uint32_t c) const {
    return {members_.get() + member_offsets_[c],
            member_offsets_[c + 1] - member_offsets_[c]};
  }

  /// Dense [pi | phi_sum] row of `u` — the exact fallback path and the
  /// input to the pair-likelihood kernel.
  std::span<const float> pi_row(std::uint32_t u) const {
    return checkpoint_.pi.row(u);
  }

  /// Likelihood terms refreshed from the checkpoint's beta and delta —
  /// exactly what the training-side evaluator uses against this state.
  const core::LikelihoodTerms& terms() const { return terms_; }

  /// The source checkpoint (pi/theta/hyper); a refresh round-trips it
  /// through core::checkpoint_to_bytes / checkpoint_from_bytes.
  const core::Checkpoint& checkpoint() const { return checkpoint_; }

 private:
  void build(threading::ThreadPool& pool);

  core::Checkpoint checkpoint_;
  std::uint32_t n_ = 0;
  std::uint32_t k_ = 0;
  std::uint32_t top_r_ = 0;
  double threshold_ = 0.0;
  core::LikelihoodTerms terms_;

  std::unique_ptr<TopEntry[]> top_;  // n_ * top_r_, flat
  // Inverted lists in CSR form: members_[member_offsets_[c] ..
  // member_offsets_[c+1]) are community c's members.
  std::unique_ptr<MemberEntry[]> members_;
  std::vector<std::size_t> member_offsets_;  // k_ + 1
};

/// Convenience: build an index snapshot ready for SnapshotManager.
std::unique_ptr<const ServingIndex> build_serving_index(
    core::Checkpoint checkpoint, const ServingIndexOptions& options,
    threading::ThreadPool& pool);

}  // namespace scd::serve
