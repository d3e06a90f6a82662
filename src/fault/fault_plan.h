// Declarative, seeded fault schedules for the virtual-time cluster.
//
// A FaultPlan is the complete description of everything that goes wrong
// in a chaos run: which ranks crash and when (virtual time), which links
// drop/duplicate/delay messages inside which windows, which ranks slow
// down (stragglers), and which DKV shards stall. Together with its seed
// it fully determines every injected fault — two runs with the same plan
// and the same workload produce bit-identical faulted trajectories,
// which is what makes failures debuggable in the simulator when they
// never would be on a real fabric.
//
// Plans are built programmatically or parsed from a small JSON file
// (see from_json for the schema); the CLI's --fault-plan flag feeds the
// latter. An empty plan is valid and injects nothing — a run with one
// equals the run without a plan, virtual time included.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

namespace scd::fault {

/// Protocol points at which an iteration-triggered crash can fire (the
/// worker loop polls its fate exactly at these four seams). Crashes
/// anchored to a (iteration, point) pair instead of a virtual time are
/// what makes fault runs reproducible across execution backends — the
/// process backend has no virtual clock to reach.
enum class CrashPoint : unsigned {
  kAfterPhi = 0,     // phi pipeline done, before the stage barrier
  kAfterPi = 1,      // pi written back, before the stage barrier
  kBeforeRatios = 2, // theta grads computed, before sending ratios
  kBeforeEval = 3,   // perplexity partials computed, before sending them
                     // (eval iterations only; run() refuses other anchors)
};
inline constexpr unsigned kNumCrashPoints = 4;

/// `rank` fail-stops either the first time its virtual clock reaches
/// `time_s` (sim backend only), or — when `at_iteration` is set — at
/// protocol point `at_point` of iteration `at_iteration` on any backend.
/// Rank 0 (the master) is not allowed to crash.
struct CrashEvent {
  static constexpr std::uint64_t kNoIteration = ~std::uint64_t{0};

  unsigned rank = 0;
  double time_s = 0.0;
  std::uint64_t at_iteration = kNoIteration;
  CrashPoint at_point = CrashPoint::kAfterPhi;

  bool iteration_triggered() const { return at_iteration != kNoIteration; }
};

/// Transient lossy window on the directed link `from` -> `to`.
struct LinkFault {
  unsigned from = 0;
  unsigned to = 0;
  double start_s = 0.0;
  double end_s = std::numeric_limits<double>::infinity();
  /// Per-transmission loss probability (retried with backoff until a
  /// transmission survives, so must be < 1).
  double drop_prob = 0.0;
  /// Probability the surviving transmission is sent twice (delivered
  /// once; the duplicate only costs wire time).
  double dup_prob = 0.0;
  /// Extra in-flight delay on every delivery inside the window.
  double delay_s = 0.0;
};

/// `rank`'s compute charges are multiplied by `slowdown` inside the
/// window (OS jitter, co-tenant interference, thermal throttling).
struct StragglerWindow {
  unsigned rank = 0;
  double start_s = 0.0;
  double end_s = std::numeric_limits<double>::infinity();
  double slowdown = 1.0;
};

/// Every coalesced DKV message to `shard` pays an extra `stall_s` inside
/// the window (a busy or paging shard server).
struct ShardStall {
  unsigned shard = 0;
  double start_s = 0.0;
  double end_s = std::numeric_limits<double>::infinity();
  double stall_s = 0.0;
};

struct FaultPlan {
  /// Seeds every probabilistic decision (drop/duplicate draws).
  std::uint64_t seed = 0;
  /// The master declares a worker dead when its message is this far
  /// overdue (virtual seconds).
  double heartbeat_timeout_s = 0.25;
  /// Base retry backoff of a dropped transmission; attempt i waits
  /// base * 2^i before the re-post.
  double retry_backoff_s = 50e-6;

  std::vector<CrashEvent> crashes;
  std::vector<LinkFault> links;
  std::vector<StragglerWindow> stragglers;
  std::vector<ShardStall> dkv_stalls;

  /// True when the plan injects nothing at all.
  bool empty() const {
    return crashes.empty() && links.empty() && stragglers.empty() &&
           dkv_stalls.empty();
  }

  /// Structural checks against a concrete cluster: ranks in range, the
  /// master never crashes, probabilities and windows sane. Throws
  /// scd::UsageError on violation.
  void validate(unsigned num_ranks) const;

  /// Parse from the JSON schema below. Unknown keys are an error (typos
  /// must not silently produce a fault-free run). Throws scd::DataError
  /// on malformed input.
  ///
  ///   {
  ///     "seed": 7, "heartbeat_timeout_s": 0.25, "retry_backoff_s": 5e-5,
  ///     "crashes":    [{"rank": 2, "time_s": 0.5},
  ///                    {"rank": 1, "at_iteration": 3, "at_point": 0}],
  ///     "links":      [{"from": 1, "to": 0, "start_s": 0.0, "end_s": 1.0,
  ///                     "drop_prob": 0.1, "dup_prob": 0.05,
  ///                     "delay_s": 1e-3}],
  ///     "stragglers": [{"rank": 1, "start_s": 0.2, "end_s": 0.4,
  ///                     "slowdown": 3.0}],
  ///     "dkv_stalls": [{"shard": 0, "start_s": 0.1, "end_s": 0.3,
  ///                     "stall_s": 2e-3}]
  ///   }
  static FaultPlan from_json(std::string_view text);
  static FaultPlan from_file(const std::string& path);
};

}  // namespace scd::fault
