// Runtime replay of a FaultPlan: the concrete comm::FaultHooks.
//
// All probabilistic decisions (drop/duplicate draws) hash the plan seed
// with the link identity and a per-link message sequence number, so they
// depend only on the message's position in the sender's program order —
// never on real-thread scheduling. Window checks (stragglers, stalls,
// link windows, crashes) compare against virtual clocks, which are
// themselves deterministic. The net effect: one (plan, workload, seed)
// triple always produces the same faulted trajectory.
#pragma once

#include <cstdint>
#include <vector>

#include "comm/fault_hooks.h"
#include "fault/fault_plan.h"

namespace scd::fault {

class FaultInjector final : public comm::FaultHooks {
 public:
  /// Validates the plan against the cluster size (throws on violation).
  FaultInjector(const FaultPlan& plan, unsigned num_ranks);

  comm::SendFaults on_send(unsigned from, unsigned to, double now) override;
  double compute_factor(unsigned rank, double now) const override;
  double shard_stall_s(unsigned shard, double now) const override;
  double retry_backoff_s() const override { return plan_.retry_backoff_s; }

  /// Virtual time at which `rank` fail-stops; +inf when the plan never
  /// kills it at a time trigger (iteration-triggered crashes keep +inf —
  /// they fire through the 4-argument crashed() below).
  double crash_time(unsigned rank) const { return crash_time_[rank]; }
  bool crashed(unsigned rank, double now) const {
    return now >= crash_time_[rank];
  }

  /// Full crash query for the worker's protocol points: a time
  /// trigger that has come due, or an iteration trigger matching this
  /// exact (iteration, point). `now` is in the backend's own time
  /// coordinate; iteration triggers never consult it, which is what
  /// makes crash plans replay identically across backends.
  bool crashed(unsigned rank, double now, std::uint64_t iteration,
               CrashPoint point) const {
    if (crashed(rank, now)) return true;
    for (const CrashEvent& c : plan_.crashes) {
      if (c.rank == rank && c.iteration_triggered() &&
          c.at_iteration == iteration && c.at_point == point) {
        return true;
      }
    }
    return false;
  }
  double heartbeat_timeout_s() const { return plan_.heartbeat_timeout_s; }
  const FaultPlan& plan() const { return plan_; }

 private:
  FaultPlan plan_;
  unsigned num_ranks_;
  std::vector<double> crash_time_;       // per rank, +inf = immortal
  std::vector<std::uint64_t> link_seq_;  // per (from, to) send counter
};

}  // namespace scd::fault
