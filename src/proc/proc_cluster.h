// Multi-process cluster: the wall-clock implementation of the
// comm::Cluster seam — the same rank functions the simulator runs, on
// real forked processes.
//
// Construction wires everything that must exist before fork: the
// ProcTransport socket mesh, and (via make_store, which must also be
// called pre-run) the ProcDkv shared-memory row region that every rank
// maps. run() then forks one child per *worker* rank and executes rank
// 0 — the master — in the launcher process itself, so master-side
// results (history, snapshots) land in the caller's address space with
// no extra shipping. Each child attaches the transport to its rank,
// runs the rank function under a ProcContext, reports a status blob
// (exit code, message, final wall clock, per-phase stats) over a
// dedicated pipe, and _exits without running the parent's teardown.
//
// ProcContext implements the wall-clock accounting regime: now() is
// real elapsed seconds, advance()/advance_to() are no-ops, and
// charge(p, modeled) IGNORES the modeled value — it books the wall time
// elapsed since the previous booking point, so the sampler's modeled
// charges double as attribution markers and stats() ends up with a
// measured per-phase breakdown comparable to the simulator's virtual
// one (bench_proc does exactly that comparison).
//
// Failure discipline: every exit path reaps every child. A child whose
// rank function throws marks its rank dead (closing its sockets, so
// peers unblock on EOF instead of a timeout) and reports the error in
// its status blob; the parent turns any non-zero status, abnormal exit,
// or unreadable status pipe into an exception after SIGKILLing and
// waitpid()ing whatever is still running. No zombies, no orphans — the
// lifecycle tests audit this with waitpid(-1).
#pragma once

#include <sys/types.h>

#include <functional>
#include <memory>
#include <vector>

#include "comm/cluster.h"
#include "comm/context.h"
#include "proc/proc_dkv.h"
#include "proc/proc_transport.h"

namespace scd::proc {

class ProcCluster final : public comm::Cluster {
 public:
  struct Config {
    unsigned num_ranks = 2;
    /// Wall-clock receive deadline for transport channels and the
    /// workers' status pipes.
    double recv_timeout_s = 120.0;
    /// Attribution-only models: ProcContext::charge_* call sites pass
    /// modeled times through these, but the booked values are measured.
    comm::NetworkModel network{};
    comm::ComputeModel compute{};
  };

  explicit ProcCluster(const Config& config);

  unsigned num_ranks() const override { return config_.num_ranks; }
  bool simulated() const override { return false; }
  const Config& config() const { return config_; }

  /// Fork the workers, run `fn` on every rank (rank 0 in this process),
  /// reap everything. One-shot. Throws if any rank failed.
  void run(const std::function<void(comm::Context&)>& fn) override;

  /// Wall-clock seconds of the slowest rank, after run().
  double max_clock() const override { return max_clock_; }
  const comm::PhaseStats& stats(unsigned rank) const override {
    return stats_[rank];
  }
  comm::PhaseStats max_stats() const override;

  ProcTransport& transport() override { return transport_; }
  const comm::NetworkModel& network() const override {
    return config_.network;
  }
  const comm::ComputeModel& compute_model() const override {
    return config_.compute;
  }

  /// Build the ProcDkv (pre-run only; exactly one per cluster; phantom
  /// stores are simulator-only).
  std::unique_ptr<dkv::ShardedDkv> make_store(
      const comm::StoreConfig& config) override;

  /// Accepted for plan bookkeeping (the sampler installs its injector
  /// everywhere); the process backend prices nothing through hooks.
  void install_fault_hooks(comm::FaultHooks* hooks) override {
    fault_ = hooks;
  }
  comm::FaultHooks* fault_hooks() const { return fault_; }
  /// Tracing samples virtual clocks; only nullptr (clearing) is allowed.
  void install_trace(trace::TraceRecorder* recorder) override;

  /// After fork (during run): the pid of `rank`'s process, 0 for the
  /// master rank. The lifecycle tests SIGKILL through this.
  pid_t worker_pid(unsigned rank) const { return pids_[rank]; }

 private:
  Config config_;
  ProcTransport transport_;
  bool made_store_ = false;
  comm::FaultHooks* fault_ = nullptr;
  bool ran_ = false;

  std::vector<pid_t> pids_;
  std::vector<comm::PhaseStats> stats_;
  double max_clock_ = 0.0;
};

}  // namespace scd::proc
