#include "proc/proc_cluster.h"

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <string>

#include <sys/wait.h>
#include <unistd.h>

#include "proc/framing.h"
#include "util/error.h"

namespace scd::proc {

namespace {

constexpr std::uint32_t kStatusMagic = 0x53434453;  // "SCDS"

/// Fixed part of the child's end-of-run report; a message of msg_len
/// bytes follows.
struct StatusBlob {
  std::uint32_t magic = kStatusMagic;
  std::uint32_t err = 0;
  double final_now = 0.0;
  double phases[comm::kNumPhases] = {};
  std::uint32_t msg_len = 0;
};

void close_quiet(int& fd) {
  if (fd >= 0) {
    ::close(fd);
    fd = -1;
  }
}

double steady_seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Wall-clock per-rank context — see the accounting contract in
/// comm/context.h and the header comment of proc_cluster.h.
class ProcContext final : public comm::Context {
 public:
  ProcContext(unsigned rank, ProcCluster& cluster)
      : rank_(rank),
        cluster_(cluster),
        t0_(std::chrono::steady_clock::now()) {}

  unsigned rank() const override { return rank_; }
  unsigned num_ranks() const override { return cluster_.num_ranks(); }
  bool simulated() const override { return false; }

  ProcTransport& transport() override { return cluster_.transport(); }
  const comm::NetworkModel& network() const override {
    return cluster_.network();
  }
  const comm::ComputeModel& compute() const override {
    return cluster_.compute_model();
  }
  comm::PhaseStats& stats() override { return stats_; }

  double now() const override { return steady_seconds_since(t0_); }
  void advance(double) override {}   // wall time advances itself
  void advance_to(double) override {}

  void book(comm::Phase p, double seconds) override {
    stats_.add(p, seconds);
    // A booking point: whatever wall time the booked interval covered is
    // accounted for — the next charge() attributes only what follows.
    mark_ = now();
  }

  void charge(comm::Phase p, double /*modeled_seconds*/) override {
    const double t = now();
    stats_.add(p, t - mark_);
    mark_ = t;
  }

  void timed_barrier(unsigned channel = 0,
                     unsigned participants = 0) override {
    const double before = now();
    cluster_.transport().barrier(rank_, channel, participants);
    book(comm::Phase::kBarrierWait, now() - before);
  }

  trace::TraceRecorder* trace() const override { return nullptr; }
  comm::TraceSpan trace_span(trace::Stage stage,
                             std::uint64_t iteration = 0) override {
    return comm::TraceSpan(nullptr, rank_, stage, dummy_clock_, iteration);
  }
  using comm::Context::trace_span;

 private:
  unsigned rank_;
  ProcCluster& cluster_;
  std::chrono::steady_clock::time_point t0_;
  double mark_ = 0.0;
  comm::VirtualClock dummy_clock_;  // never advanced; spans are no-ops
  comm::PhaseStats stats_;
};

/// Run `fn` on `rank`, capture any error, and fill the status report.
StatusBlob run_rank(const std::function<void(comm::Context&)>& fn,
                    ProcCluster& cluster, unsigned rank, std::string& msg,
                    comm::PhaseStats* stats_out) {
  ProcContext ctx(rank, cluster);
  StatusBlob blob;
  try {
    fn(ctx);
  } catch (const std::exception& e) {
    blob.err = 1;
    msg = e.what();
  } catch (...) {
    blob.err = 1;
    msg = "unknown exception";
  }
  if (blob.err != 0) {
    // Close our sockets so blocked peers see EOF now, not a timeout.
    cluster.transport().mark_rank_dead(rank);
  }
  blob.final_now = ctx.now();
  for (std::size_t i = 0; i < comm::kNumPhases; ++i) {
    blob.phases[i] = ctx.stats().get(static_cast<comm::Phase>(i));
  }
  blob.msg_len = static_cast<std::uint32_t>(msg.size());
  if (stats_out != nullptr) *stats_out = ctx.stats();
  return blob;
}

}  // namespace

ProcCluster::ProcCluster(const Config& config)
    : config_(config),
      transport_(config.num_ranks, {.recv_timeout_s = config.recv_timeout_s}) {
  SCD_REQUIRE(config.num_ranks >= 2,
              "process cluster needs a master and >= 1 worker");
  pids_.assign(config.num_ranks, 0);
  stats_.resize(config.num_ranks);
}

comm::PhaseStats ProcCluster::max_stats() const {
  comm::PhaseStats out;
  for (const comm::PhaseStats& s : stats_) out.max_with(s);
  return out;
}

std::unique_ptr<dkv::ShardedDkv> ProcCluster::make_store(
    const comm::StoreConfig& config) {
  SCD_REQUIRE(!config.phantom,
              "cost-only (phantom) stores need the simulated backend");
  SCD_REQUIRE(!ran_, "make_store must precede run (the fork inherits it)");
  SCD_REQUIRE(!made_store_, "a ProcCluster builds exactly one store");
  made_store_ = true;
  return std::make_unique<ProcDkv>(config.num_rows, config.row_width,
                                   config_.num_ranks, config.codec,
                                   config.sparse_eps);
}

void ProcCluster::install_trace(trace::TraceRecorder* recorder) {
  SCD_REQUIRE(recorder == nullptr,
              "tracing needs the simulated backend (spans sample virtual "
              "clocks)");
}

void ProcCluster::run(const std::function<void(comm::Context&)>& fn) {
  SCD_REQUIRE(!ran_, "a ProcCluster runs exactly once");
  ran_ = true;
  const unsigned n = config_.num_ranks;

  // Writes to dead peers must surface as EPIPE, not kill the process.
  struct sigaction ignore_pipe{};
  struct sigaction old_pipe{};
  ignore_pipe.sa_handler = SIG_IGN;
  ::sigaction(SIGPIPE, &ignore_pipe, &old_pipe);

  // One status pipe per worker.
  std::vector<int> status_r(n, -1);
  std::vector<int> status_w(n, -1);
  std::vector<double> final_now(n, 0.0);

  auto reap_everything = [&](bool kill_first) {
    for (unsigned r = 1; r < n; ++r) {
      if (pids_[r] <= 0) continue;
      if (kill_first) ::kill(pids_[r], SIGKILL);
      int wstatus = 0;
      while (::waitpid(pids_[r], &wstatus, 0) < 0 && errno == EINTR) {
      }
      pids_[r] = 0;
    }
    for (unsigned r = 1; r < n; ++r) {
      close_quiet(status_r[r]);
      close_quiet(status_w[r]);
    }
    ::sigaction(SIGPIPE, &old_pipe, nullptr);
  };

  try {
    for (unsigned r = 1; r < n; ++r) {
      int p[2];
      SCD_REQUIRE(::pipe(p) == 0, "status pipe creation failed");
      status_r[r] = p[0];
      status_w[r] = p[1];
    }

    // Anything buffered would be flushed once per process otherwise.
    std::fflush(stdout);
    std::fflush(stderr);

    for (unsigned r = 1; r < n; ++r) {
      const pid_t pid = ::fork();
      SCD_REQUIRE(pid >= 0, "fork failed");
      if (pid > 0) {
        pids_[r] = pid;
        // Drop our copy of the write end now: a worker that dies without
        // reporting must surface as EOF on the status pipe, not as a
        // full receive-timeout wait.
        close_quiet(status_w[r]);
        continue;
      }
      // ----- child: rank r ------------------------------------------
      for (unsigned other = 1; other < n; ++other) {
        close_quiet(status_r[other]);
        if (other != r) close_quiet(status_w[other]);
      }
      transport_.attach(r);
      std::string msg;
      const StatusBlob blob = run_rank(fn, *this, r, msg, nullptr);
      if (write_full(status_w[r], &blob, sizeof(blob)) && !msg.empty()) {
        write_full(status_w[r], msg.data(), msg.size());
      }
      close_quiet(status_w[r]);
      std::_Exit(0);
      // ----- end child ----------------------------------------------
    }

    // Parent = rank 0, the master.
    transport_.attach(0);
    std::string master_msg;
    const StatusBlob master_blob =
        run_rank(fn, *this, 0, master_msg, &stats_[0]);
    final_now[0] = master_blob.final_now;
    if (master_blob.err != 0) {
      // The master failed: poison every peer so nothing stays blocked,
      // then fall through to the kill-and-reap path.
      transport_.abort_all();
      throw Error("rank 0 failed: " + master_msg);
    }

    // Collect every worker's status blob, then reap.
    std::string first_failure;
    for (unsigned r = 1; r < n; ++r) {
      StatusBlob blob;
      const IoStatus st = read_full(status_r[r], &blob, sizeof(blob),
                                    config_.recv_timeout_s);
      if (st != IoStatus::kOk || blob.magic != kStatusMagic) {
        if (first_failure.empty()) {
          first_failure =
              "rank " + std::to_string(r) + " exited without a status report";
        }
        ::kill(pids_[r], SIGKILL);
        continue;
      }
      std::string msg(blob.msg_len, '\0');
      if (blob.msg_len > 0) {
        read_full_or_throw(status_r[r], msg.data(), msg.size(),
                           config_.recv_timeout_s, "worker status message");
      }
      final_now[r] = blob.final_now;
      for (std::size_t i = 0; i < comm::kNumPhases; ++i) {
        stats_[r].add(static_cast<comm::Phase>(i), blob.phases[i]);
      }
      if (blob.err != 0 && first_failure.empty()) {
        first_failure = "rank " + std::to_string(r) + " failed: " + msg;
      }
    }
    for (unsigned r = 1; r < n; ++r) {
      int wstatus = 0;
      while (::waitpid(pids_[r], &wstatus, 0) < 0 && errno == EINTR) {
      }
      pids_[r] = 0;
      if (first_failure.empty() &&
          (!WIFEXITED(wstatus) || WEXITSTATUS(wstatus) != 0)) {
        first_failure =
            "rank " + std::to_string(r) + " exited abnormally (status " +
            std::to_string(wstatus) + ")";
      }
    }
    for (unsigned r = 1; r < n; ++r) {
      close_quiet(status_r[r]);
      close_quiet(status_w[r]);
    }
    ::sigaction(SIGPIPE, &old_pipe, nullptr);
    if (!first_failure.empty()) throw DataError(first_failure);

    max_clock_ = 0.0;
    for (unsigned r = 0; r < n; ++r) {
      if (final_now[r] > max_clock_) max_clock_ = final_now[r];
    }
  } catch (...) {
    reap_everything(/*kill_first=*/true);
    throw;
  }
}

}  // namespace scd::proc
