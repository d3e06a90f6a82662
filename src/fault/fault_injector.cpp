#include "fault/fault_injector.h"

#include <algorithm>
#include <limits>

#include "util/error.h"

namespace scd::fault {

namespace {

/// splitmix64 — the standard 64-bit finalizing mixer; enough entropy for
/// per-message fault draws and fully reproducible.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Uniform double in [0, 1) from (seed, link, seq, salt).
double hash01(std::uint64_t seed, std::uint64_t link, std::uint64_t seq,
              std::uint64_t salt) {
  const std::uint64_t h =
      mix64(mix64(mix64(seed ^ 0x66617565755f6c74ull) + link) + seq * 2 +
            salt);
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

}  // namespace

FaultInjector::FaultInjector(const FaultPlan& plan, unsigned num_ranks)
    : plan_(plan), num_ranks_(num_ranks) {
  SCD_REQUIRE(num_ranks >= 1, "injector needs at least one rank");
  plan_.validate(num_ranks);
  crash_time_.assign(num_ranks, std::numeric_limits<double>::infinity());
  for (const CrashEvent& c : plan_.crashes) {
    if (c.iteration_triggered()) continue;  // fires at a protocol point
    crash_time_[c.rank] = std::min(crash_time_[c.rank], c.time_s);
  }
  link_seq_.assign(std::size_t{num_ranks} * num_ranks, 0);
}

comm::SendFaults FaultInjector::on_send(unsigned from, unsigned to,
                                       double now) {
  comm::SendFaults out;
  SCD_ASSERT(from < num_ranks_ && to < num_ranks_, "rank out of range");
  const std::uint64_t link = std::uint64_t{from} * num_ranks_ + to;
  const std::uint64_t seq = link_seq_[link]++;
  for (const LinkFault& lf : plan_.links) {
    if (lf.from != from || lf.to != to) continue;
    if (now < lf.start_s || now >= lf.end_s) continue;
    if (lf.drop_prob > 0.0) {
      // Draw the geometric run of lost transmissions, one hash per
      // attempt; capped so a pathological plan cannot livelock a send.
      unsigned attempt = 0;
      while (attempt < 16 &&
             hash01(plan_.seed, link, seq, 2 * attempt) < lf.drop_prob) {
        ++attempt;
      }
      out.dropped_attempts = attempt;
    }
    if (lf.dup_prob > 0.0 &&
        hash01(plan_.seed, link, seq, 101) < lf.dup_prob) {
      out.duplicates = 1;
    }
    out.extra_delay_s = lf.delay_s;
    break;  // first matching window governs this link
  }
  return out;
}

double FaultInjector::compute_factor(unsigned rank, double now) const {
  double factor = 1.0;
  for (const StragglerWindow& s : plan_.stragglers) {
    if (s.rank == rank && now >= s.start_s && now < s.end_s) {
      factor *= s.slowdown;
    }
  }
  return factor;
}

double FaultInjector::shard_stall_s(unsigned shard, double now) const {
  double stall = 0.0;
  for (const ShardStall& s : plan_.dkv_stalls) {
    if (s.shard == shard && now >= s.start_s && now < s.end_s) {
      stall += s.stall_s;
    }
  }
  return stall;
}

}  // namespace scd::fault
