#include "serve/traffic.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <fstream>
#include <limits>
#include <sstream>
#include <thread>
#include <utility>

#include "core/checkpoint.h"
#include "core/state.h"
#include "util/error.h"

namespace scd::serve {

namespace {

/// Stream label for core::derive_rng — disjoint from the training labels
/// in core::rng_label, so a serving load never replays training noise.
constexpr std::uint64_t kTrafficLabel = 101;

/// Ops between flushes of a worker's progress into the shared counter
/// the refresher watches; keeps the hot loop free of shared-cacheline
/// traffic without delaying refresh triggers meaningfully.
constexpr std::uint64_t kProgressBatch = 256;

}  // namespace

std::vector<ScriptedQuery> parse_query_script(std::istream& in) {
  std::vector<ScriptedQuery> queries;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const auto first = line.find_first_not_of(" \t");
    if (first == std::string::npos || line[first] == '#') continue;
    std::istringstream fields(line);
    std::string op;
    long long a = -1;
    long long b = -1;
    fields >> op >> a >> b;
    ScriptedQuery q;
    if (op == "top") {
      q.kind = QueryKind::kTop;
    } else if (op == "link") {
      q.kind = QueryKind::kLink;
    } else if (op == "members") {
      q.kind = QueryKind::kMembers;
    } else {
      throw DataError("query script line " + std::to_string(line_no) +
                      ": unknown op '" + op +
                      "' (expected top, link or members)");
    }
    constexpr long long kMaxOperand = std::numeric_limits<std::uint32_t>::max();
    if (fields.fail() || a < 0 || b < 0 || a > kMaxOperand ||
        b > kMaxOperand) {
      throw DataError("query script line " + std::to_string(line_no) +
                      ": expected two non-negative 32-bit integers after '" +
                      op + "'");
    }
    // Anything after the second operand but a comment is refused: the
    // stream stops at the first character that is not a digit, so
    // `top 7 0x10` would otherwise run as `top 7 0`.
    std::string rest;
    if (fields >> rest && rest.front() != '#') {
      throw DataError("query script line " + std::to_string(line_no) +
                      ": unexpected '" + rest + "' after the operands of '" +
                      op + "'");
    }
    q.a = static_cast<std::uint32_t>(a);
    q.b = static_cast<std::uint32_t>(b);
    queries.push_back(q);
  }
  return queries;
}

std::vector<ScriptedQuery> load_query_script(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw DataError("cannot open query script '" + path + "'");
  return parse_query_script(in);
}

LatencyPercentiles latency_percentiles(std::vector<std::uint64_t>& ns) {
  LatencyPercentiles out;
  if (ns.empty()) return out;
  // Select the ranks in ascending order, each over the part at or above
  // the previous one: after nth_element puts rank r in place, [r, end)
  // holds exactly the order statistics r..n-1, so rank r' >= r is found
  // there with the same value a full pass would give.
  auto lo = ns.begin();
  const auto select = [&](double q) {
    const auto rank = static_cast<std::ptrdiff_t>(
        q * static_cast<double>(ns.size() - 1));
    std::nth_element(lo, ns.begin() + rank, ns.end());
    lo = ns.begin() + rank;
    return static_cast<double>(*lo) * 1e-3;  // ns -> us
  };
  out.p50_us = select(0.50);
  out.p95_us = select(0.95);
  out.p99_us = select(0.99);
  out.max_us = static_cast<double>(*std::max_element(lo, ns.end())) * 1e-3;
  return out;
}

ZipfSampler::ZipfSampler(std::uint32_t n, double s) {
  SCD_REQUIRE(n >= 1, "Zipf sampler needs a non-empty domain");
  SCD_REQUIRE(s >= 0.0, "Zipf exponent must be >= 0");
  cdf_.resize(n);
  double total = 0.0;
  for (std::uint32_t r = 0; r < n; ++r) {
    total += std::pow(static_cast<double>(r) + 1.0, -s);
    cdf_[r] = total;
  }
  for (double& c : cdf_) c /= total;
  cdf_.back() = 1.0;

  // guide_[j] is the rank of the smallest double u with bucket(u) == j,
  // found by stepping from j / n to the exact edge (the product u * n
  // rounds, so the edge may sit an ulp or two off j / n). rank() is
  // non-decreasing in u, so no u in bucket j maps below guide_[j], and
  // the edges rise with j, so one forward walk over the CDF fills all n.
  scale_ = static_cast<double>(n);
  last_ = n - 1;
  guide_.resize(n);
  std::uint32_t r = 0;
  for (std::uint32_t j = 0; j < n; ++j) {
    double edge = static_cast<double>(j) / scale_;
    while (edge > 0.0 && bucket(std::nextafter(edge, 0.0)) >= j) {
      edge = std::nextafter(edge, 0.0);
    }
    while (bucket(edge) < j) edge = std::nextafter(edge, 1.0);
    while (cdf_[r] <= edge) ++r;
    guide_[j] = r;
  }
}

TrafficReport run_traffic(ServingSnapshots& snapshots,
                          const TrafficOptions& options) {
  SCD_REQUIRE(options.threads >= 1, "traffic needs at least one worker");
  threading::ThreadPool pool(options.threads);
  return run_traffic(snapshots, options, pool);
}

TrafficReport run_traffic(ServingSnapshots& snapshots,
                          const TrafficOptions& options,
                          threading::ThreadPool& pool) {
  SCD_REQUIRE(options.ops >= 1, "traffic needs at least one op");
  SCD_REQUIRE(options.threads >= 1, "traffic needs at least one worker");
  SCD_REQUIRE(pool.num_threads() == options.threads,
              "traffic pool must have options.threads workers");
  const double mix_total =
      options.mix_top + options.mix_link + options.mix_members;
  SCD_REQUIRE(options.mix_top >= 0.0 && options.mix_link >= 0.0 &&
                  options.mix_members >= 0.0 && mix_total > 0.0,
              "query mix must be non-negative and not all zero");

  QueryEngine engine(snapshots);
  std::uint32_t num_vertices = 0;
  std::uint32_t num_communities = 0;
  {
    const ServingSnapshots::Ref index = snapshots.acquire();
    SCD_REQUIRE(static_cast<bool>(index),
                "run_traffic needs a published snapshot");
    num_vertices = index->num_vertices();
    num_communities = index->num_communities();
  }

  const ZipfSampler zipf(num_vertices, options.zipf_s);
  const double t_top = options.mix_top / mix_total;
  const double t_link = t_top + options.mix_link / mix_total;

  TrafficReport report;
  report.start_epoch = snapshots.epoch();
  const std::uint64_t retries_before = snapshots.acquire_retries();
  const std::uint64_t stalls_before = snapshots.stalled_acquires();

  const unsigned threads = options.threads;
  std::vector<std::vector<std::uint64_t>> latencies(threads);
  // Per-worker results, each stored once after the worker's loop so
  // adjacent slots never share a cache line while queries run. That
  // includes the latency vectors, whose headers sit side by side.
  std::vector<double> digests(threads, 0.0);
  std::vector<std::array<std::uint64_t, 3>> kind_counts(threads);
  std::atomic<std::uint64_t> progress{0};

  // Mid-load refresher: at each op-progress milestone, round-trip the
  // live checkpoint through the snapshot byte transport, rebuild the
  // index on a private pool, and publish. Readers are never blocked; the
  // old index is retired once the last in-flight query drops its guard.
  std::atomic<std::uint64_t> refreshes_done{0};
  std::thread refresher;
  if (options.refreshes > 0) {
    refresher = std::thread([&] {
      threading::ThreadPool build_pool(options.refresh_build_threads);
      for (unsigned i = 1; i <= options.refreshes; ++i) {
        const std::uint64_t target =
            options.ops * i / (options.refreshes + 1);
        while (progress.load(std::memory_order_relaxed) < target) {
          std::this_thread::yield();
        }
        std::string bytes;
        ServingIndexOptions rebuild;
        {
          const ServingSnapshots::Ref index = snapshots.acquire();
          bytes = core::checkpoint_to_bytes(index->checkpoint(),
                                            options.refresh_codec,
                                            options.sparse_eps);
          rebuild.top_r = index->top_r();
          rebuild.membership_threshold = index->membership_threshold();
        }
        snapshots.publish(build_serving_index(
            core::checkpoint_from_bytes(bytes), rebuild, build_pool));
        refreshes_done.fetch_add(1);
      }
    });
  }

  const auto wall_begin = std::chrono::steady_clock::now();
  pool.parallel_for(0, options.ops, [&](unsigned t, std::uint64_t lo,
                                        std::uint64_t hi) {
    rng::Xoshiro256 rng = core::derive_rng(options.seed, kTrafficLabel, t);
    std::vector<std::uint64_t> lat;
    lat.reserve(hi - lo);
    std::vector<TopEntry> top_out(options.top_k);
    std::vector<MemberEntry> member_out(options.members_k);
    double digest = 0.0;
    std::array<std::uint64_t, 3> kinds{0, 0, 0};
    std::uint64_t unflushed = 0;
    for (std::uint64_t op = lo; op < hi; ++op) {
      const double pick = rng.next_double();
      const auto begin = std::chrono::steady_clock::now();
      if (pick < t_top) {
        const std::uint32_t u = zipf(rng);
        const std::uint32_t got = engine.top_communities(u, top_out);
        for (std::uint32_t r = 0; r < got; ++r) {
          digest += (top_out[r].community + 1.0) *
                    static_cast<double>(top_out[r].weight);
        }
        ++kinds[0];
      } else if (pick < t_link) {
        const std::uint32_t u = zipf(rng);
        const std::uint32_t v = zipf(rng);
        digest += engine.link_probability(u, v);
        ++kinds[1];
      } else {
        const std::uint32_t c =
            static_cast<std::uint32_t>(rng.next_below(num_communities));
        const std::uint32_t got = engine.community_members(c, member_out);
        for (std::uint32_t r = 0; r < got; ++r) {
          digest += (member_out[r].vertex + 1.0) *
                    static_cast<double>(member_out[r].weight);
        }
        ++kinds[2];
      }
      const auto end = std::chrono::steady_clock::now();
      lat.push_back(static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(end - begin)
              .count()));
      if (++unflushed == kProgressBatch) {
        progress.fetch_add(unflushed, std::memory_order_relaxed);
        unflushed = 0;
      }
    }
    progress.fetch_add(unflushed, std::memory_order_relaxed);
    latencies[t] = std::move(lat);
    digests[t] = digest;
    kind_counts[t] = kinds;
  });
  const auto wall_end = std::chrono::steady_clock::now();
  if (refresher.joinable()) refresher.join();

  report.ops = options.ops;
  for (unsigned t = 0; t < threads; ++t) {
    report.ops_top += kind_counts[t][0];
    report.ops_link += kind_counts[t][1];
    report.ops_members += kind_counts[t][2];
    report.checksum += digests[t];
  }
  report.wall_s =
      std::chrono::duration<double>(wall_end - wall_begin).count();
  report.qps = report.wall_s > 0.0
                   ? static_cast<double>(report.ops) / report.wall_s
                   : 0.0;

  // Worker 0's vector already holds all of a one-worker call's latencies.
  std::vector<std::uint64_t> all = std::move(latencies[0]);
  all.reserve(options.ops);
  for (unsigned t = 1; t < threads; ++t) {
    all.insert(all.end(), latencies[t].begin(), latencies[t].end());
  }
  const LatencyPercentiles pct = latency_percentiles(all);
  report.p50_us = pct.p50_us;
  report.p95_us = pct.p95_us;
  report.p99_us = pct.p99_us;
  report.max_us = pct.max_us;
  report.refreshes = refreshes_done.load();
  report.acquire_retries = snapshots.acquire_retries() - retries_before;
  report.reader_stalls = snapshots.stalled_acquires() - stalls_before;
  report.end_epoch = snapshots.epoch();
  return report;
}

}  // namespace scd::serve
