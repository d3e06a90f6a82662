// Serving-layer throughput/latency bench with a mid-load snapshot swap.
//
// Builds a ServingIndex over a planted synthetic model (N = 20k, K = 256
// — big enough that a link query does real O(K) kernel work, small
// enough to build in well under a second) and drives the Zipf-skewed
// traffic generator through five arms: each query kind in isolation, the
// serving mix, and the serving mix with four snapshot refreshes
// published mid-load. The refresh arm is the headline: every refresh
// round-trips the checkpoint through the fp32 byte transport and
// republishes, and the bench asserts (a) all four refreshes completed
// under sustained load, (b) NO reader ever stalled (the lock-free swap
// contract), and (c) the result checksum is bit-identical to the
// refresh-free mix — the rebuilt index answers exactly like the original.
//
// Determinism split for the drift guard: the `traffic` table (op counts,
// refreshes, reader stalls, checksums, index shape) is bit-reproducible
// and pinned tight by tools/check_bench.py; the `latency` table (qps,
// percentiles, build time) is wall-clock and carries loose per-metric
// tolerance overrides — its committed values document magnitude, not a
// regression gate. One arm's 40 000 ops take a few milliseconds, so a
// single pass mostly times thread wake-up: every arm runs kReps times,
// the arms interleaved, each pass must repeat the arm's counts and
// checksum, and the latency table holds the per-arm medians. Their
// interquartile ranges, retry counts and max latency are timing-raced,
// so they go to stdout only, never into the baseline JSON.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "core/checkpoint.h"
#include "serve/query_engine.h"
#include "serve/serving_index.h"
#include "serve/traffic.h"
#include "threading/thread_pool.h"

using namespace scd;

namespace {

constexpr std::uint32_t kVertices = 20'000;
constexpr std::uint32_t kCommunities = 256;
constexpr std::uint32_t kTopR = 16;
constexpr std::uint64_t kOpsPerArm = 40'000;
constexpr unsigned kThreads = 4;
constexpr unsigned kRefreshes = 4;
constexpr int kReps = 21;

/// Planted model state, built directly (no training run): each vertex
/// holds two strong memberships above the auto threshold and a flat tail
/// below it, so top lists, link kernels and inverted lists all do
/// representative work. Fully deterministic — no RNG.
core::Checkpoint planted_checkpoint() {
  core::Checkpoint c;
  c.iteration = 12'345;
  c.hyper.num_communities = kCommunities;
  c.hyper.delta = 1e-3;
  c.pi = core::PiMatrix(kVertices, kCommunities);
  for (std::uint32_t v = 0; v < kVertices; ++v) {
    auto row = c.pi.row(v);
    const std::uint32_t c1 = v % kCommunities;
    const std::uint32_t c2 = (v * 7 + 3) % kCommunities;
    const float tail = (1.0f - 0.6f) / float(kCommunities - 2);
    for (std::uint32_t k = 0; k < kCommunities; ++k) row[k] = tail;
    row[c1] = 0.35f;
    row[c2] = c2 == c1 ? 0.35f : 0.25f;
    row[kCommunities] = 18.0f + float(v % 13);  // phi_sum
  }
  c.global = core::GlobalState(kCommunities);
  for (std::uint32_t k = 0; k < kCommunities; ++k) {
    c.global.set_theta(k, 0, 9.0 + 0.01 * k);
    c.global.set_theta(k, 1, 1.0 + 0.02 * (k % 17));
  }
  c.global.update_beta_from_theta();
  return c;
}

struct Arm {
  std::string name;
  double mix_top;
  double mix_link;
  double mix_members;
  unsigned refreshes;
};

/// The q-quantile of `values`, nearest rank below.
double quantile(std::vector<double> values, double q) {
  std::sort(values.begin(), values.end());
  return values[static_cast<std::size_t>(q * double(values.size() - 1))];
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchIo io;
  if (!io.parse(argc, argv, "bench_serve",
                "serving-layer qps/latency with mid-load snapshot swap")) {
    return 0;
  }

  // Builds the index, then runs every traffic repeat: one set of query
  // workers for all of them.
  threading::ThreadPool pool(kThreads);
  serve::ServingIndexOptions index_options;
  index_options.top_r = kTopR;
  serve::ServingSnapshots snapshots;
  const auto build_begin = std::chrono::steady_clock::now();
  snapshots.publish(serve::build_serving_index(planted_checkpoint(),
                                               index_options, pool));
  const double build_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - build_begin)
          .count();

  Table index_table({"metric", "value"});
  {
    const serve::ServingSnapshots::Ref index = snapshots.acquire();
    index_table.add_row({std::string("vertices"),
                         double(index->num_vertices())});
    index_table.add_row({std::string("communities"),
                         double(index->num_communities())});
    index_table.add_row({std::string("top_r"), double(index->top_r())});
    index_table.add_row({std::string("inverted_entries"),
                         double(index->inverted_entries())});
    index_table.add_row({std::string("index_mb"),
                         double(index->index_bytes()) / (1024.0 * 1024.0)});
    // Two strong memberships per vertex clear the threshold, no more.
    SCD_REQUIRE(index->inverted_entries() == 2 * std::uint64_t{kVertices},
                "planted model must yield exactly 2 members per vertex");
  }
  io.emit(index_table, "index", "serving index (N=20k, K=256, R=16)");

  const Arm arms[] = {
      {"top_only", 1.0, 0.0, 0.0, 0},
      {"link_only", 0.0, 1.0, 0.0, 0},
      {"members_only", 0.0, 0.0, 1.0, 0},
      {"mixed", 0.70, 0.25, 0.05, 0},
      {"mixed_refresh", 0.70, 0.25, 0.05, kRefreshes},
  };

  constexpr std::size_t kArms = std::size(arms);
  std::vector<serve::TrafficReport> first(kArms);
  std::vector<std::vector<double>> qps(kArms), p50(kArms), p95(kArms),
      p99(kArms);
  std::vector<std::uint64_t> retries(kArms, 0);
  std::vector<double> max_us(kArms, 0.0);
  for (int rep = 0; rep < kReps; ++rep) {
    for (std::size_t a = 0; a < kArms; ++a) {
      const Arm& arm = arms[a];
      serve::TrafficOptions options;
      options.ops = kOpsPerArm;
      options.threads = kThreads;
      options.mix_top = arm.mix_top;
      options.mix_link = arm.mix_link;
      options.mix_members = arm.mix_members;
      options.refreshes = arm.refreshes;
      options.refresh_codec = quant::RowCodec::kFloat32;
      options.seed = 99;
      const serve::TrafficReport r =
          serve::run_traffic(snapshots, options, pool);

      SCD_REQUIRE(r.ops_top + r.ops_link + r.ops_members == r.ops,
                  "every op must be accounted to a kind");
      SCD_REQUIRE(r.refreshes == arm.refreshes,
                  "every requested refresh must complete under load");
      SCD_REQUIRE(r.reader_stalls == 0,
                  "the snapshot swap must never stall a reader");
      if (rep == 0) {
        first[a] = r;
      } else {
        SCD_REQUIRE(r.ops_top == first[a].ops_top &&
                        r.ops_link == first[a].ops_link &&
                        r.ops_members == first[a].ops_members &&
                        r.checksum == first[a].checksum,
                    "a repeated arm must issue and answer the same queries");
      }
      qps[a].push_back(r.qps);
      p50[a].push_back(r.p50_us);
      p95[a].push_back(r.p95_us);
      p99[a].push_back(r.p99_us);
      retries[a] += r.acquire_retries;
      max_us[a] = std::max(max_us[a], r.max_us);
    }
  }

  Table traffic_table({"arm", "ops", "ops_top", "ops_link", "ops_members",
                       "refreshes", "reader_stalls", "checksum"});
  Table latency_table({"arm", "qps", "p50_us", "p95_us", "p99_us",
                       "build_ms"});
  double mixed_checksum = 0.0;
  double refresh_checksum = 0.0;
  for (std::size_t a = 0; a < kArms; ++a) {
    const serve::TrafficReport& r = first[a];
    if (arms[a].name == "mixed") mixed_checksum = r.checksum;
    if (arms[a].name == "mixed_refresh") refresh_checksum = r.checksum;
    traffic_table.add_row({arms[a].name, double(r.ops), double(r.ops_top),
                           double(r.ops_link), double(r.ops_members),
                           double(r.refreshes), double(r.reader_stalls),
                           r.checksum});
    latency_table.add_row({arms[a].name, quantile(qps[a], 0.5),
                           quantile(p50[a], 0.5), quantile(p95[a], 0.5),
                           quantile(p99[a], 0.5), build_ms});
    std::printf("%-14s median [IQR] of %d runs: qps %.3g [%.3g, %.3g]"
                "  p50 %.3fus  p99 %.3fus [%.3f, %.3f]  acquire retries"
                " %llu  max %.1fus\n",
                arms[a].name.c_str(), kReps, quantile(qps[a], 0.5),
                quantile(qps[a], 0.25), quantile(qps[a], 0.75),
                quantile(p50[a], 0.5), quantile(p99[a], 0.5),
                quantile(p99[a], 0.25), quantile(p99[a], 0.75),
                static_cast<unsigned long long>(retries[a]), max_us[a]);
  }

  // The fp32 refresh round-trip rebuilds a bit-identical index, so the
  // same query stream must produce the same answers — swap transparency,
  // asserted to the last bit.
  SCD_REQUIRE(refresh_checksum == mixed_checksum,
              "mid-load refresh must not change served answers");

  io.emit(traffic_table, "traffic",
          "traffic arms (deterministic: counts + checksums)");
  io.emit(latency_table, "latency",
          "traffic arms (wall-clock: throughput + percentiles)");
  return 0;
}
