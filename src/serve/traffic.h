// Synthetic heavy-traffic driver and scripted queries for the serving
// layer.
//
// run_traffic spins worker threads that fire a seeded, Zipf-skewed query
// stream at a QueryEngine (real social traffic concentrates on popular
// nodes, so uniform sampling would flatter the cache behavior), measures
// per-query wall latency, and optionally refreshes the model snapshot
// mid-load: a refresher thread round-trips the current checkpoint through
// core::checkpoint_to_bytes / checkpoint_from_bytes — the same transport
// the fault-tolerant trainer uses for rollback snapshots — rebuilds the
// index, and publishes it while queries keep flowing.
//
// Everything result-shaped is deterministic: each worker owns a derived
// RNG stream, so the set of queries issued (and the per-worker result
// checksum) depends only on (seed, thread count, ops), never on timing.
// With an exact refresh codec the rebuilt index is bit-identical, so the
// checksum is refresh-invariant too — the serve bench asserts both.
// Timing numbers (qps, percentiles) are the only wall-clock outputs.
#pragma once

#include <algorithm>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "quant/row_codec.h"
#include "serve/query_engine.h"
#include "threading/thread_pool.h"

namespace scd::serve {

enum class QueryKind : std::uint8_t { kTop = 0, kLink = 1, kMembers = 2 };

/// One line of a query script: `top <u> <k>`, `link <u> <v>` or
/// `members <c> <k>` (blank lines and `#` comments skipped).
struct ScriptedQuery {
  QueryKind kind = QueryKind::kTop;
  std::uint32_t a = 0;
  std::uint32_t b = 0;
};

/// Parse a query script; throws scd::DataError naming the bad line.
std::vector<ScriptedQuery> parse_query_script(std::istream& in);
std::vector<ScriptedQuery> load_query_script(const std::string& path);

struct TrafficOptions {
  std::uint64_t ops = 100'000;  ///< total queries across all workers
  unsigned threads = 4;         ///< query worker threads
  /// Zipf exponent of node popularity (0 = uniform). Both endpoints of
  /// link queries and the subject of top queries are popularity-skewed;
  /// community ids are uniform.
  double zipf_s = 0.99;
  /// Query mix (normalized internally; all-zero is an error).
  double mix_top = 0.70;
  double mix_link = 0.25;
  double mix_members = 0.05;
  std::uint32_t top_k = 8;      ///< k of top-community queries
  std::uint32_t members_k = 16; ///< k of member queries
  std::uint64_t seed = 1;
  /// Snapshot refreshes to publish while the load runs, spread evenly
  /// over op progress (0 = read-only load). Every refresh completes even
  /// if the workers finish first, so the count is deterministic.
  unsigned refreshes = 0;
  /// Codec of the checkpoint round-trip a refresh performs. kFloat32
  /// reproduces the index exactly (checksum-invariant); lossy codecs
  /// exercise the quantized snapshot wire format.
  quant::RowCodec refresh_codec = quant::RowCodec::kFloat32;
  float sparse_eps = quant::kDefaultSparseEps;
  /// Threads of the private pool a refresh builds its index on.
  unsigned refresh_build_threads = 2;
};

struct TrafficReport {
  std::uint64_t ops = 0;
  std::uint64_t ops_top = 0;
  std::uint64_t ops_link = 0;
  std::uint64_t ops_members = 0;
  double wall_s = 0.0;
  double qps = 0.0;
  // Per-query wall latency percentiles (microseconds) over all workers.
  double p50_us = 0.0;
  double p95_us = 0.0;
  double p99_us = 0.0;
  double max_us = 0.0;
  /// Order-fixed sum of per-worker result digests; identical across runs
  /// with the same seed/threads/ops against the same model.
  double checksum = 0.0;
  std::uint64_t refreshes = 0;      ///< snapshot publishes completed
  std::uint64_t acquire_retries = 0;  ///< reader/publish races (bounded)
  std::uint64_t reader_stalls = 0;  ///< acquires past the stall threshold
  std::uint64_t start_epoch = 0;
  std::uint64_t end_epoch = 0;
};

/// Drive `options.ops` queries at the snapshot store and return the
/// report. `snapshots` must hold a published index. The query workers
/// are a pool of options.threads built for the call (one worker runs on
/// the calling thread and spawns none).
TrafficReport run_traffic(ServingSnapshots& snapshots,
                          const TrafficOptions& options);

/// The same load on `pool`, whose thread count must be options.threads:
/// a caller that drives many loads reuses one set of workers instead of
/// spawning a set per call.
TrafficReport run_traffic(ServingSnapshots& snapshots,
                          const TrafficOptions& options,
                          threading::ThreadPool& pool);

/// p50/p95/p99/max of per-query latencies, in microseconds. Each
/// percentile q is the order statistic of rank floor(q * (n - 1)); all
/// zero for no samples.
struct LatencyPercentiles {
  double p50_us = 0.0;
  double p95_us = 0.0;
  double p99_us = 0.0;
  double max_us = 0.0;
};

/// Percentiles of nanosecond latencies. Reorders `ns`: each selection
/// runs only over the part above the previous rank.
LatencyPercentiles latency_percentiles(std::vector<std::uint64_t>& ns);

/// Zipf(s) sampler over [0, n): rank r drawn with probability
/// proportional to 1/(r+1)^s by exact inverse-CDF lookup through a
/// guide table (Chen & Asau 1974). Bucket j of the n buckets holds the
/// rank of the smallest u that lands in it, so a draw is one multiply,
/// one table load and a forward scan of about one CDF entry, and it
/// returns the first r with cdf[r] > u, as a binary search would.
/// Deterministic per engine stream; s = 0 degenerates to uniform.
class ZipfSampler {
 public:
  ZipfSampler(std::uint32_t n, double s);
  std::uint32_t operator()(rng::Xoshiro256& rng) const {
    return rank(rng.next_double());
  }
  /// The rank a uniform u in [0, 1) maps to: the first r with
  /// cdf[r] > u, at most n - 1.
  std::uint32_t rank(double u) const {
    std::uint32_t r = guide_[bucket(u)];
    while (cdf_[r] <= u) ++r;  // cdf_.back() == 1.0 > u stops the scan
    return r;
  }
  /// The normalised CDF the draws invert; back() is exactly 1.
  const std::vector<double>& cdf() const { return cdf_; }

 private:
  /// min(n - 1, floor(u * n)). For u <= 1 - 2^-53 the rounded product
  /// stays below n (it is more than half an ulp short of n), so the min
  /// only guards the table bound; it never changes a bucket.
  std::uint32_t bucket(double u) const {
    return std::min(last_, static_cast<std::uint32_t>(u * scale_));
  }

  std::vector<double> cdf_;
  std::vector<std::uint32_t> guide_;
  double scale_ = 0.0;     ///< n
  std::uint32_t last_ = 0;  ///< n - 1
};

}  // namespace scd::serve
