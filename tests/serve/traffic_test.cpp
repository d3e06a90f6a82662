#include "serve/traffic.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/checkpoint.h"
#include "random/xoshiro.h"
#include "tests/util/byte_mutator.h"
#include "threading/thread_pool.h"

namespace scd::serve {
namespace {

core::Checkpoint random_checkpoint(std::uint32_t n, std::uint32_t k,
                                   std::uint64_t seed) {
  core::Checkpoint c;
  c.hyper.num_communities = k;
  c.hyper.delta = 1e-3;
  c.pi = core::PiMatrix(n, k);
  c.pi.init_random(seed);
  c.global = core::GlobalState(k);
  c.global.init_random(seed, c.hyper);
  return c;
}

std::unique_ptr<ServingSnapshots> make_store(std::uint32_t n,
                                             std::uint32_t k,
                                             std::uint64_t seed) {
  threading::ThreadPool pool(2);
  ServingIndexOptions options;
  options.top_r = 8;
  return std::make_unique<ServingSnapshots>(
      build_serving_index(random_checkpoint(n, k, seed), options, pool));
}

TEST(QueryScriptTest, ParsesOpsCommentsAndBlanks) {
  std::istringstream in(
      "# a comment\n"
      "top 3 5\n"
      "\n"
      "  link 1 2\n"
      "members 0 10\n");
  const auto queries = parse_query_script(in);
  ASSERT_EQ(queries.size(), 3u);
  EXPECT_EQ(queries[0].kind, QueryKind::kTop);
  EXPECT_EQ(queries[0].a, 3u);
  EXPECT_EQ(queries[0].b, 5u);
  EXPECT_EQ(queries[1].kind, QueryKind::kLink);
  EXPECT_EQ(queries[2].kind, QueryKind::kMembers);
}

TEST(QueryScriptTest, RejectsUnknownOpNamingLine) {
  std::istringstream in("top 1 2\nfrobnicate 3 4\n");
  try {
    parse_query_script(in);
    FAIL() << "expected DataError";
  } catch (const scd::DataError& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("frobnicate"), std::string::npos);
  }
}

TEST(QueryScriptTest, RejectsMissingOrNegativeOperands) {
  std::istringstream missing("top 1\n");
  EXPECT_THROW(parse_query_script(missing), scd::DataError);
  std::istringstream negative("link -1 2\n");
  EXPECT_THROW(parse_query_script(negative), scd::DataError);
  std::istringstream junk("members 1 x\n");
  EXPECT_THROW(parse_query_script(junk), scd::DataError);
  // Operands wider than 32 bits are refused, not truncated (2^32 + 1
  // would otherwise run as vertex 1).
  std::istringstream wide("link 4294967297 0\n");
  EXPECT_THROW(parse_query_script(wide), scd::DataError);
  std::istringstream widest("top 0 4294967296\n");
  EXPECT_THROW(parse_query_script(widest), scd::DataError);
  std::istringstream max("link 4294967295 0\n");
  EXPECT_EQ(parse_query_script(max).at(0).a, 4294967295u);
  // Nothing but a comment may follow the second operand: the stream
  // would stop at the first non-digit and run a truncated query.
  for (const char* line : {"top 7 0x10", "top 1 2.5", "link 1 2 3",
                           "members 4 5junk"}) {
    std::istringstream trailing(std::string("top 0 1\n") + line + "\n");
    try {
      parse_query_script(trailing);
      ADD_FAILURE() << "accepted '" << line << "'";
    } catch (const scd::DataError& e) {
      EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos)
          << e.what();
    }
  }
}

// The README's example script, trailing comments and column padding
// included, parses to the three queries it describes.
TEST(QueryScriptTest, ParsesReadmeExample) {
  std::istringstream in(
      "top 17 5          # 5 strongest communities of vertex 17\n"
      "link 17 42        # link probability between vertices 17 and 42\n"
      "members 3 10      # 10 strongest members of community 3\n");
  const auto queries = parse_query_script(in);
  ASSERT_EQ(queries.size(), 3u);
  EXPECT_EQ(queries[0].kind, QueryKind::kTop);
  EXPECT_EQ(queries[0].a, 17u);
  EXPECT_EQ(queries[0].b, 5u);
  EXPECT_EQ(queries[1].kind, QueryKind::kLink);
  EXPECT_EQ(queries[1].a, 17u);
  EXPECT_EQ(queries[1].b, 42u);
  EXPECT_EQ(queries[2].kind, QueryKind::kMembers);
  EXPECT_EQ(queries[2].a, 3u);
  EXPECT_EQ(queries[2].b, 10u);
}

TEST(QueryScriptTest, MissingFileRejected) {
  EXPECT_THROW(load_query_script("/no/such/queries.txt"), scd::DataError);
}

// Every byte-level mutant of a script using all three ops either loads
// or is refused with a DataError, never another exception or undefined
// behaviour (the test also runs under ASan). Both outcomes occur often,
// so the mutants reach the accept paths as well as each refusal.
TEST(TrafficTest, MutatedScriptsParseOrThrowDataError) {
  const std::string script =
      "# warm-up mix\n"
      "top 17 5          # 5 strongest communities of vertex 17\n"
      "link 17 42\n"
      "\n"
      "members 3 10      # 10 strongest members of community 3\n"
      "  top 4294967295 1\n"
      "link 0 0 #\n";
  ASSERT_EQ([&] {
    std::istringstream in(script);
    return parse_query_script(in).size();
  }(), 5u);
  rng::Xoshiro256 rng(3401);
  int parsed = 0;
  int refused = 0;
  for (int i = 0; i < 4000; ++i) {
    const std::string mutant = scd::testing::mutate_bytes(rng, script);
    std::istringstream in(mutant);
    try {
      (void)parse_query_script(in);
      ++parsed;
    } catch (const DataError&) {
      ++refused;
    } catch (const std::exception& e) {
      FAIL() << "mutant " << i << " threw " << e.what() << ":\n" << mutant;
    }
  }
  EXPECT_GT(parsed, 100) << refused;
  EXPECT_GT(refused, 100) << parsed;
}

TEST(ZipfSamplerTest, SkewsTowardLowRanks) {
  ZipfSampler zipf(1000, 1.2);
  rng::Xoshiro256 rng(42);
  std::uint32_t head = 0;
  const int draws = 20'000;
  for (int i = 0; i < draws; ++i) {
    if (zipf(rng) < 10) ++head;
  }
  // Under Zipf(1.2) the top-10 ranks carry far more than their uniform
  // 1% share; require a conservative 30%.
  EXPECT_GT(head, draws * 30 / 100);
}

TEST(ZipfSamplerTest, ZeroExponentIsUniformish) {
  ZipfSampler zipf(100, 0.0);
  rng::Xoshiro256 rng(7);
  std::uint32_t head = 0;
  const int draws = 20'000;
  for (int i = 0; i < draws; ++i) {
    if (zipf(rng) < 10) ++head;
  }
  // ~10% expected; allow wide slack.
  EXPECT_GT(head, draws * 5 / 100);
  EXPECT_LT(head, draws * 15 / 100);
}

// The guide-table lookup is an exact inverse CDF: at every probe point
// it returns the rank a binary search over the same CDF gives, including
// u = 0, both sides of every CDF value (where the bucket edges round),
// the largest draw below 1, and a large n whose buckets are narrower than
// the CDF steps.
TEST(ZipfSamplerTest, GuideTableMatchesBinarySearch) {
  struct Case {
    std::uint32_t n;
    double s;
  };
  for (const Case c : {Case{1, 0.99}, Case{2, 0.0}, Case{100, 0.0},
                       Case{1000, 1.2}, Case{20000, 0.99},
                       Case{1u << 20, 0.99}}) {
    SCOPED_TRACE("n=" + std::to_string(c.n) + " s=" + std::to_string(c.s));
    const ZipfSampler zipf(c.n, c.s);
    const std::vector<double>& cdf = zipf.cdf();
    ASSERT_EQ(cdf.size(), c.n);
    ASSERT_EQ(cdf.back(), 1.0);
    const auto expected = [&](double u) {
      const auto it = std::upper_bound(cdf.begin(), cdf.end(), u);
      return static_cast<std::uint32_t>(std::min<std::ptrdiff_t>(
          it - cdf.begin(), static_cast<std::ptrdiff_t>(c.n) - 1));
    };
    std::uint64_t mismatches = 0;
    const auto probe = [&](double u) {
      if (!(u >= 0.0 && u < 1.0)) return;
      if (zipf.rank(u) != expected(u) && ++mismatches <= 5) {
        ADD_FAILURE() << "u=" << u << " rank " << zipf.rank(u)
                      << " != " << expected(u);
      }
    };
    probe(0.0);
    probe(std::nextafter(1.0, 0.0));  // 1 - 2^-53, the largest draw
    for (const double at : cdf) {
      probe(std::nextafter(at, 0.0));
      probe(at);
      probe(std::nextafter(at, 1.0));
    }
    rng::Xoshiro256 rng(c.n);
    for (int i = 0; i < 1'000'000; ++i) probe(rng.next_double());
    EXPECT_EQ(mismatches, 0u);
  }
}

TEST(LatencyPercentilesTest, EmptyIsZero) {
  std::vector<std::uint64_t> none;
  const LatencyPercentiles p = latency_percentiles(none);
  EXPECT_EQ(p.p50_us, 0.0);
  EXPECT_EQ(p.max_us, 0.0);
}

// The chained selection reports exactly the order statistics a full
// sort gives, on tiny inputs and on a chunk-sized one, with latencies
// drawn from a narrow range so most values repeat.
TEST(LatencyPercentilesTest, MatchesSortOracle) {
  rng::Xoshiro256 rng(3);
  for (const std::size_t size : {std::size_t{1}, std::size_t{2},
                                 std::size_t{101}, std::size_t{500'000}}) {
    for (const std::uint64_t range : {std::uint64_t{3}, std::uint64_t{200},
                                      std::uint64_t{1} << 40}) {
      SCOPED_TRACE("size=" + std::to_string(size) +
                   " range=" + std::to_string(range));
      std::vector<std::uint64_t> ns(size);
      for (auto& v : ns) v = 100 + rng.next_below(range);
      std::vector<std::uint64_t> sorted = ns;
      std::sort(sorted.begin(), sorted.end());
      const auto at = [&](double q) {
        const auto rank = static_cast<std::size_t>(
            q * static_cast<double>(size - 1));
        return static_cast<double>(sorted[rank]) * 1e-3;
      };
      const LatencyPercentiles p = latency_percentiles(ns);
      EXPECT_EQ(p.p50_us, at(0.50));
      EXPECT_EQ(p.p95_us, at(0.95));
      EXPECT_EQ(p.p99_us, at(0.99));
      EXPECT_EQ(p.max_us, static_cast<double>(sorted.back()) * 1e-3);
    }
  }
}

TEST(RunTrafficTest, RequiresPublishedSnapshot) {
  ServingSnapshots empty;
  TrafficOptions options;
  options.ops = 10;
  EXPECT_THROW(run_traffic(empty, options), scd::UsageError);
}

TEST(RunTrafficTest, DeterministicChecksumAndCounts) {
  auto store = make_store(200, 8, 3);
  TrafficOptions options;
  options.ops = 4000;
  options.threads = 2;
  options.seed = 9;
  const TrafficReport a = run_traffic(*store, options);
  const TrafficReport b = run_traffic(*store, options);
  EXPECT_EQ(a.ops, 4000u);
  EXPECT_EQ(a.ops_top + a.ops_link + a.ops_members, a.ops);
  EXPECT_EQ(a.checksum, b.checksum);
  EXPECT_EQ(a.ops_top, b.ops_top);
  EXPECT_EQ(a.ops_link, b.ops_link);
  EXPECT_EQ(a.ops_members, b.ops_members);
  EXPECT_GT(a.qps, 0.0);
  EXPECT_GE(a.p95_us, a.p50_us);
  EXPECT_GE(a.p99_us, a.p95_us);
}

// A caller-owned pool drives the same queries as the pool run_traffic
// builds for itself, across repeated calls on the one pool; a pool of
// another size is refused.
TEST(RunTrafficTest, CallerPoolMatchesOwnPool) {
  auto store = make_store(200, 8, 3);
  TrafficOptions options;
  options.ops = 4000;
  options.threads = 3;
  options.seed = 9;
  options.refreshes = 1;
  const TrafficReport own = run_traffic(*store, options);
  threading::ThreadPool pool(3);
  for (int rep = 0; rep < 3; ++rep) {
    const TrafficReport shared = run_traffic(*store, options, pool);
    EXPECT_EQ(shared.checksum, own.checksum);
    EXPECT_EQ(shared.ops_top, own.ops_top);
    EXPECT_EQ(shared.ops_link, own.ops_link);
    EXPECT_EQ(shared.ops_members, own.ops_members);
    EXPECT_EQ(shared.refreshes, 1u);
  }
  threading::ThreadPool other(2);
  EXPECT_THROW(run_traffic(*store, options, other), scd::UsageError);
}

// The query stream is pinned, not only repeatable: a change to which
// queries a seed issues (the Zipf draw, the mix split, the per-worker RNG
// streams) fails here, not only against the bench baseline.
TEST(RunTrafficTest, PinnedStreamChecksumAndCounts) {
  auto store = make_store(5000, 16, 11);
  TrafficOptions options;
  options.ops = 20'000;
  options.threads = 3;
  options.seed = 17;
  options.mix_top = 0.5;
  options.mix_link = 0.4;
  options.mix_members = 0.1;
  const TrafficReport r = run_traffic(*store, options);
  EXPECT_EQ(r.ops_top, 9914u);
  EXPECT_EQ(r.ops_link, 8083u);
  EXPECT_EQ(r.ops_members, 2003u);
  EXPECT_EQ(r.checksum, 28799142.186006896);
}

TEST(RunTrafficTest, SeedChangesTheStream) {
  auto store = make_store(200, 8, 3);
  TrafficOptions options;
  options.ops = 2000;
  options.threads = 2;
  options.seed = 1;
  const TrafficReport a = run_traffic(*store, options);
  options.seed = 2;
  const TrafficReport b = run_traffic(*store, options);
  EXPECT_NE(a.checksum, b.checksum);
}

// The refresh arm's contract: every requested refresh completes (the
// count is deterministic, not timing-dependent), no reader ever stalls,
// and with the exact fp32 codec the rebuilt index answers identically —
// so the checksum matches a read-only run of the same seed.
TEST(RunTrafficTest, RefreshesCompleteAndPreserveChecksum) {
  auto store = make_store(200, 8, 3);
  TrafficOptions options;
  options.ops = 6000;
  options.threads = 2;
  options.seed = 5;
  const TrafficReport steady = run_traffic(*store, options);

  options.refreshes = 3;
  options.refresh_codec = quant::RowCodec::kFloat32;
  const std::uint64_t epoch_before = store->epoch();
  const TrafficReport refreshed = run_traffic(*store, options);
  EXPECT_EQ(refreshed.refreshes, 3u);
  EXPECT_EQ(refreshed.end_epoch, epoch_before + 3);
  EXPECT_EQ(refreshed.reader_stalls, 0u);
  EXPECT_EQ(refreshed.checksum, steady.checksum);
}

// A lossy refresh codec still completes and keeps serving coherent
// answers — only the checksum may drift (quantized rows).
TEST(RunTrafficTest, LossyRefreshCodecServes) {
  auto store = make_store(150, 8, 4);
  TrafficOptions options;
  options.ops = 3000;
  options.threads = 2;
  options.refreshes = 2;
  options.refresh_codec = quant::RowCodec::kInt8;
  const TrafficReport report = run_traffic(*store, options);
  EXPECT_EQ(report.refreshes, 2u);
  EXPECT_EQ(report.reader_stalls, 0u);
  EXPECT_EQ(report.ops, 3000u);
}

}  // namespace
}  // namespace scd::serve
