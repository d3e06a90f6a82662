// End-to-end properties of tracing the distributed sampler:
//
//   * observer effect: a traced run is bit-identical to an untraced
//     one — same trajectory, same virtual times (the recorder samples
//     clocks, never advances them);
//   * completeness: every clock-advancing region is inside a span, so
//     the critical-path chain tiles [0, total] and its length equals
//     the run's total virtual time;
//   * the exported Chrome trace is balanced and the metrics registry
//     sees the traffic (conservation: bytes sent == bytes received).
#include <vector>

#include <gtest/gtest.h>

#include "core/distributed_sampler.h"
#include "fault/fault_plan.h"
#include "sim/cluster.h"
#include "tests/core/test_fixtures.h"
#include "trace/chrome_trace.h"
#include "trace/critical_path.h"
#include "trace/recorder.h"

namespace scd::core {
namespace {

using testing::small_planted_fixture;

constexpr unsigned kWorkers = 3;
constexpr std::uint64_t kIterations = 40;

DistributedResult run_sampler(trace::TraceRecorder* recorder,
                              bool pipeline = true,
                              const fault::FaultPlan* plan = nullptr,
                              PiMatrix* pi_out = nullptr) {
  auto f = small_planted_fixture(777, 150, 4, 80);
  f.options.eval_interval = 20;
  sim::SimCluster::Config config;
  config.num_ranks = kWorkers + 1;
  sim::SimCluster cluster(config);
  DistributedOptions options;
  options.base = f.options;
  options.pipeline = pipeline;
  options.chunk_vertices = 8;
  options.fault_plan = plan;
  options.trace = recorder;
  DistributedSampler dist(cluster, f.split->training(), f.split.get(),
                          f.hyper, options);
  const DistributedResult result = dist.run(kIterations);
  if (pi_out != nullptr) *pi_out = dist.snapshot_pi();
  return result;
}

TEST(TraceIntegrationTest, TracingDoesNotPerturbTheRun) {
  PiMatrix pi_off(1, 1);
  PiMatrix pi_on(1, 1);
  const DistributedResult off = run_sampler(nullptr, true, nullptr, &pi_off);
  trace::TraceRecorder recorder(kWorkers + 1);
  const DistributedResult on =
      run_sampler(&recorder, true, nullptr, &pi_on);

  EXPECT_EQ(on.virtual_seconds, off.virtual_seconds)
      << "tracing must not move any clock";
  ASSERT_EQ(on.history.size(), off.history.size());
  for (std::size_t i = 0; i < on.history.size(); ++i) {
    EXPECT_EQ(on.history[i].perplexity, off.history[i].perplexity);
    EXPECT_EQ(on.history[i].seconds, off.history[i].seconds);
  }
  ASSERT_EQ(pi_on.num_vertices(), pi_off.num_vertices());
  for (std::uint32_t v = 0; v < pi_on.num_vertices(); ++v) {
    for (std::uint32_t k = 0; k < pi_on.num_communities(); ++k) {
      ASSERT_EQ(pi_on.pi(v, k), pi_off.pi(v, k)) << "v=" << v;
    }
  }
  EXPECT_GT(recorder.total_spans(), 0u);
}

class TracePipelineTest : public ::testing::TestWithParam<bool> {};

// The headline analyzer property: with every clock-advancing region
// instrumented, the longest chain through the span DAG has exactly the
// run's total virtual time, and the per-stage buckets tile it.
TEST_P(TracePipelineTest, CriticalPathMatchesTotalVirtualTime) {
  trace::TraceRecorder recorder(kWorkers + 1);
  const DistributedResult result = run_sampler(&recorder, GetParam());

  EXPECT_NEAR(recorder.max_time(), result.virtual_seconds,
              1e-9 * result.virtual_seconds);
  const trace::CriticalPathReport report =
      trace::analyze_critical_path(recorder);
  EXPECT_NEAR(report.total_s, result.virtual_seconds,
              1e-9 * result.virtual_seconds);
  double sum = 0.0;
  for (double s : report.on_path_s) sum += s;
  EXPECT_NEAR(sum, report.total_s, 1e-6 * report.total_s);
  EXPECT_FALSE(report.steps.empty());
  // Instrumentation covers the hot loops: untracked time on the chain
  // is a rounding sliver, not a stage.
  EXPECT_LT(report.on_path(trace::Stage::kUntracked),
            0.01 * report.total_s);
}

INSTANTIATE_TEST_SUITE_P(Modes, TracePipelineTest, ::testing::Bool());

TEST(TraceIntegrationTest, MetricsSeeTheTraffic) {
  trace::TraceRecorder recorder(kWorkers + 1);
  run_sampler(&recorder);
  const trace::MetricsRegistry& m = recorder.metrics();
  using trace::Metric;
  EXPECT_GT(m.counter_total(Metric::kMessagesSent), 0u);
  EXPECT_GT(m.counter_total(Metric::kDkvRowsRead), 0u);
  EXPECT_GT(m.counter_total(Metric::kDkvRowsWritten), 0u);
  // Conservation: every posted byte is eventually received.
  EXPECT_EQ(m.counter_total(Metric::kBytesSent),
            m.counter_total(Metric::kBytesReceived));
  EXPECT_EQ(m.counter_total(Metric::kMessagesSent),
            m.counter_total(Metric::kMessagesReceived));
  // Only the master (lane 0) draws and deploys minibatches.
  EXPECT_GT(m.counter(Metric::kMessagesSent, 0), 0u);
  EXPECT_EQ(m.histogram_count(recorder.message_bytes_histogram()),
            m.counter_total(Metric::kMessagesSent));
}

TEST(TraceIntegrationTest, ChromeExportIsBalanced) {
  trace::TraceRecorder recorder(kWorkers + 1);
  run_sampler(&recorder);
  const std::string json = trace::chrome_trace_json(recorder);
  std::size_t begins = 0;
  std::size_t ends = 0;
  for (std::size_t pos = json.find("\"ph\":\"B\""); pos != std::string::npos;
       pos = json.find("\"ph\":\"B\"", pos + 1)) {
    ++begins;
  }
  for (std::size_t pos = json.find("\"ph\":\"E\""); pos != std::string::npos;
       pos = json.find("\"ph\":\"E\"", pos + 1)) {
    ++ends;
  }
  EXPECT_EQ(begins, ends);
  EXPECT_EQ(begins, recorder.total_spans());
}

TEST(TraceIntegrationTest, RecoveryEventsAreCounted) {
  // Crash one worker mid-run: the fault-tolerant loop books the
  // recovery and the redone iterations to the metrics registry, and the
  // critical-path invariant still holds across the disruption.
  const DistributedResult clean = run_sampler(nullptr, false);

  fault::FaultPlan plan;
  plan.seed = 5;
  plan.heartbeat_timeout_s = clean.virtual_seconds / kIterations;
  plan.crashes.push_back({2, clean.virtual_seconds / 2.0});

  trace::TraceRecorder recorder(kWorkers + 1);
  const DistributedResult faulted = run_sampler(&recorder, false, &plan);
  ASSERT_EQ(faulted.crashed_ranks, std::vector<unsigned>{2});

  const trace::MetricsRegistry& m = recorder.metrics();
  EXPECT_EQ(m.counter_total(trace::Metric::kRecoveries), 1u);
  EXPECT_EQ(m.counter_total(trace::Metric::kRedoneIterations),
            faulted.redone_iterations);
  const trace::CriticalPathReport report =
      trace::analyze_critical_path(recorder);
  EXPECT_NEAR(report.total_s, faulted.virtual_seconds,
              1e-9 * faulted.virtual_seconds);
}

}  // namespace
}  // namespace scd::core
