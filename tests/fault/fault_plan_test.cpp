#include "fault/fault_plan.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <limits>

#include "fault/fault_injector.h"
#include "random/xoshiro.h"
#include "tests/util/byte_mutator.h"
#include "util/error.h"

namespace scd::fault {
namespace {

constexpr char kFullPlan[] = R"({
  "seed": 7,
  "heartbeat_timeout_s": 0.125,
  "retry_backoff_s": 5e-5,
  "crashes":    [{"rank": 2, "time_s": 0.5}],
  "links":      [{"from": 0, "to": 1, "start_s": 0.0, "end_s": 1.0,
                  "drop_prob": 0.1, "dup_prob": 0.05, "delay_s": 1e-3}],
  "stragglers": [{"rank": 1, "start_s": 0.2, "end_s": 0.4,
                  "slowdown": 3.0}],
  "dkv_stalls": [{"shard": 0, "start_s": 0.1, "end_s": 0.3,
                  "stall_s": 2e-3}]
})";

TEST(FaultPlanTest, ParsesFullSchema) {
  const FaultPlan plan = FaultPlan::from_json(kFullPlan);
  EXPECT_EQ(plan.seed, 7u);
  EXPECT_DOUBLE_EQ(plan.heartbeat_timeout_s, 0.125);
  EXPECT_DOUBLE_EQ(plan.retry_backoff_s, 5e-5);
  ASSERT_EQ(plan.crashes.size(), 1u);
  EXPECT_EQ(plan.crashes[0].rank, 2u);
  EXPECT_DOUBLE_EQ(plan.crashes[0].time_s, 0.5);
  ASSERT_EQ(plan.links.size(), 1u);
  EXPECT_EQ(plan.links[0].from, 0u);
  EXPECT_EQ(plan.links[0].to, 1u);
  EXPECT_DOUBLE_EQ(plan.links[0].drop_prob, 0.1);
  EXPECT_DOUBLE_EQ(plan.links[0].dup_prob, 0.05);
  EXPECT_DOUBLE_EQ(plan.links[0].delay_s, 1e-3);
  ASSERT_EQ(plan.stragglers.size(), 1u);
  EXPECT_DOUBLE_EQ(plan.stragglers[0].slowdown, 3.0);
  ASSERT_EQ(plan.dkv_stalls.size(), 1u);
  EXPECT_DOUBLE_EQ(plan.dkv_stalls[0].stall_s, 2e-3);
  EXPECT_FALSE(plan.empty());
  EXPECT_NO_THROW(plan.validate(4));
}

// 4000 mutants of the full-schema plan (fixed seed, 1-3 byte edits
// each) either parse or throw DataError: no other exception escapes the
// parser, and the asan pass sees no memory error.
TEST(FaultPlanTest, MutatedPlansParseOrThrowDataError) {
  rng::Xoshiro256 rng(3301);
  int parsed = 0;
  int refused = 0;
  for (int i = 0; i < 4000; ++i) {
    const std::string mutant = testing::mutate_bytes(rng, kFullPlan);
    try {
      (void)FaultPlan::from_json(mutant);
      ++parsed;
    } catch (const DataError&) {
      ++refused;
    } catch (const std::exception& e) {
      FAIL() << "mutant " << i << " threw " << e.what() << ":\n" << mutant;
    }
  }
  // Both outcomes occur: the mutants reach the parser's accept paths too.
  EXPECT_GT(parsed, 100);
  EXPECT_GT(refused, 100);
}

TEST(FaultPlanTest, EmptyObjectIsEmptyPlanWithDefaults) {
  const FaultPlan plan = FaultPlan::from_json("{}");
  EXPECT_TRUE(plan.empty());
  EXPECT_EQ(plan.seed, 0u);
  EXPECT_DOUBLE_EQ(plan.heartbeat_timeout_s, 0.25);
  EXPECT_DOUBLE_EQ(plan.retry_backoff_s, 50e-6);
  EXPECT_NO_THROW(plan.validate(2));
}

TEST(FaultPlanTest, WindowsDefaultToOpenEnded) {
  const FaultPlan plan = FaultPlan::from_json(
      R"({"stragglers": [{"rank": 1, "slowdown": 2.0}]})");
  ASSERT_EQ(plan.stragglers.size(), 1u);
  EXPECT_DOUBLE_EQ(plan.stragglers[0].start_s, 0.0);
  EXPECT_EQ(plan.stragglers[0].end_s,
            std::numeric_limits<double>::infinity());
}

TEST(FaultPlanTest, MalformedJsonThrows) {
  EXPECT_THROW(FaultPlan::from_json(""), DataError);
  EXPECT_THROW(FaultPlan::from_json("{"), DataError);
  EXPECT_THROW(FaultPlan::from_json("{} trailing"), DataError);
  EXPECT_THROW(FaultPlan::from_json(R"({"seed": })"), DataError);
  EXPECT_THROW(FaultPlan::from_json(R"({"crashes": {}})"), DataError);
  EXPECT_THROW(FaultPlan::from_json(R"({"seed": true})"), DataError);
  // Integers must be non-negative and fit their field: no wrap (-1 would
  // become 2^64-1), no saturation (1e30), no 32-bit truncation
  // (2^32 + 1 would become rank 1), no out-of-range cast (1e999 is inf).
  EXPECT_THROW(FaultPlan::from_json(R"({"seed": -1})"), DataError);
  EXPECT_THROW(FaultPlan::from_json(R"({"seed": 1e30})"), DataError);
  EXPECT_THROW(FaultPlan::from_json(
                   R"({"crashes": [{"rank": 4294967297, "time_s": 1.0}]})"),
               DataError);
  EXPECT_THROW(FaultPlan::from_json(
                   R"({"crashes": [{"rank": 1e999, "time_s": 1.0}]})"),
               DataError);
  EXPECT_THROW(FaultPlan::from_json(
                   R"({"crashes": [{"rank": 1, "at_iteration": 2e19}]})"),
               DataError);
  // at_iteration is a 64-bit field: values past 2^32 parse exactly.
  const FaultPlan late = FaultPlan::from_json(
      R"({"crashes": [{"rank": 1, "at_iteration": 5e9}]})");
  ASSERT_EQ(late.crashes.size(), 1u);
  EXPECT_EQ(late.crashes[0].at_iteration, 5'000'000'000u);
}

TEST(FaultPlanTest, UnknownKeysAreErrorsNotSilentNoOps) {
  EXPECT_THROW(FaultPlan::from_json(R"({"sede": 7})"), DataError);
  EXPECT_THROW(
      FaultPlan::from_json(R"({"crashes": [{"rnk": 2, "time_s": 1.0}]})"),
      DataError);
}

TEST(FaultPlanTest, ValidationRejectsBadPlans) {
  auto plan_with = [](auto&& mutate) {
    FaultPlan plan;
    mutate(plan);
    return plan;
  };
  // Master crash.
  EXPECT_THROW(plan_with([](FaultPlan& p) {
                 p.crashes.push_back({0, 1.0});
               }).validate(4),
               UsageError);
  // Rank out of range.
  EXPECT_THROW(plan_with([](FaultPlan& p) {
                 p.crashes.push_back({4, 1.0});
               }).validate(4),
               UsageError);
  // Certain-loss link can never deliver.
  EXPECT_THROW(plan_with([](FaultPlan& p) {
                 p.links.push_back({0, 1, 0.0, 1.0, 1.0, 0.0, 0.0});
               }).validate(4),
               UsageError);
  // Self-link.
  EXPECT_THROW(plan_with([](FaultPlan& p) {
                 p.links.push_back({1, 1, 0.0, 1.0, 0.1, 0.0, 0.0});
               }).validate(4),
               UsageError);
  // Speed-up is not a straggler.
  EXPECT_THROW(plan_with([](FaultPlan& p) {
                 p.stragglers.push_back({1, 0.0, 1.0, 0.5});
               }).validate(4),
               UsageError);
  // Empty window.
  EXPECT_THROW(plan_with([](FaultPlan& p) {
                 p.stragglers.push_back({1, 1.0, 1.0, 2.0});
               }).validate(4),
               UsageError);
  // Stall on a shard no worker owns.
  EXPECT_THROW(plan_with([](FaultPlan& p) {
                 p.dkv_stalls.push_back({3, 0.0, 1.0, 1e-3});
               }).validate(4),
               UsageError);
  // Heartbeat timeout must be positive.
  EXPECT_THROW(plan_with([](FaultPlan& p) {
                 p.heartbeat_timeout_s = 0.0;
               }).validate(4),
               UsageError);
  // The largest shard index must not wrap the range check around.
  const FaultPlan last_shard = FaultPlan::from_json(
      R"({"dkv_stalls": [{"shard": 4294967295, "stall_s": 1e-3}]})");
  EXPECT_THROW(last_shard.validate(3), UsageError);
}

TEST(FaultPlanTest, FromFileRoundTrips) {
  const std::string path =
      ::testing::TempDir() + "/scd_fault_plan_test.json";
  {
    std::ofstream out(path);
    out << kFullPlan;
  }
  const FaultPlan plan = FaultPlan::from_file(path);
  EXPECT_EQ(plan.seed, 7u);
  ASSERT_EQ(plan.crashes.size(), 1u);
  EXPECT_EQ(plan.crashes[0].rank, 2u);
  std::remove(path.c_str());
  EXPECT_THROW(FaultPlan::from_file(path), DataError);
}

TEST(FaultInjectorTest, ValidatesAgainstClusterSize) {
  FaultPlan plan;
  plan.crashes.push_back({3, 1.0});
  EXPECT_NO_THROW(FaultInjector(plan, 4));
  EXPECT_THROW(FaultInjector(plan, 3), UsageError);
}

TEST(FaultInjectorTest, CrashTimesComeFromThePlan) {
  FaultPlan plan;
  plan.crashes.push_back({2, 0.5});
  plan.crashes.push_back({2, 0.3});  // earliest event wins
  const FaultInjector inj(plan, 4);
  EXPECT_DOUBLE_EQ(inj.crash_time(2), 0.3);
  EXPECT_EQ(inj.crash_time(1), std::numeric_limits<double>::infinity());
  EXPECT_FALSE(inj.crashed(2, 0.29));
  EXPECT_TRUE(inj.crashed(2, 0.3));
  EXPECT_FALSE(inj.crashed(1, 1e9));
}

TEST(FaultInjectorTest, QuietLinksInjectNothing) {
  FaultPlan plan;
  plan.links.push_back({0, 1, 0.0, 1.0, 0.5, 0.5, 1e-3});
  FaultInjector inj(plan, 4);
  for (int i = 0; i < 50; ++i) {
    // Other link, and same link outside its window: clean.
    const comm::SendFaults other = inj.on_send(0, 2, 0.5);
    EXPECT_EQ(other.dropped_attempts, 0u);
    EXPECT_EQ(other.duplicates, 0u);
    EXPECT_DOUBLE_EQ(other.extra_delay_s, 0.0);
    const comm::SendFaults late = inj.on_send(0, 1, 2.0);
    EXPECT_EQ(late.dropped_attempts, 0u);
    EXPECT_DOUBLE_EQ(late.extra_delay_s, 0.0);
  }
}

TEST(FaultInjectorTest, DrawsAreDeterministicPerMessageSequence) {
  FaultPlan plan;
  plan.seed = 99;
  plan.links.push_back({0, 1, 0.0, 1e9, 0.4, 0.3, 2e-3});
  FaultInjector a(plan, 4);
  FaultInjector b(plan, 4);
  unsigned drops = 0;
  unsigned dups = 0;
  for (int i = 0; i < 200; ++i) {
    const comm::SendFaults fa = a.on_send(0, 1, 1.0);
    const comm::SendFaults fb = b.on_send(0, 1, 1.0);
    EXPECT_EQ(fa.dropped_attempts, fb.dropped_attempts);
    EXPECT_EQ(fa.duplicates, fb.duplicates);
    EXPECT_DOUBLE_EQ(fa.extra_delay_s, 2e-3);
    drops += fa.dropped_attempts;
    dups += fa.duplicates;
  }
  // With p_drop = 0.4 and p_dup = 0.3 over 200 sends, both event kinds
  // must actually fire.
  EXPECT_GT(drops, 0u);
  EXPECT_GT(dups, 0u);
}

TEST(FaultInjectorTest, ComputeFactorMultipliesOverlappingWindows) {
  FaultPlan plan;
  plan.stragglers.push_back({1, 0.0, 2.0, 3.0});
  plan.stragglers.push_back({1, 1.0, 3.0, 2.0});
  const FaultInjector inj(plan, 4);
  EXPECT_DOUBLE_EQ(inj.compute_factor(1, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(inj.compute_factor(1, 1.5), 6.0);
  EXPECT_DOUBLE_EQ(inj.compute_factor(1, 2.5), 2.0);
  EXPECT_DOUBLE_EQ(inj.compute_factor(1, 5.0), 1.0);
  EXPECT_DOUBLE_EQ(inj.compute_factor(2, 1.5), 1.0);
}

TEST(FaultInjectorTest, ShardStallsSumInsideWindows) {
  FaultPlan plan;
  plan.dkv_stalls.push_back({0, 0.0, 2.0, 1e-3});
  plan.dkv_stalls.push_back({0, 1.0, 3.0, 5e-4});
  const FaultInjector inj(plan, 4);
  EXPECT_DOUBLE_EQ(inj.shard_stall_s(0, 0.5), 1e-3);
  EXPECT_DOUBLE_EQ(inj.shard_stall_s(0, 1.5), 1.5e-3);
  EXPECT_DOUBLE_EQ(inj.shard_stall_s(0, 4.0), 0.0);
  EXPECT_DOUBLE_EQ(inj.shard_stall_s(1, 1.5), 0.0);
}

}  // namespace
}  // namespace scd::fault
