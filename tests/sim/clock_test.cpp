#include "comm/clock.h"

#include <gtest/gtest.h>

#include "util/error.h"

namespace scd::comm {
namespace {

TEST(ClockTest, StartsAtZeroAndAdvances) {
  VirtualClock c;
  EXPECT_DOUBLE_EQ(c.now(), 0.0);
  c.advance(1.5);
  c.advance(0.25);
  EXPECT_DOUBLE_EQ(c.now(), 1.75);
}

TEST(ClockTest, AdvanceToOnlyMovesForward) {
  VirtualClock c;
  c.advance(2.0);
  c.advance_to(1.0);  // in the past: ignored
  EXPECT_DOUBLE_EQ(c.now(), 2.0);
  c.advance_to(3.0);
  EXPECT_DOUBLE_EQ(c.now(), 3.0);
}

TEST(ClockTest, NegativeAdvanceThrows) {
  VirtualClock c;
  EXPECT_THROW(c.advance(-0.1), scd::UsageError);
}

TEST(ClockTest, ResetReturnsToZero) {
  VirtualClock c;
  c.advance(5.0);
  c.reset();
  EXPECT_DOUBLE_EQ(c.now(), 0.0);
}

}  // namespace
}  // namespace scd::comm
