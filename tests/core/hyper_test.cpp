#include "core/hyper.h"

#include <gtest/gtest.h>

#include <limits>

#include "util/error.h"

namespace scd::core {
namespace {

TEST(HyperTest, AutoAlphaIsOneOverK) {
  Hyper h;
  h.num_communities = 20;
  h.alpha = 0.0;
  EXPECT_DOUBLE_EQ(h.normalized_alpha(), 0.05);
  h.alpha = 0.3;
  EXPECT_DOUBLE_EQ(h.normalized_alpha(), 0.3);
}

TEST(HyperTest, ValidationCatchesBadValues) {
  Hyper h;
  h.delta = 0.0;
  EXPECT_THROW(h.validate(), scd::UsageError);
  h = Hyper{};
  h.eta0 = -1.0;
  EXPECT_THROW(h.validate(), scd::UsageError);
  h = Hyper{};
  h.num_communities = 0;
  EXPECT_THROW(h.validate(), scd::UsageError);
  EXPECT_NO_THROW(Hyper{}.validate());
}

// Infinities and NaNs are refused in every field (before, alpha, eta0
// and eta1 = inf passed and reached the kernels as a non-finite row).
TEST(HyperTest, ValidationRefusesNonFiniteValues) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  for (double bad : {kInf, -kInf, kNan}) {
    SCOPED_TRACE(bad);
    for (double Hyper::*field :
         {&Hyper::alpha, &Hyper::eta0, &Hyper::eta1, &Hyper::delta}) {
      Hyper h;
      h.*field = bad;
      EXPECT_THROW(h.validate(), scd::UsageError);
    }
  }
  Hyper h;
  h.alpha = 1e300;
  h.eta0 = 1e300;
  EXPECT_NO_THROW(h.validate());
}

TEST(HyperTest, SuggestedDeltaBelowDensity) {
  EXPECT_DOUBLE_EQ(suggested_delta(1e-3), 1e-4);
  EXPECT_DOUBLE_EQ(suggested_delta(0.0), 1e-10);  // floor
}

TEST(StepScheduleTest, DecaysMonotonicallyFromA) {
  StepSchedule s;
  EXPECT_DOUBLE_EQ(s.eps(0), s.a);
  double prev = s.eps(0);
  for (std::uint64_t t : {1ull, 10ull, 100ull, 10000ull}) {
    const double e = s.eps(t);
    EXPECT_LT(e, prev);
    EXPECT_GT(e, 0.0);
    prev = e;
  }
}

TEST(StepScheduleTest, RobbinsMonroExponentEnforced) {
  StepSchedule s;
  s.c = 0.5;  // too small: sum of eps^2 diverges
  EXPECT_THROW(s.validate(), scd::UsageError);
  s.c = 1.1;
  EXPECT_THROW(s.validate(), scd::UsageError);
  s.c = 1.0;
  EXPECT_NO_THROW(s.validate());
}

TEST(StepScheduleTest, NonFiniteValuesAreRefused) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  for (double bad : {kInf, -kInf, kNan}) {
    SCOPED_TRACE(bad);
    for (double StepSchedule::*field :
         {&StepSchedule::a, &StepSchedule::b, &StepSchedule::c}) {
      StepSchedule s;
      s.*field = bad;
      EXPECT_THROW(s.validate(), scd::UsageError);
    }
  }
  StepSchedule s;
  s.a = 1e308;
  s.b = 1e308;
  EXPECT_NO_THROW(s.validate());
}

TEST(StepScheduleTest, HalvingPointControlledByB) {
  StepSchedule s;
  s.a = 1.0;
  s.b = 100.0;
  s.c = 1.0;
  EXPECT_NEAR(s.eps(100), 0.5, 1e-12);
}

}  // namespace
}  // namespace scd::core
