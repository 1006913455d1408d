// Unit + property tests for the fixed-point datapath types.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "fixedpoint/fixed_point.hpp"

namespace microrec {
namespace {

// Typed tests run every property against both hardware precisions.
template <typename T>
class FixedPointTypedTest : public ::testing::Test {};

using Precisions = ::testing::Types<Fixed16, Fixed32>;
TYPED_TEST_SUITE(FixedPointTypedTest, Precisions);

TYPED_TEST(FixedPointTypedTest, ZeroDefault) {
  TypeParam v;
  EXPECT_EQ(v.raw(), 0);
  EXPECT_DOUBLE_EQ(v.ToDouble(), 0.0);
}

TYPED_TEST(FixedPointTypedTest, RoundTripWithinEpsilon) {
  Rng rng(17);
  for (int i = 0; i < 2000; ++i) {
    const double v = (rng.NextDouble() - 0.5) * 10.0;
    const double q = TypeParam::FromDouble(v).ToDouble();
    EXPECT_NEAR(q, v, TypeParam::Epsilon() / 2 + 1e-12) << "v=" << v;
  }
}

TYPED_TEST(FixedPointTypedTest, ExactValuesRepresentExactly) {
  // Multiples of the quantization step must be exact.
  for (int k = -100; k <= 100; ++k) {
    const double v = k * TypeParam::Epsilon();
    EXPECT_DOUBLE_EQ(TypeParam::FromDouble(v).ToDouble(), v);
  }
}

TYPED_TEST(FixedPointTypedTest, SaturatesAtExtremes) {
  EXPECT_EQ(TypeParam::FromDouble(1e12).raw(), TypeParam::kRawMax);
  EXPECT_EQ(TypeParam::FromDouble(-1e12).raw(), TypeParam::kRawMin);
}

TYPED_TEST(FixedPointTypedTest, AdditionMatchesRealArithmetic) {
  Rng rng(18);
  for (int i = 0; i < 1000; ++i) {
    const double a = (rng.NextDouble() - 0.5) * 4.0;
    const double b = (rng.NextDouble() - 0.5) * 4.0;
    const auto fa = TypeParam::FromDouble(a);
    const auto fb = TypeParam::FromDouble(b);
    EXPECT_NEAR((fa + fb).ToDouble(), fa.ToDouble() + fb.ToDouble(), 1e-12);
  }
}

TYPED_TEST(FixedPointTypedTest, AdditionSaturatesNotWraps) {
  const auto max = TypeParam::Max();
  const auto one = TypeParam::FromDouble(1.0);
  EXPECT_EQ((max + one).raw(), TypeParam::kRawMax);
  const auto min = TypeParam::Min();
  EXPECT_EQ((min - one).raw(), TypeParam::kRawMin);
}

TYPED_TEST(FixedPointTypedTest, MultiplicationWithinRoundingError) {
  Rng rng(19);
  for (int i = 0; i < 1000; ++i) {
    const double a = (rng.NextDouble() - 0.5) * 4.0;
    const double b = (rng.NextDouble() - 0.5) * 4.0;
    const auto fa = TypeParam::FromDouble(a);
    const auto fb = TypeParam::FromDouble(b);
    const double exact = fa.ToDouble() * fb.ToDouble();
    EXPECT_NEAR((fa * fb).ToDouble(), exact, TypeParam::Epsilon())
        << a << " * " << b;
  }
}

TYPED_TEST(FixedPointTypedTest, NegationIsInvolutiveExceptMin) {
  const auto v = TypeParam::FromDouble(1.25);
  EXPECT_EQ((-(-v)).raw(), v.raw());
  // Negating the most negative raw value saturates to max instead of UB.
  EXPECT_EQ((-TypeParam::Min()).raw(), TypeParam::kRawMax);
}

TYPED_TEST(FixedPointTypedTest, ComparisonFollowsRealOrder) {
  const auto a = TypeParam::FromDouble(-0.5);
  const auto b = TypeParam::FromDouble(0.25);
  EXPECT_LT(a, b);
  EXPECT_GT(b, a);
  EXPECT_EQ(a, TypeParam::FromDouble(-0.5));
}

TYPED_TEST(FixedPointTypedTest, CompoundOperators) {
  auto v = TypeParam::FromDouble(1.0);
  v += TypeParam::FromDouble(0.5);
  EXPECT_DOUBLE_EQ(v.ToDouble(), 1.5);
  v -= TypeParam::FromDouble(1.0);
  EXPECT_DOUBLE_EQ(v.ToDouble(), 0.5);
  v *= TypeParam::FromDouble(4.0);
  EXPECT_DOUBLE_EQ(v.ToDouble(), 2.0);
}

TEST(FixedPointTest, PrecisionMetadata) {
  EXPECT_EQ(BitsOf(Precision::kFixed16), 16);
  EXPECT_EQ(BitsOf(Precision::kFixed32), 32);
  EXPECT_STREQ(PrecisionName(Precision::kFixed16), "fixed16");
  EXPECT_STREQ(PrecisionName(Precision::kFixed32), "fixed32");
}

TEST(FixedPointTest, Fixed32IsStrictlyFinerThanFixed16) {
  EXPECT_LT(Fixed32::Epsilon(), Fixed16::Epsilon());
}

TEST(FixedPointTest, RoundingIsToNearest) {
  // Half the quantization step rounds away from zero.
  const double eps = Fixed16::Epsilon();
  EXPECT_DOUBLE_EQ(Fixed16::FromDouble(0.5 * eps).ToDouble(), eps);
  EXPECT_DOUBLE_EQ(Fixed16::FromDouble(0.49 * eps).ToDouble(), 0.0);
  EXPECT_DOUBLE_EQ(Fixed16::FromDouble(-0.5 * eps).ToDouble(), -eps);
}

}  // namespace
}  // namespace microrec
