// Tests for common utilities: Value, Rng, hashing, statistical math.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <set>

#include "common/hash.h"
#include "common/random.h"
#include "common/stats_math.h"
#include "common/status.h"
#include "common/value.h"

namespace vdb {
namespace {

TEST(ValueTest, TypesAndAccessors) {
  EXPECT_TRUE(Value::Null().is_null());
  EXPECT_EQ(Value::Int(42).AsInt(), 42);
  EXPECT_DOUBLE_EQ(Value::Int(42).AsDouble(), 42.0);
  EXPECT_DOUBLE_EQ(Value::Double(2.5).AsDouble(), 2.5);
  EXPECT_EQ(Value::Double(2.9).AsInt(), 2);
  EXPECT_EQ(Value::String("hi").AsString(), "hi");
  EXPECT_TRUE(Value::Bool(true).AsBool());
}

TEST(ValueTest, DoubleToInt64IsTotal) {
  // Truncation inside [-2^63, 2^63); NaN, +-inf and everything outside map
  // to INT64_MIN (x86's cvttsd2si answer), never to undefined behavior.
  const int64_t kMin = std::numeric_limits<int64_t>::min();
  EXPECT_EQ(DoubleToInt64(2.9), 2);
  EXPECT_EQ(DoubleToInt64(-2.9), -2);
  EXPECT_EQ(DoubleToInt64(-0.0), 0);
  EXPECT_EQ(DoubleToInt64(0x1p53), int64_t{1} << 53);
  EXPECT_EQ(DoubleToInt64(-0x1p63), kMin);
  EXPECT_EQ(DoubleToInt64(0x1p63 - 1024.0), int64_t{0x7FFFFFFFFFFFFC00});
  EXPECT_EQ(DoubleToInt64(0x1p63), kMin);
  EXPECT_EQ(DoubleToInt64(1e300), kMin);
  EXPECT_EQ(DoubleToInt64(-1e300), kMin);
  EXPECT_EQ(DoubleToInt64(std::numeric_limits<double>::infinity()), kMin);
  EXPECT_EQ(DoubleToInt64(-std::numeric_limits<double>::infinity()), kMin);
  EXPECT_EQ(DoubleToInt64(std::numeric_limits<double>::quiet_NaN()), kMin);
  EXPECT_EQ(Value::Double(1e19).AsInt(), kMin);
}

TEST(ValueTest, Int64ModIsTotal) {
  // C++ % elsewhere, but x % -1 == 0 (INT64_MIN % -1 traps on x86) and
  // x % 0 == 0 (the SQL callers make that row NULL).
  const int64_t kMin = std::numeric_limits<int64_t>::min();
  const int64_t kMax = std::numeric_limits<int64_t>::max();
  EXPECT_EQ(Int64Mod(kMin, -1), 0);
  EXPECT_EQ(Int64Mod(7, -1), 0);
  EXPECT_EQ(Int64Mod(7, 0), 0);
  EXPECT_EQ(Int64Mod(-7, 3), -1);
  EXPECT_EQ(Int64Mod(7, -3), 1);
  EXPECT_EQ(Int64Mod(kMin, kMax), -1);
  EXPECT_EQ(Int64Mod(kMax, kMin), kMax);
  EXPECT_EQ(Int64Mod(kMin, kMin), 0);
}

TEST(ValueTest, NumericComparisonCrossType) {
  EXPECT_EQ(Value::Int(3).Compare(Value::Double(3.0)), 0);
  EXPECT_LT(Value::Int(2).Compare(Value::Double(2.5)), 0);
  EXPECT_GT(Value::Double(10.0).Compare(Value::Int(9)), 0);
}

TEST(ValueTest, StringComparison) {
  EXPECT_LT(Value::String("abc").Compare(Value::String("abd")), 0);
  EXPECT_EQ(Value::String("x").Compare(Value::String("x")), 0);
}

TEST(ValueTest, ToString) {
  EXPECT_EQ(Value::Null().ToString(), "NULL");
  EXPECT_EQ(Value::Int(-5).ToString(), "-5");
  EXPECT_EQ(Value::String("s").ToString(), "s");
  EXPECT_EQ(Value::Double(0.25).ToString(), "0.25");
}

TEST(StatusTest, CodesAndMessages) {
  Status ok;
  EXPECT_TRUE(ok.ok());
  Status err = Status::NotFound("missing");
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.code(), StatusCode::kNotFound);
  EXPECT_NE(err.ToString().find("missing"), std::string::npos);
  Result<int> r = 5;
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 5);
  Result<int> bad = Status::Internal("boom");
  EXPECT_FALSE(bad.ok());
}

// Result misuse is a defined, loud failure in every build type — the status
// on stderr, then abort — not an empty-optional dereference in Release.
TEST(ResultDeathTest, ValueOfErrorPrintsStatusAndAborts) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  Result<int> bad = Status::NotFound("no table t");
  EXPECT_DEATH((void)bad.value(), "NOT_FOUND: no table t");
  const Result<std::string> cbad = Status::Internal("boom");
  EXPECT_DEATH((void)cbad.value(), "INTERNAL: boom");
  EXPECT_DEATH((void)Result<int>(Status::Cancelled("stop")).ValueOrDie(),
               "CANCELLED: stop");
}

TEST(ResultDeathTest, ResultFromOkStatusAborts) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_DEATH(Result<int>{Status::Ok()}, "OK Status");
}

TEST(RngTest, Deterministic) {
  Rng a(1), b(1), c(2);
  EXPECT_EQ(a.Next(), b.Next());
  EXPECT_NE(a.Next(), c.Next());
}

TEST(RngTest, UniformMeanAndRange) {
  Rng rng(3);
  double sum = 0;
  for (int i = 0; i < 100000; ++i) {
    double u = rng.NextDouble();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 100000.0, 0.5, 0.01);
}

TEST(RngTest, GaussianMoments) {
  Rng rng(4);
  std::vector<double> xs(200000);
  for (auto& x : xs) x = rng.NextGaussian();
  EXPECT_NEAR(Mean(xs), 0.0, 0.02);
  EXPECT_NEAR(StdDev(xs), 1.0, 0.02);
}

TEST(RngTest, BoundedStaysInRange) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBounded(7), 7u);
    int64_t v = rng.NextInRange(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
  }
}

TEST(RngTest, BoundedIsUnbiasedAtLargeBounds) {
  // Lemire rejection sampling: even for a bound where plain modulo would be
  // visibly biased toward low values (bound ~ 2/3 * 2^64), the mean must sit
  // at bound/2.
  Rng rng(6);
  const uint64_t bound = 0xAAAAAAAAAAAAAAAAull;  // ~2^64 * 2/3
  long double sum = 0.0L;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    uint64_t v = rng.NextBounded(bound);
    ASSERT_LT(v, bound);
    sum += static_cast<long double>(v);
  }
  const long double mean = sum / n;
  const long double expected = static_cast<long double>(bound) / 2.0L;
  // Plain modulo would pull the mean to ~0.4375 * bound (-12.5%); allow 1%.
  EXPECT_NEAR(static_cast<double>(mean / expected), 1.0, 0.01);
}

TEST(RngTest, BiasedBoundedTestHookRestoresModuloPath) {
  Rng a(7), b(7);
  Rng::SetBiasedNextBoundedForTest(true);
  uint64_t biased = a.NextBounded(1000);
  Rng::SetBiasedNextBoundedForTest(false);
  EXPECT_EQ(biased, b.Next() % 1000);  // exactly the old path
}

TEST(CounterRandomTest, PureFunctionOfAddress) {
  EXPECT_EQ(CounterRandom(1, 2, 3), CounterRandom(1, 2, 3));
  EXPECT_NE(CounterRandom(1, 2, 3), CounterRandom(1, 3, 3));
  EXPECT_NE(CounterRandom(1, 2, 3), CounterRandom(1, 2, 4));
  EXPECT_NE(CounterRandom(2, 2, 3), CounterRandom(1, 2, 3));
  std::set<uint64_t> seen;
  for (uint64_t row = 0; row < 1000; ++row) {
    seen.insert(CounterRandom(42, row, 1));
  }
  EXPECT_EQ(seen.size(), 1000u);
}

TEST(CounterRandomTest, DoubleUniformMeanOverRows) {
  // Sequential rows (the engine's access pattern) must look uniform.
  double sum = 0.0;
  const int n = 100000;
  for (int row = 0; row < n; ++row) {
    double u = CounterRandomDouble(99, static_cast<uint64_t>(row), 1);
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(PoissonKernelTest, InverseCdfShape) {
  // Monotone in u, k = 0 below e^-1, and no k < 8 truncation: a u extremely
  // close to 1 must walk past 8.
  EXPECT_EQ(PoissonOneFromUniform(0.0), 0);
  EXPECT_EQ(PoissonOneFromUniform(0.36), 0);  // e^-1 ~ 0.3679
  EXPECT_EQ(PoissonOneFromUniform(0.5), 1);
  EXPECT_GE(PoissonOneFromUniform(1.0 - 1e-13), 8);
  double sum = 0.0;
  const int n = 200000;
  Rng rng(8);
  for (int i = 0; i < n; ++i) sum += PoissonOneFromUniform(rng.NextDouble());
  EXPECT_NEAR(sum / n, 1.0, 0.02);  // E[Poisson(1)] = 1
}

TEST(HashTest, DeterministicAndSpread) {
  EXPECT_EQ(HashMix64(123), HashMix64(123));
  EXPECT_NE(HashMix64(123), HashMix64(124));
  std::set<uint64_t> seen;
  for (uint64_t i = 0; i < 1000; ++i) seen.insert(HashMix64(i));
  EXPECT_EQ(seen.size(), 1000u);
}

TEST(HashTest, IntDoubleValueAgreement) {
  // Universe samples built on int keys must agree with double-typed reads.
  EXPECT_EQ(HashValue(Value::Int(77)), HashValue(Value::Double(77.0)));
}

TEST(HashTest, UnitHashIsUniform) {
  double sum = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    double u = HashUnit(Value::Int(i));
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(HashTest, Crc32KnownVector) {
  // CRC32("123456789") = 0xCBF43926 (IEEE 802.3 check value).
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);
}

TEST(StatsMathTest, NormalQuantileRoundTrip) {
  for (double p : {0.001, 0.025, 0.3, 0.5, 0.8, 0.975, 0.999}) {
    EXPECT_NEAR(NormalCdf(NormalQuantile(p)), p, 1e-9) << p;
  }
}

TEST(StatsMathTest, CriticalValues) {
  EXPECT_NEAR(NormalCriticalValue(0.95), 1.959964, 1e-4);
  EXPECT_NEAR(NormalCriticalValue(0.99), 2.575829, 1e-4);
}

TEST(StatsMathTest, ErfcInvMatchesErfc) {
  for (double y : {0.001, 0.05, 0.5, 1.0, 1.5, 1.998}) {
    EXPECT_NEAR(std::erfc(ErfcInv(y)), y, 1e-9) << y;
  }
}

TEST(StatsMathTest, BinomialTail) {
  // P(X >= 5 | n=10, p=0.5) = 0.623046875
  EXPECT_NEAR(BinomialTailAtLeast(10, 0.5, 5), 0.623046875, 1e-9);
  EXPECT_DOUBLE_EQ(BinomialTailAtLeast(10, 0.5, 0), 1.0);
  EXPECT_DOUBLE_EQ(BinomialTailAtLeast(10, 0.5, 11), 0.0);
}

TEST(StatsMathTest, QuantileInterpolation) {
  std::vector<double> xs = {1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(QuantileSorted(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(QuantileSorted(xs, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(QuantileSorted(xs, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(QuantileSorted(xs, 0.125), 1.5);
}

TEST(StatsMathTest, MeanVarianceStdDev) {
  std::vector<double> xs = {2, 4, 4, 4, 5, 5, 7, 9};
  EXPECT_DOUBLE_EQ(Mean(xs), 5.0);
  EXPECT_NEAR(Variance(xs), 32.0 / 7.0, 1e-12);
  EXPECT_NEAR(StdDev(xs), std::sqrt(32.0 / 7.0), 1e-12);
}

}  // namespace
}  // namespace vdb
