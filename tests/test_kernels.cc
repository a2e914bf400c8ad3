// Direct differential units for the SIMD kernel layer (engine/kernels):
// every kernel, every dispatch level the machine supports, bit-identical
// against the scalar reference — including NaN/±0.0 payloads, INT64_MIN/MAX
// edges, and non-multiple-of-64 batch tails.

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/hash.h"
#include "common/random.h"
#include "engine/kernels/bitmap.h"
#include "engine/kernels/kernels.h"
#include "engine/kernels/kernels_scalar.h"

namespace vdb::engine::kernels {
namespace {

// Batch sizes straddling the 64-row word and 4-lane vector boundaries.
const size_t kSizes[] = {0, 1, 3, 4, 5, 63, 64, 65, 127, 128, 129, 1000, 4096};

std::vector<SimdLevel> LevelsToTest() {
  std::vector<SimdLevel> levels = {SimdLevel::kScalar};
  if (DetectedSimdLevel() == SimdLevel::kAvx2) {
    levels.push_back(SimdLevel::kAvx2);
  }
  return levels;
}

class ScopedSimdLevel {
 public:
  explicit ScopedSimdLevel(SimdLevel level) : saved_(CurrentSimdLevel()) {
    SetSimdLevelForTest(level);
  }
  ~ScopedSimdLevel() { SetSimdLevelForTest(saved_); }

 private:
  SimdLevel saved_;
};

/// memcmp is declared nonnull; empty vectors hand out null data pointers,
/// so the n == 0 cases must short-circuit before touching libc.
int CmpBytes(const void* a, const void* b, size_t bytes) {
  return bytes == 0 ? 0 : std::memcmp(a, b, bytes);
}

std::vector<int64_t> RandomI64(Rng& rng, size_t n) {
  std::vector<int64_t> v(n);
  for (size_t k = 0; k < n; ++k) {
    switch (rng.NextBounded(8)) {
      case 0: v[k] = 0; break;
      case 1: v[k] = std::numeric_limits<int64_t>::min(); break;
      case 2: v[k] = std::numeric_limits<int64_t>::max(); break;
      case 3: v[k] = rng.NextInRange(-4, 4); break;  // force compare ties
      default: v[k] = static_cast<int64_t>(rng.Next());
    }
  }
  return v;
}

std::vector<double> RandomF64(Rng& rng, size_t n) {
  std::vector<double> v(n);
  for (size_t k = 0; k < n; ++k) {
    switch (rng.NextBounded(8)) {
      case 0: v[k] = std::numeric_limits<double>::quiet_NaN(); break;
      case 1: v[k] = 0.0; break;
      case 2: v[k] = -0.0; break;
      case 3: v[k] = std::numeric_limits<double>::infinity(); break;
      case 4: v[k] = -std::numeric_limits<double>::infinity(); break;
      case 5: v[k] = static_cast<double>(rng.NextInRange(-4, 4)); break;
      default: v[k] = (rng.NextDouble() - 0.5) * 1e12;
    }
  }
  return v;
}

const CmpOp kCmpOps[] = {CmpOp::kEq, CmpOp::kNe, CmpOp::kLt,
                         CmpOp::kLe, CmpOp::kGt, CmpOp::kGe};
const ArithOp kArithOps[] = {ArithOp::kAdd, ArithOp::kSub, ArithOp::kMul};

TEST(KernelsTest, DetectReportsConsistentLevel) {
  // CurrentSimdLevel starts at the detected level (no VDB_SIMD in the test
  // environment contract) and SetSimdLevelForTest clamps to it.
  ScopedSimdLevel scoped(SimdLevel::kAvx2);
  EXPECT_EQ(CurrentSimdLevel(), DetectedSimdLevel());
  SetSimdLevelForTest(SimdLevel::kScalar);
  EXPECT_EQ(CurrentSimdLevel(), SimdLevel::kScalar);
}

TEST(KernelsTest, CmpI64MatchesScalarReference) {
  Rng rng(7);
  for (size_t n : kSizes) {
    auto a = RandomI64(rng, n);
    auto b = RandomI64(rng, n);
    const int64_t c = n == 0 ? 0 : a[rng.NextBounded(n)];
    for (CmpOp op : kCmpOps) {
      Bitmap ref_vv, ref_vc;
      ref_vv.ResetForOverwrite(n);
      ref_vc.ResetForOverwrite(n);
      scalar::CmpVV(op, a.data(), b.data(), n, ref_vv.words());
      scalar::CmpVC(op, a.data(), c, n, ref_vc.words());
      for (SimdLevel level : LevelsToTest()) {
        ScopedSimdLevel scoped(level);
        Bitmap got;
        got.ResetForOverwrite(n);
        Ops().cmp_i64_vv(op, a.data(), b.data(), n, got.words());
        for (size_t w = 0; w < got.num_words(); ++w) {
          ASSERT_EQ(got.word(w), ref_vv.word(w))
              << "vv op=" << static_cast<int>(op) << " n=" << n << " w=" << w
              << " level=" << SimdLevelName(level);
        }
        Ops().cmp_i64_vc(op, a.data(), c, n, got.words());
        for (size_t w = 0; w < got.num_words(); ++w) {
          ASSERT_EQ(got.word(w), ref_vc.word(w))
              << "vc op=" << static_cast<int>(op) << " n=" << n << " w=" << w
              << " level=" << SimdLevelName(level);
        }
      }
    }
  }
}

TEST(KernelsTest, CmpF64MatchesScalarReferenceIncludingNaN) {
  Rng rng(11);
  for (size_t n : kSizes) {
    auto a = RandomF64(rng, n);
    auto b = RandomF64(rng, n);
    for (double c : {0.0, std::numeric_limits<double>::quiet_NaN(), 1.5}) {
      for (CmpOp op : kCmpOps) {
        Bitmap ref_vv, ref_vc;
        ref_vv.ResetForOverwrite(n);
        ref_vc.ResetForOverwrite(n);
        scalar::CmpVV(op, a.data(), b.data(), n, ref_vv.words());
        scalar::CmpVC(op, a.data(), c, n, ref_vc.words());
        for (SimdLevel level : LevelsToTest()) {
          ScopedSimdLevel scoped(level);
          Bitmap got;
          got.ResetForOverwrite(n);
          Ops().cmp_f64_vv(op, a.data(), b.data(), n, got.words());
          for (size_t w = 0; w < got.num_words(); ++w) {
            ASSERT_EQ(got.word(w), ref_vv.word(w))
                << "vv op=" << static_cast<int>(op) << " n=" << n
                << " w=" << w << " level=" << SimdLevelName(level);
          }
          Ops().cmp_f64_vc(op, a.data(), c, n, got.words());
          for (size_t w = 0; w < got.num_words(); ++w) {
            ASSERT_EQ(got.word(w), ref_vc.word(w))
                << "vc op=" << static_cast<int>(op) << " n=" << n
                << " w=" << w << " level=" << SimdLevelName(level);
          }
        }
      }
    }
  }
}

TEST(KernelsTest, CmpF64NaNLandsInEqualBucket) {
  // The engine's three-way convention: compares are built from < and > only,
  // so NaN is neither less nor greater — kEq holds, kLt/kGt/kNe do not.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double a[1] = {nan};
  for (SimdLevel level : LevelsToTest()) {
    ScopedSimdLevel scoped(level);
    uint64_t bits = 0;
    Ops().cmp_f64_vc(CmpOp::kEq, a, 3.0, 1, &bits);
    EXPECT_EQ(bits, 1u) << SimdLevelName(level);
    Ops().cmp_f64_vc(CmpOp::kLt, a, 3.0, 1, &bits);
    EXPECT_EQ(bits, 0u) << SimdLevelName(level);
    Ops().cmp_f64_vc(CmpOp::kNe, a, 3.0, 1, &bits);
    EXPECT_EQ(bits, 0u) << SimdLevelName(level);
  }
}

TEST(KernelsTest, ArithI64MatchesScalarReferenceWithWrap) {
  Rng rng(13);
  for (size_t n : kSizes) {
    auto a = RandomI64(rng, n);
    auto b = RandomI64(rng, n);
    const int64_t c = 0x7FFFFFFFFFFFFFF1ll;
    for (ArithOp op : kArithOps) {
      std::vector<int64_t> ref_vv(n), ref_vc(n), ref_cv(n);
      for (size_t k = 0; k < n; ++k) {
        ref_vv[k] = scalar::ArithApply(op, a[k], b[k]);
        ref_vc[k] = scalar::ArithApply(op, a[k], c);
        ref_cv[k] = scalar::ArithApply(op, c, b[k]);
      }
      for (SimdLevel level : LevelsToTest()) {
        ScopedSimdLevel scoped(level);
        std::vector<int64_t> got(n);
        Ops().arith_i64_vv(op, a.data(), b.data(), n, got.data());
        EXPECT_EQ(got, ref_vv) << SimdLevelName(level);
        Ops().arith_i64_vc(op, a.data(), c, n, got.data());
        EXPECT_EQ(got, ref_vc) << SimdLevelName(level);
        Ops().arith_i64_cv(op, c, b.data(), n, got.data());
        EXPECT_EQ(got, ref_cv) << SimdLevelName(level);
      }
    }
  }
}

TEST(KernelsTest, ArithF64BitIdenticalAcrossLevels) {
  Rng rng(17);
  for (size_t n : kSizes) {
    auto a = RandomF64(rng, n);
    auto b = RandomF64(rng, n);
    const double c = 1.0 / 3.0;
    for (ArithOp op : kArithOps) {
      std::vector<double> ref_vv(n), ref_vc(n), ref_cv(n);
      for (size_t k = 0; k < n; ++k) {
        ref_vv[k] = scalar::ArithApply(op, a[k], b[k]);
        ref_vc[k] = scalar::ArithApply(op, a[k], c);
        ref_cv[k] = scalar::ArithApply(op, c, b[k]);
      }
      for (SimdLevel level : LevelsToTest()) {
        ScopedSimdLevel scoped(level);
        std::vector<double> got(n);
        Ops().arith_f64_vv(op, a.data(), b.data(), n, got.data());
        ASSERT_EQ(CmpBytes(got.data(), ref_vv.data(), n * sizeof(double)),
                  0)
            << "vv " << SimdLevelName(level) << " n=" << n;
        Ops().arith_f64_vc(op, a.data(), c, n, got.data());
        ASSERT_EQ(CmpBytes(got.data(), ref_vc.data(), n * sizeof(double)),
                  0)
            << "vc " << SimdLevelName(level) << " n=" << n;
        Ops().arith_f64_cv(op, c, b.data(), n, got.data());
        ASSERT_EQ(CmpBytes(got.data(), ref_cv.data(), n * sizeof(double)),
                  0)
            << "cv " << SimdLevelName(level) << " n=" << n;
      }
    }
  }
}

TEST(KernelsTest, BytesNonzeroBitsMatchesScalar) {
  Rng rng(19);
  for (size_t n : kSizes) {
    std::vector<uint8_t> bytes(n);
    for (size_t k = 0; k < n; ++k) {
      bytes[k] = static_cast<uint8_t>(rng.NextBounded(3) == 0 ? 0
                                                              : rng.Next());
    }
    Bitmap ref;
    ref.ResetForOverwrite(n);
    scalar::BytesNonzeroBits(bytes.data(), n, ref.words());
    for (SimdLevel level : LevelsToTest()) {
      ScopedSimdLevel scoped(level);
      Bitmap got;
      got.ResetForOverwrite(n);
      Ops().bytes_nonzero_bits(bytes.data(), n, got.words());
      for (size_t w = 0; w < got.num_words(); ++w) {
        ASSERT_EQ(got.word(w), ref.word(w))
            << "n=" << n << " w=" << w << " level=" << SimdLevelName(level);
      }
    }
  }
}

TEST(KernelsTest, RandF64SeqBitIdenticalToCounterRandomDouble) {
  for (size_t n : kSizes) {
    const uint64_t seed = 0xDEADBEEFCAFEF00Dull;
    const uint64_t row0 = 12345;
    const uint64_t site = 3;
    std::vector<double> ref(n);
    for (size_t k = 0; k < n; ++k) {
      ref[k] = CounterRandomDouble(seed, row0 + k, site);
    }
    for (SimdLevel level : LevelsToTest()) {
      ScopedSimdLevel scoped(level);
      std::vector<double> got(n);
      Ops().rand_f64_seq(seed, row0, site, n, got.data());
      ASSERT_EQ(CmpBytes(got.data(), ref.data(), n * sizeof(double)), 0)
          << SimdLevelName(level) << " n=" << n;
    }
  }
}

TEST(KernelsTest, HashMixI64MatchesScalarWithAndWithoutNulls) {
  Rng rng(23);
  const uint64_t kNullHash = 0x9AE16A3B2F90404Full;
  for (size_t n : kSizes) {
    auto data = RandomI64(rng, n);
    std::vector<uint8_t> nulls(n);
    for (size_t k = 0; k < n; ++k) {
      nulls[k] = rng.NextBounded(4) == 0 ? 1 : 0;
    }
    std::vector<uint64_t> seed_h(n);
    for (size_t k = 0; k < n; ++k) seed_h[k] = rng.Next();

    const uint8_t* null_variants[] = {nullptr, nulls.data()};
    for (const uint8_t* null_ptr : null_variants) {
      std::vector<uint64_t> ref = seed_h;
      scalar::HashMixI64(ref.data(), data.data(), null_ptr, kNullHash, n);
      for (SimdLevel level : LevelsToTest()) {
        ScopedSimdLevel scoped(level);
        std::vector<uint64_t> got = seed_h;
        Ops().hash_mix_i64(got.data(), data.data(), null_ptr, kNullHash, n);
        ASSERT_EQ(got, ref) << SimdLevelName(level) << " n=" << n
                            << " nulls=" << (null_ptr != nullptr);
      }
    }
  }
}

TEST(KernelsTest, BloomPrefilterMatchesScalarAndHasNoFalseNegatives) {
  Rng rng(29);
  const size_t kWords = 1 << 6;  // 64 words -> shift 58
  const int shift = 64 - 6;
  std::vector<uint64_t> bloom(kWords, 0);
  std::vector<uint64_t> members(300);
  for (auto& h : members) {
    h = rng.Next();
    bloom[h >> shift] |= (uint64_t{1} << ((h >> 38) & 63)) |
                         (uint64_t{1} << ((h >> 44) & 63));
  }
  for (size_t n : kSizes) {
    std::vector<uint64_t> probes(n);
    for (size_t k = 0; k < n; ++k) {
      probes[k] = rng.NextBounded(2) == 0 && !members.empty()
                      ? members[rng.NextBounded(members.size())]
                      : rng.Next();
    }
    Bitmap ref;
    ref.ResetForOverwrite(n);
    scalar::BloomPrefilter(bloom.data(), shift, probes.data(), n, ref.words());
    // No false negatives: every member probe must pass the reference.
    for (size_t k = 0; k < n; ++k) {
      bool is_member = false;
      for (uint64_t m : members) is_member |= (m == probes[k]);
      if (is_member) {
        ASSERT_TRUE(ref.Test(k));
      }
    }
    for (SimdLevel level : LevelsToTest()) {
      ScopedSimdLevel scoped(level);
      Bitmap got;
      got.ResetForOverwrite(n);
      Ops().bloom_prefilter(bloom.data(), shift, probes.data(), n,
                            got.words());
      for (size_t w = 0; w < got.num_words(); ++w) {
        ASSERT_EQ(got.word(w), ref.word(w))
            << "n=" << n << " w=" << w << " level=" << SimdLevelName(level);
      }
    }
  }
}

// ---- typed numeric lanes and the fused sid lane ------------------------------

/// Doubles aimed at the lanes' edges: NaN, +-0.0, +-inf, the 2^51 boundary
/// where the AVX2 conversion switches to the scalar rule, 2^53, +-2^63,
/// 9.2e18 (HashDouble's integral cut-off), integral values and fractions.
std::vector<double> EdgeF64(Rng& rng, size_t n) {
  const double kPool[] = {
      std::numeric_limits<double>::quiet_NaN(),
      0.0,
      -0.0,
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      0x1p51 - 0.5,
      0x1p51,
      0x1p51 + 0.5,
      -0x1p51 - 0.5,
      0x1p53,
      0x1p53 + 2.0,
      0x1p63,
      -0x1p63,
      9.2e18,
      -9.3e18,
      1e300,
      3.0,
      -7.0,
      0.5,
      -2.5,
  };
  const size_t kPoolSize = sizeof(kPool) / sizeof(kPool[0]);
  std::vector<double> v(n);
  for (size_t k = 0; k < n; ++k) {
    v[k] = rng.NextBounded(2) == 0 ? kPool[rng.NextBounded(kPoolSize)]
                                   : (rng.NextDouble() - 0.5) * 1e6;
  }
  return v;
}

/// Bit-exact double vector equality (NaN payloads and signed zeros too).
void ExpectSameBits(const std::vector<double>& got,
                    const std::vector<double>& want, const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  ASSERT_EQ(CmpBytes(got.data(), want.data(), got.size() * sizeof(double)), 0)
      << what;
}

TEST(KernelsTest, RoundF64I64MatchesDoubleToInt64OfFloorAndCeil) {
  Rng rng(31);
  for (size_t n : kSizes) {
    auto x = EdgeF64(rng, n);
    for (RoundOp op : {RoundOp::kFloor, RoundOp::kCeil}) {
      std::vector<int64_t> ref(n);
      for (size_t k = 0; k < n; ++k) {
        ref[k] = DoubleToInt64(op == RoundOp::kFloor ? std::floor(x[k])
                                                     : std::ceil(x[k]));
      }
      for (SimdLevel level : LevelsToTest()) {
        ScopedSimdLevel scoped(level);
        std::vector<int64_t> got(n);
        Ops().round_f64_i64(op, x.data(), n, got.data());
        ASSERT_EQ(got, ref) << SimdLevelName(level) << " n=" << n;
      }
    }
  }
  // Pinned values: the out-of-range class is INT64_MIN at every level.
  const double in[] = {std::numeric_limits<double>::quiet_NaN(),
                       std::numeric_limits<double>::infinity(),
                       -std::numeric_limits<double>::infinity(),
                       0x1p63,
                       -0x1p63,
                       -2.5,
                       0x1p51 + 0.5,
                       -0.0};
  const int64_t kMin = std::numeric_limits<int64_t>::min();
  const int64_t want[] = {kMin, kMin, kMin, kMin, kMin, -3,
                          int64_t{1} << 51, 0};
  for (SimdLevel level : LevelsToTest()) {
    ScopedSimdLevel scoped(level);
    int64_t got[8];
    Ops().round_f64_i64(RoundOp::kFloor, in, 8, got);
    for (size_t k = 0; k < 8; ++k) {
      EXPECT_EQ(got[k], want[k]) << SimdLevelName(level) << " k=" << k;
    }
  }
}

TEST(KernelsTest, DivF64BitIdenticalAcrossLevels) {
  Rng rng(41);
  for (size_t n : kSizes) {
    auto a = EdgeF64(rng, n);
    auto b = EdgeF64(rng, n);
    // Every other size gets no zero divisor, so both flag values are seen.
    if (n % 2 == 1) {
      for (double& x : b) x = x == 0.0 ? 1.0 : x;
    }
    bool b_has_zero = false;
    for (double x : b) b_has_zero |= x == 0.0;  // -0.0 too, NaN not
    for (double c : {0.0, -0.0, 3.0, std::numeric_limits<double>::quiet_NaN()}) {
      std::vector<double> ref_vv(n), ref_vc(n), ref_cv(n);
      for (size_t k = 0; k < n; ++k) {
        ref_vv[k] = a[k] / b[k];
        ref_vc[k] = a[k] / c;
        ref_cv[k] = c / b[k];
      }
      for (SimdLevel level : LevelsToTest()) {
        ScopedSimdLevel scoped(level);
        const std::string at = std::string(SimdLevelName(level)) +
                               " n=" + std::to_string(n);
        std::vector<double> got(n);
        EXPECT_EQ(Ops().div_f64_vv(a.data(), b.data(), n, got.data()),
                  b_has_zero)
            << at;
        ExpectSameBits(got, ref_vv, "vv " + at);
        Ops().div_f64_vc(a.data(), c, n, got.data());
        ExpectSameBits(got, ref_vc, "vc " + at);
        EXPECT_EQ(Ops().div_f64_cv(c, b.data(), n, got.data()), b_has_zero)
            << at;
        ExpectSameBits(got, ref_cv, "cv " + at);
      }
    }
  }
}

TEST(KernelsTest, HashUnitLanesMatchHashUnitOfValue) {
  Rng rng(47);
  for (size_t n : kSizes) {
    auto ints = RandomI64(rng, n);
    auto dbls = EdgeF64(rng, n);
    std::vector<double> ref_i(n), ref_d(n);
    for (size_t k = 0; k < n; ++k) {
      ref_i[k] = HashUnit(Value::Int(ints[k]));
      ref_d[k] = HashUnit(Value::Double(dbls[k]));
    }
    for (SimdLevel level : LevelsToTest()) {
      ScopedSimdLevel scoped(level);
      const std::string at = std::string(SimdLevelName(level)) +
                             " n=" + std::to_string(n);
      std::vector<double> got(n);
      Ops().hash_unit_i64(ints.data(), n, got.data());
      ExpectSameBits(got, ref_i, "i64 " + at);
      Ops().hash_unit_f64(dbls.data(), n, got.data());
      ExpectSameBits(got, ref_d, "f64 " + at);
    }
  }
  // Integral doubles hash like their int64 value, fractions do not.
  const double d[4] = {3.0, -0.0, 0x1p52, 2.5};
  const int64_t i[4] = {3, 0, int64_t{1} << 52, 2};
  for (SimdLevel level : LevelsToTest()) {
    ScopedSimdLevel scoped(level);
    double hd[4], hi[4];
    Ops().hash_unit_f64(d, 4, hd);
    Ops().hash_unit_i64(i, 4, hi);
    EXPECT_EQ(CmpBytes(hd, hi, 3 * sizeof(double)), 0) << SimdLevelName(level);
    EXPECT_NE(hd[3], hi[3]) << SimdLevelName(level);
  }
}

TEST(KernelsTest, SidFromUnitIsFloorOfProductPlusBase) {
  Rng rng(53);
  const double kScales[] = {1.0,  64.0, 196.5, 0.25, 0.0, -3.0,
                            -0.5, 1e300, std::numeric_limits<double>::quiet_NaN()};
  const int64_t kBases[] = {1, 0, -7, std::numeric_limits<int64_t>::max()};
  for (size_t n : kSizes) {
    std::vector<double> u(n);
    for (size_t k = 0; k < n; ++k) {
      u[k] = rng.NextBounded(8) == 0 ? EdgeF64(rng, 1)[0] : rng.NextDouble();
    }
    for (double c : kScales) {
      for (int64_t base : kBases) {
        std::vector<int64_t> ref(n);
        for (size_t k = 0; k < n; ++k) {
          // The unfused chain: product, floor to Int64, wrapping add.
          ref[k] = scalar::ArithApply(ArithOp::kAdd, base,
                                      DoubleToInt64(std::floor(u[k] * c)));
        }
        for (SimdLevel level : LevelsToTest()) {
          ScopedSimdLevel scoped(level);
          std::vector<int64_t> got(n);
          Ops().sid_from_unit(u.data(), c, base, n, got.data());
          ASSERT_EQ(got, ref) << SimdLevelName(level) << " n=" << n
                              << " c=" << c << " base=" << base;
        }
      }
    }
  }
}

TEST(BitmapTest, TailInvariantAndCounts) {
  Bitmap m;
  m.ResetZero(70);
  EXPECT_EQ(m.num_words(), 2u);
  EXPECT_EQ(m.CountSet(), 0u);
  m.Set(0);
  m.Set(63);
  m.Set(69);
  EXPECT_EQ(m.CountSet(), 3u);
  EXPECT_TRUE(m.Test(63));
  EXPECT_FALSE(m.Test(64));
  m.Clear(63);
  EXPECT_EQ(m.CountSet(), 2u);

  m.ResetOnes(70);
  EXPECT_EQ(m.CountSet(), 70u);
  // Zeroed-tail invariant: bits past 70 in the last word must be clear.
  EXPECT_EQ(m.word(1) >> (70 - 64), 0u);

  m.ResetOnes(64);
  EXPECT_EQ(m.num_words(), 1u);
  EXPECT_EQ(m.CountSet(), 64u);

  m.ResetZero(0);
  EXPECT_EQ(m.CountSet(), 0u);
}

}  // namespace
}  // namespace vdb::engine::kernels
