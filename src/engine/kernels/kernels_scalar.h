// Scalar reference implementations of every kernel in kernels.h — inline so
// both dispatch tables share them: kernels.cc wires them up verbatim as the
// always-built fallback, and kernels_avx2.cc runs them on the sub-64-row tail
// of each input, which makes tail rows LITERALLY the same code at every
// dispatch level (bit-identity by construction, not by parallel maintenance).
//
// These are the semantic reference. An AVX2 kernel that disagrees with the
// function here on any input is wrong, whatever it matches instead.

#ifndef VDB_ENGINE_KERNELS_KERNELS_SCALAR_H_
#define VDB_ENGINE_KERNELS_KERNELS_SCALAR_H_

#include <cmath>
#include <cstddef>
#include <cstdint>

#include "common/hash.h"
#include "common/random.h"
#include "engine/kernels/kernels.h"

namespace vdb::engine::kernels::scalar {

/// cmp(x, y) under the engine's three-way convention: built from < and >
/// only, so double NaNs land in the "neither" bucket and kEq(NaN, x) holds.
/// For int64 these reduce to the native relations.
template <typename T>
inline bool CmpHolds(CmpOp op, T x, T y) {
  switch (op) {
    case CmpOp::kEq: return !(x < y) && !(x > y);
    case CmpOp::kNe: return x < y || x > y;
    case CmpOp::kLt: return x < y;
    case CmpOp::kLe: return !(x > y);
    case CmpOp::kGt: return x > y;
    case CmpOp::kGe: return !(x < y);
  }
  return false;
}

/// One output word of a compare: rows [base, base + m), m <= 64.
template <typename T, typename GetB>
inline uint64_t CmpWord(CmpOp op, const T* a, GetB get_b, size_t base,
                        size_t m) {
  uint64_t word = 0;
  for (size_t k = 0; k < m; ++k) {
    word |= static_cast<uint64_t>(CmpHolds(op, a[base + k], get_b(base + k)))
            << k;
  }
  return word;
}

template <typename T>
inline void CmpVV(CmpOp op, const T* a, const T* b, size_t n, uint64_t* bits) {
  const size_t words = (n + 63) / 64;
  for (size_t w = 0; w < words; ++w) {
    const size_t base = w * 64;
    const size_t m = n - base < 64 ? n - base : 64;
    bits[w] = CmpWord(op, a, [&](size_t k) { return b[k]; }, base, m);
  }
}

template <typename T>
inline void CmpVC(CmpOp op, const T* a, T c, size_t n, uint64_t* bits) {
  const size_t words = (n + 63) / 64;
  for (size_t w = 0; w < words; ++w) {
    const size_t base = w * 64;
    const size_t m = n - base < 64 ? n - base : 64;
    bits[w] = CmpWord(op, a, [&](size_t) { return c; }, base, m);
  }
}

/// Int64 arithmetic in uint64: wrap mod 2^64 is defined behavior and equals
/// the two's-complement wrap AVX2's paddq/psubq/mul-emulation performs.
inline int64_t ArithApply(ArithOp op, int64_t x, int64_t y) {
  const uint64_t ux = static_cast<uint64_t>(x), uy = static_cast<uint64_t>(y);
  uint64_t r = 0;
  switch (op) {
    case ArithOp::kAdd: r = ux + uy; break;
    case ArithOp::kSub: r = ux - uy; break;
    case ArithOp::kMul: r = ux * uy; break;
  }
  return static_cast<int64_t>(r);
}

inline double ArithApply(ArithOp op, double x, double y) {
  switch (op) {
    case ArithOp::kAdd: return x + y;
    case ArithOp::kSub: return x - y;
    case ArithOp::kMul: return x * y;
  }
  return 0.0;
}

template <typename T, typename GetA, typename GetB>
inline void ArithLoop(ArithOp op, GetA ga, GetB gb, size_t n, T* out) {
  // One loop per op so the inner call constant-folds its switch away.
  switch (op) {
    case ArithOp::kAdd:
      for (size_t k = 0; k < n; ++k) {
        out[k] = ArithApply(ArithOp::kAdd, T(ga(k)), T(gb(k)));
      }
      break;
    case ArithOp::kSub:
      for (size_t k = 0; k < n; ++k) {
        out[k] = ArithApply(ArithOp::kSub, T(ga(k)), T(gb(k)));
      }
      break;
    case ArithOp::kMul:
      for (size_t k = 0; k < n; ++k) {
        out[k] = ArithApply(ArithOp::kMul, T(ga(k)), T(gb(k)));
      }
      break;
  }
}

inline void RoundF64I64(RoundOp op, const double* x, size_t n, int64_t* out) {
  if (op == RoundOp::kFloor) {
    for (size_t k = 0; k < n; ++k) out[k] = DoubleToInt64(std::floor(x[k]));
  } else {
    for (size_t k = 0; k < n; ++k) out[k] = DoubleToInt64(std::ceil(x[k]));
  }
}

inline bool DivF64VV(const double* a, const double* b, size_t n,
                     double* out) {
  bool zero = false;
  for (size_t k = 0; k < n; ++k) {
    out[k] = a[k] / b[k];
    zero |= b[k] == 0.0;
  }
  return zero;
}
inline void DivF64VC(const double* a, double c, size_t n, double* out) {
  for (size_t k = 0; k < n; ++k) out[k] = a[k] / c;
}
inline bool DivF64CV(double c, const double* b, size_t n, double* out) {
  bool zero = false;
  for (size_t k = 0; k < n; ++k) {
    out[k] = c / b[k];
    zero |= b[k] == 0.0;
  }
  return zero;
}

inline void HashUnitI64(const int64_t* x, size_t n, double* out) {
  for (size_t k = 0; k < n; ++k) {
    out[k] = UnitFromHash(HashMix64(static_cast<uint64_t>(x[k])));
  }
}

inline void HashUnitF64(const double* x, size_t n, double* out) {
  for (size_t k = 0; k < n; ++k) out[k] = UnitFromHash(HashDouble(x[k]));
}

/// One fused subsample id: base + floor(u * c), the add wrapping mod 2^64.
inline int64_t SidFromUnit(double u, double c, int64_t base) {
  return static_cast<int64_t>(static_cast<uint64_t>(base) +
                              static_cast<uint64_t>(
                                  DoubleToInt64(std::floor(u * c))));
}

inline void SidFromUnitLoop(const double* u, double c, int64_t base, size_t n,
                            int64_t* out) {
  for (size_t k = 0; k < n; ++k) out[k] = SidFromUnit(u[k], c, base);
}

inline void BytesNonzeroBits(const uint8_t* bytes, size_t n, uint64_t* bits) {
  const size_t words = (n + 63) / 64;
  for (size_t w = 0; w < words; ++w) {
    const size_t base = w * 64;
    const size_t m = n - base < 64 ? n - base : 64;
    uint64_t word = 0;
    for (size_t k = 0; k < m; ++k) {
      word |= static_cast<uint64_t>(bytes[base + k] != 0) << k;
    }
    bits[w] = word;
  }
}

inline void RandF64Seq(uint64_t seed, uint64_t row0, uint64_t site, size_t n,
                       double* out) {
  for (size_t k = 0; k < n; ++k) {
    out[k] = CounterRandomDouble(seed, row0 + k, site);
  }
}

/// The Int64 lane of group/join key hashing: per-row value hash, then the
/// boost-style combine + full mix engine/group_ids.h defines (MixGroupHash).
inline uint64_t HashMixInto(uint64_t h, uint64_t v) {
  return HashMix64(h ^ (v + 0x9E3779B97F4A7C15ull + (h << 6) + (h >> 2)));
}

inline void HashMixI64(uint64_t* h, const int64_t* data, const uint8_t* nulls,
                       uint64_t null_hash, size_t n) {
  if (nulls == nullptr) {
    for (size_t k = 0; k < n; ++k) {
      h[k] = HashMixInto(h[k], HashMix64(static_cast<uint64_t>(data[k])));
    }
  } else {
    for (size_t k = 0; k < n; ++k) {
      const uint64_t v = nulls[k] != 0
                             ? null_hash
                             : HashMix64(static_cast<uint64_t>(data[k]));
      h[k] = HashMixInto(h[k], v);
    }
  }
}

/// The two test bits key h sets/probes within its blocked-Bloom word:
/// bit positions (h>>38)&63 and (h>>44)&63. JoinBuildTable sets exactly this
/// mask at build time; both prefilter kernels test it.
inline uint64_t BloomBitMask(uint64_t h) {
  return (uint64_t{1} << ((h >> 38) & 63)) |
         (uint64_t{1} << ((h >> 44) & 63));
}

/// Membership test against a blocked Bloom filter (engine/join_table.cc
/// layout): key h owns word h >> shift and tests BloomBitMask(h) within it.
inline bool BloomMaybeContains(const uint64_t* bloom_words, int shift,
                               uint64_t h) {
  const uint64_t mask = BloomBitMask(h);
  return (bloom_words[h >> shift] & mask) == mask;
}

inline void BloomPrefilter(const uint64_t* bloom_words, int shift,
                           const uint64_t* hashes, size_t n, uint64_t* bits) {
  const size_t words = (n + 63) / 64;
  for (size_t w = 0; w < words; ++w) {
    const size_t base = w * 64;
    const size_t m = n - base < 64 ? n - base : 64;
    uint64_t word = 0;
    for (size_t k = 0; k < m; ++k) {
      word |= static_cast<uint64_t>(
                  BloomMaybeContains(bloom_words, shift, hashes[base + k]))
              << k;
    }
    bits[w] = word;
  }
}

inline void GatherI64(const int64_t* src, const uint32_t* rows, size_t n,
                      int64_t* out) {
  for (size_t k = 0; k < n; ++k) out[k] = src[rows[k]];
}

inline void GatherF64(const double* src, const uint32_t* rows, size_t n,
                      double* out) {
  for (size_t k = 0; k < n; ++k) out[k] = src[rows[k]];
}

/// Kahan–Babuška–Neumaier step, identical to engine/aggregates.cc's
/// NeumaierAdd: the flat SoA sink and the per-group reference accumulators
/// must round the same way at every addition.
inline void NeumaierStep(double& sum, double& comp, double x) {
  const double t = sum + x;
  if (std::abs(sum) >= std::abs(x)) {
    comp += (sum - t) + x;
  } else {
    comp += (x - t) + sum;
  }
  sum = t;
}

template <typename T>
inline void ScatterSum(const T* x, const uint8_t* nulls, const uint32_t* rows,
                       const uint32_t* gids, size_t n, double* sums,
                       double* comps, uint8_t* any, int64_t* ns) {
  for (size_t k = 0; k < n; ++k) {
    const size_t r = rows == nullptr ? k : rows[k];
    if (nulls != nullptr && nulls[r] != 0) continue;
    const uint32_t g = gids[k];
    NeumaierStep(sums[g], comps[g], static_cast<double>(x[r]));
    if (any != nullptr) any[g] = 1;
    if (ns != nullptr) ++ns[g];
  }
}

inline void ScatterSumI64(const int64_t* x, const uint8_t* nulls,
                          const uint32_t* rows, const uint32_t* gids, size_t n,
                          double* sums, double* comps, uint8_t* any,
                          int64_t* ns) {
  ScatterSum(x, nulls, rows, gids, n, sums, comps, any, ns);
}

inline void ScatterSumF64(const double* x, const uint8_t* nulls,
                          const uint32_t* rows, const uint32_t* gids, size_t n,
                          double* sums, double* comps, uint8_t* any,
                          int64_t* ns) {
  ScatterSum(x, nulls, rows, gids, n, sums, comps, any, ns);
}

}  // namespace vdb::engine::kernels::scalar

#endif  // VDB_ENGINE_KERNELS_KERNELS_SCALAR_H_
