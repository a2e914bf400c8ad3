// AVX2 kernel table. This is the ONLY translation unit compiled with -mavx2
// (CMake sets the flag per-file), so nothing here may be called unless the
// CPU reports AVX2 — kernels.cc checks __builtin_cpu_supports("avx2") before
// ever returning this table.
//
// Bit-identity discipline (see kernels.h and README.md):
//  - Each kernel processes whole 64-row blocks with vector code and hands the
//    final partial block to the SAME inline scalar reference the fallback
//    table uses (kernels_scalar.h) — tails cannot drift by construction.
//  - Double compares use ordered non-signaling predicates (_CMP_LT_OQ /
//    _CMP_GT_OQ), the vector form of the scalar `<` / `>`-only three-way
//    convention: Eq = ~(lt|gt) makes NaN compare equal, exactly like the
//    scalar reference.
//  - Int64 add/sub/mul are paddq/psubq/32x32-mul emulation — two's-complement
//    wrap, matching the scalar uint64 arithmetic.
//  - The rand lane dispatches the scalar CounterRandom loop even from this
//    table: six dependent 64x64 multiplies per draw emulate poorly on AVX2
//    and the vector version measured slower (see the "rand lane" section).

#include <cstring>

#include "engine/kernels/kernels.h"
#include "engine/kernels/kernels_scalar.h"

#if defined(__AVX2__)

#include <immintrin.h>

namespace vdb::engine::kernels {

namespace {

// ---- 64-bit building blocks -------------------------------------------------

/// Low 64 bits of a 64x64 multiply per lane (AVX2 has no _mm256_mullo_epi64):
/// alo*blo + ((alo*bhi + ahi*blo) << 32), all mod 2^64.
inline __m256i Mul64(__m256i a, __m256i b) {
  const __m256i alo_bhi = _mm256_mul_epu32(a, _mm256_srli_epi64(b, 32));
  const __m256i ahi_blo = _mm256_mul_epu32(_mm256_srli_epi64(a, 32), b);
  const __m256i hi = _mm256_add_epi64(alo_bhi, ahi_blo);
  const __m256i lo = _mm256_mul_epu32(a, b);
  return _mm256_add_epi64(_mm256_slli_epi64(hi, 32), lo);
}

inline __m256i Set1(uint64_t v) {
  return _mm256_set1_epi64x(static_cast<long long>(v));
}

/// SplitMix64Finalize (common/random.h), 4 lanes.
inline __m256i SplitMixFinalizeV(__m256i z) {
  z = Mul64(_mm256_xor_si256(z, _mm256_srli_epi64(z, 30)),
            Set1(0xBF58476D1CE4E5B9ull));
  z = Mul64(_mm256_xor_si256(z, _mm256_srli_epi64(z, 27)),
            Set1(0x94D049BB133111EBull));
  return _mm256_xor_si256(z, _mm256_srli_epi64(z, 31));
}

/// HashMix64 (common/hash.h), 4 lanes.
inline __m256i HashMix64V(__m256i x) {
  x = _mm256_xor_si256(x, _mm256_srli_epi64(x, 33));
  x = Mul64(x, Set1(0xFF51AFD7ED558CCDull));
  x = _mm256_xor_si256(x, _mm256_srli_epi64(x, 33));
  x = Mul64(x, Set1(0xC4CEB9FE1A85EC53ull));
  return _mm256_xor_si256(x, _mm256_srli_epi64(x, 33));
}

/// u64 -> f64, exact for values < 2^53 (Mysticial's 2^84/2^52 split: the
/// high and low 32-bit halves are folded into doubles via magic biases and
/// recombined; the final add is exact when the true value is representable).
inline __m256d U64ToF64(__m256i x) {
  const __m256i hi_magic =
      _mm256_castpd_si256(_mm256_set1_pd(19342813113834066795298816.0));  // 2^84
  const __m256i lo_magic =
      _mm256_castpd_si256(_mm256_set1_pd(4503599627370496.0));  // 2^52
  __m256i xh = _mm256_srli_epi64(x, 32);
  xh = _mm256_or_si256(xh, hi_magic);
  const __m256i xl = _mm256_blend_epi16(x, lo_magic, 0xCC);
  const __m256d f = _mm256_sub_pd(
      _mm256_castsi256_pd(xh),
      _mm256_set1_pd(19342813118337666422669312.0));  // 2^84 + 2^52
  return _mm256_add_pd(f, _mm256_castsi256_pd(xl));
}

inline __m256i Load4I64(const int64_t* p) {
  return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
}
inline __m256i Load4U64(const uint64_t* p) {
  return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
}

/// Sign bits of 4 int64 lanes as a 4-bit nibble.
inline uint64_t Nibble(__m256i mask) {
  return static_cast<uint64_t>(
      _mm256_movemask_pd(_mm256_castsi256_pd(mask)));
}
inline uint64_t Nibble(__m256d mask) {
  return static_cast<uint64_t>(_mm256_movemask_pd(mask));
}

// ---- comparison kernels -----------------------------------------------------

/// Runs `nibble4(i)` (4 compare bits for rows [i, i+4)) over all whole
/// 64-row blocks, optionally complementing each word, then defers the tail
/// to the scalar reference via `tail_word(base, m)`.
template <typename Nibble4, typename TailWord>
inline void CmpDrive(size_t n, uint64_t* bits, bool invert, Nibble4 nibble4,
                     TailWord tail_word) {
  const size_t nfull = n & ~size_t{63};
  for (size_t base = 0; base < nfull; base += 64) {
    uint64_t word = 0;
    for (size_t v = 0; v < 16; ++v) {
      word |= nibble4(base + v * 4) << (v * 4);
    }
    bits[base / 64] = invert ? ~word : word;
  }
  if (n > nfull) bits[nfull / 64] = tail_word(nfull, n - nfull);
}

/// Decomposes an Int64 compare into (cmpeq | cmpgt with operand order) and a
/// complement, the canonical AVX2 forms: Lt(a,b) = Gt(b,a), Le = ~Gt,
/// Ge = ~Lt, Ne = ~Eq.
template <typename LoadA, typename LoadB, typename GetB>
inline void CmpI64Drive(CmpOp op, size_t n, uint64_t* bits, LoadA la, LoadB lb,
                        const int64_t* a, GetB getb) {
  auto tail = [&](size_t base, size_t m) {
    return scalar::CmpWord(op, a, getb, base, m);
  };
  switch (op) {
    case CmpOp::kEq:
      CmpDrive(n, bits, false,
               [&](size_t i) {
                 return Nibble(_mm256_cmpeq_epi64(la(i), lb(i)));
               },
               tail);
      return;
    case CmpOp::kNe:
      CmpDrive(n, bits, true,
               [&](size_t i) {
                 return Nibble(_mm256_cmpeq_epi64(la(i), lb(i)));
               },
               tail);
      return;
    case CmpOp::kLt:
      CmpDrive(n, bits, false,
               [&](size_t i) {
                 return Nibble(_mm256_cmpgt_epi64(lb(i), la(i)));
               },
               tail);
      return;
    case CmpOp::kLe:
      CmpDrive(n, bits, true,
               [&](size_t i) {
                 return Nibble(_mm256_cmpgt_epi64(la(i), lb(i)));
               },
               tail);
      return;
    case CmpOp::kGt:
      CmpDrive(n, bits, false,
               [&](size_t i) {
                 return Nibble(_mm256_cmpgt_epi64(la(i), lb(i)));
               },
               tail);
      return;
    case CmpOp::kGe:
      CmpDrive(n, bits, true,
               [&](size_t i) {
                 return Nibble(_mm256_cmpgt_epi64(lb(i), la(i)));
               },
               tail);
      return;
  }
}

/// Double compares from ordered lt/gt masks only (the NaN-in-the-equal-
/// bucket convention): Eq = ~(lt|gt), Ne = lt|gt, Le = ~gt, Ge = ~lt.
template <typename LoadA, typename LoadB, typename GetB>
inline void CmpF64Drive(CmpOp op, size_t n, uint64_t* bits, LoadA la, LoadB lb,
                        const double* a, GetB getb) {
  auto tail = [&](size_t base, size_t m) {
    return scalar::CmpWord(op, a, getb, base, m);
  };
  auto lt = [&](size_t i) {
    return Nibble(_mm256_cmp_pd(la(i), lb(i), _CMP_LT_OQ));
  };
  auto gt = [&](size_t i) {
    return Nibble(_mm256_cmp_pd(la(i), lb(i), _CMP_GT_OQ));
  };
  auto ltgt = [&](size_t i) {
    return Nibble(_mm256_or_pd(_mm256_cmp_pd(la(i), lb(i), _CMP_LT_OQ),
                               _mm256_cmp_pd(la(i), lb(i), _CMP_GT_OQ)));
  };
  switch (op) {
    case CmpOp::kEq: CmpDrive(n, bits, true, ltgt, tail); return;
    case CmpOp::kNe: CmpDrive(n, bits, false, ltgt, tail); return;
    case CmpOp::kLt: CmpDrive(n, bits, false, lt, tail); return;
    case CmpOp::kLe: CmpDrive(n, bits, true, gt, tail); return;
    case CmpOp::kGt: CmpDrive(n, bits, false, gt, tail); return;
    case CmpOp::kGe: CmpDrive(n, bits, true, lt, tail); return;
  }
}

void CmpI64VV(CmpOp op, const int64_t* a, const int64_t* b, size_t n,
              uint64_t* bits) {
  CmpI64Drive(
      op, n, bits, [&](size_t i) { return Load4I64(a + i); },
      [&](size_t i) { return Load4I64(b + i); }, a,
      [&](size_t k) { return b[k]; });
}

void CmpI64VC(CmpOp op, const int64_t* a, int64_t c, size_t n,
              uint64_t* bits) {
  const __m256i cv = _mm256_set1_epi64x(static_cast<long long>(c));
  CmpI64Drive(
      op, n, bits, [&](size_t i) { return Load4I64(a + i); },
      [&](size_t) { return cv; }, a, [&](size_t) { return c; });
}

void CmpF64VV(CmpOp op, const double* a, const double* b, size_t n,
              uint64_t* bits) {
  CmpF64Drive(
      op, n, bits, [&](size_t i) { return _mm256_loadu_pd(a + i); },
      [&](size_t i) { return _mm256_loadu_pd(b + i); }, a,
      [&](size_t k) { return b[k]; });
}

void CmpF64VC(CmpOp op, const double* a, double c, size_t n, uint64_t* bits) {
  const __m256d cv = _mm256_set1_pd(c);
  CmpF64Drive(
      op, n, bits, [&](size_t i) { return _mm256_loadu_pd(a + i); },
      [&](size_t) { return cv; }, a, [&](size_t) { return c; });
}

// ---- arithmetic kernels -----------------------------------------------------

template <typename LoadA, typename LoadB, typename GetA, typename GetB>
inline void ArithI64Drive(ArithOp op, size_t n, int64_t* out, LoadA la,
                          LoadB lb, GetA ga, GetB gb) {
  const size_t nfull = n & ~size_t{3};
  switch (op) {
    case ArithOp::kAdd:
      for (size_t i = 0; i < nfull; i += 4) {
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i),
                            _mm256_add_epi64(la(i), lb(i)));
      }
      break;
    case ArithOp::kSub:
      for (size_t i = 0; i < nfull; i += 4) {
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i),
                            _mm256_sub_epi64(la(i), lb(i)));
      }
      break;
    case ArithOp::kMul:
      for (size_t i = 0; i < nfull; i += 4) {
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i),
                            Mul64(la(i), lb(i)));
      }
      break;
  }
  for (size_t k = nfull; k < n; ++k) {
    out[k] = scalar::ArithApply(op, ga(k), gb(k));
  }
}

template <typename LoadA, typename LoadB, typename GetA, typename GetB>
inline void ArithF64Drive(ArithOp op, size_t n, double* out, LoadA la,
                          LoadB lb, GetA ga, GetB gb) {
  const size_t nfull = n & ~size_t{3};
  switch (op) {
    case ArithOp::kAdd:
      for (size_t i = 0; i < nfull; i += 4) {
        _mm256_storeu_pd(out + i, _mm256_add_pd(la(i), lb(i)));
      }
      break;
    case ArithOp::kSub:
      for (size_t i = 0; i < nfull; i += 4) {
        _mm256_storeu_pd(out + i, _mm256_sub_pd(la(i), lb(i)));
      }
      break;
    case ArithOp::kMul:
      for (size_t i = 0; i < nfull; i += 4) {
        _mm256_storeu_pd(out + i, _mm256_mul_pd(la(i), lb(i)));
      }
      break;
  }
  for (size_t k = nfull; k < n; ++k) {
    out[k] = scalar::ArithApply(op, ga(k), gb(k));
  }
}

void ArithI64VV(ArithOp op, const int64_t* a, const int64_t* b, size_t n,
                int64_t* out) {
  ArithI64Drive(
      op, n, out, [&](size_t i) { return Load4I64(a + i); },
      [&](size_t i) { return Load4I64(b + i); },
      [&](size_t k) { return a[k]; }, [&](size_t k) { return b[k]; });
}
void ArithI64VC(ArithOp op, const int64_t* a, int64_t c, size_t n,
                int64_t* out) {
  const __m256i cv = _mm256_set1_epi64x(static_cast<long long>(c));
  ArithI64Drive(
      op, n, out, [&](size_t i) { return Load4I64(a + i); },
      [&](size_t) { return cv; }, [&](size_t k) { return a[k]; },
      [&](size_t) { return c; });
}
void ArithI64CV(ArithOp op, int64_t c, const int64_t* b, size_t n,
                int64_t* out) {
  const __m256i cv = _mm256_set1_epi64x(static_cast<long long>(c));
  ArithI64Drive(
      op, n, out, [&](size_t) { return cv; },
      [&](size_t i) { return Load4I64(b + i); }, [&](size_t) { return c; },
      [&](size_t k) { return b[k]; });
}
void ArithF64VV(ArithOp op, const double* a, const double* b, size_t n,
                double* out) {
  ArithF64Drive(
      op, n, out, [&](size_t i) { return _mm256_loadu_pd(a + i); },
      [&](size_t i) { return _mm256_loadu_pd(b + i); },
      [&](size_t k) { return a[k]; }, [&](size_t k) { return b[k]; });
}
void ArithF64VC(ArithOp op, const double* a, double c, size_t n, double* out) {
  const __m256d cv = _mm256_set1_pd(c);
  ArithF64Drive(
      op, n, out, [&](size_t i) { return _mm256_loadu_pd(a + i); },
      [&](size_t) { return cv; }, [&](size_t k) { return a[k]; },
      [&](size_t) { return c; });
}
void ArithF64CV(ArithOp op, double c, const double* b, size_t n, double* out) {
  const __m256d cv = _mm256_set1_pd(c);
  ArithF64Drive(
      op, n, out, [&](size_t) { return cv; },
      [&](size_t i) { return _mm256_loadu_pd(b + i); },
      [&](size_t) { return c; }, [&](size_t k) { return b[k]; });
}

// ---- mask conversion --------------------------------------------------------

void BytesNonzeroBits(const uint8_t* bytes, size_t n, uint64_t* bits) {
  const size_t nfull = n & ~size_t{63};
  const __m256i zero = _mm256_setzero_si256();
  for (size_t base = 0; base < nfull; base += 64) {
    const __m256i lo = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(bytes + base));
    const __m256i hi = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(bytes + base + 32));
    // movemask over cmpeq-zero gives "byte IS zero" bits; complement them.
    const uint32_t zlo = static_cast<uint32_t>(
        _mm256_movemask_epi8(_mm256_cmpeq_epi8(lo, zero)));
    const uint32_t zhi = static_cast<uint32_t>(
        _mm256_movemask_epi8(_mm256_cmpeq_epi8(hi, zero)));
    bits[base / 64] = static_cast<uint64_t>(~zlo) |
                      (static_cast<uint64_t>(~zhi) << 32);
  }
  if (n > nfull) {
    scalar::BytesNonzeroBits(bytes + nfull, n - nfull, bits + nfull / 64);
  }
}

// ---- rand lane --------------------------------------------------------------

// The AVX2 table dispatches the SCALAR rand lane. CounterRandomDouble is six
// dependent 64x64-bit multiplies per draw; AVX2 has no 64-bit multiply, so
// each one emulates as 3 vpmuludq + shifts/adds (Mul64 above), and the 4-wide
// vectorized chain measured ~0.7x the scalar loop on the reference host
// (bench_micro_filter, "rand_f64_seq"). A lane only earns a slot in a faster
// table by winning; AVX-512DQ's native vpmullq would change the balance. The
// U64ToF64 2^84/2^52 magic-split conversion this lane prototyped lives on in
// git history should that happen.

// ---- group/join key hash lane -----------------------------------------------

void HashMixI64(uint64_t* h, const int64_t* data, const uint8_t* nulls,
                uint64_t null_hash, size_t n) {
  const size_t nfull = n & ~size_t{3};
  const __m256i k = Set1(0x9E3779B97F4A7C15ull);
  const __m256i null_hash_v = Set1(null_hash);
  const __m256i zero = _mm256_setzero_si256();
  for (size_t i = 0; i < nfull; i += 4) {
    __m256i v = HashMix64V(Load4I64(data + i));
    if (nulls != nullptr) {
      uint32_t nb;
      std::memcpy(&nb, nulls + i, sizeof(nb));
      const __m256i nz = _mm256_cvtepu8_epi64(_mm_cvtsi32_si128(
          static_cast<int>(nb)));
      const __m256i is_null = _mm256_cmpgt_epi64(nz, zero);
      v = _mm256_blendv_epi8(v, null_hash_v, is_null);
    }
    // MixGroupHash(h, v) = HashMix64(h ^ (v + K + (h << 6) + (h >> 2)))
    const __m256i hv = Load4U64(h + i);
    const __m256i mixed = _mm256_xor_si256(
        hv, _mm256_add_epi64(
                _mm256_add_epi64(v, k),
                _mm256_add_epi64(_mm256_slli_epi64(hv, 6),
                                 _mm256_srli_epi64(hv, 2))));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(h + i), HashMix64V(mixed));
  }
  if (n > nfull) {
    scalar::HashMixI64(h + nfull, data + nfull,
                       nulls == nullptr ? nullptr : nulls + nfull, null_hash,
                       n - nfull);
  }
}

// ---- join Bloom pre-probe ---------------------------------------------------

void BloomPrefilter(const uint64_t* bloom_words, int shift,
                    const uint64_t* hashes, size_t n, uint64_t* bits) {
  const size_t nfull = n & ~size_t{63};
  const __m128i shift_count = _mm_cvtsi32_si128(shift);
  const __m256i one = Set1(1);
  const __m256i six3 = Set1(63);
  for (size_t base = 0; base < nfull; base += 64) {
    uint64_t word = 0;
    for (size_t v = 0; v < 16; ++v) {
      const __m256i hv = Load4U64(hashes + base + v * 4);
      const __m256i idx = _mm256_srl_epi64(hv, shift_count);
      const __m256i blocks = _mm256_i64gather_epi64(
          reinterpret_cast<const long long*>(bloom_words), idx, 8);
      const __m256i b1 =
          _mm256_and_si256(_mm256_srli_epi64(hv, 38), six3);
      const __m256i b2 =
          _mm256_and_si256(_mm256_srli_epi64(hv, 44), six3);
      const __m256i mask = _mm256_or_si256(_mm256_sllv_epi64(one, b1),
                                           _mm256_sllv_epi64(one, b2));
      const __m256i hit = _mm256_cmpeq_epi64(
          _mm256_and_si256(blocks, mask), mask);
      word |= Nibble(hit) << (v * 4);
    }
    bits[base / 64] = word;
  }
  if (n > nfull) {
    scalar::BloomPrefilter(bloom_words, shift, hashes + nfull, n - nfull,
                           bits + nfull / 64);
  }
}

// ---- materialization gather lanes -------------------------------------------

/// 4 uint32 row indices zero-extended to 64-bit gather lanes. i32-indexed
/// gathers (_mm256_i32gather_*) treat indices as SIGNED, which would read
/// rows >= 2^31 at negative offsets; cvtepu32 + i64gather is exact over the
/// engine's full 2^32 - 2 row-id range.
inline __m256i LoadIdx4(const uint32_t* rows) {
  return _mm256_cvtepu32_epi64(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(rows)));
}

void GatherI64(const int64_t* src, const uint32_t* rows, size_t n,
               int64_t* out) {
  const size_t nfull = n & ~size_t{3};
  for (size_t i = 0; i < nfull; i += 4) {
    _mm256_storeu_si256(
        reinterpret_cast<__m256i*>(out + i),
        _mm256_i64gather_epi64(reinterpret_cast<const long long*>(src),
                               LoadIdx4(rows + i), 8));
  }
  if (n > nfull) scalar::GatherI64(src, rows + nfull, n - nfull, out + nfull);
}

void GatherF64(const double* src, const uint32_t* rows, size_t n,
               double* out) {
  const size_t nfull = n & ~size_t{3};
  for (size_t i = 0; i < nfull; i += 4) {
    _mm256_storeu_pd(out + i,
                     _mm256_i64gather_pd(src, LoadIdx4(rows + i), 8));
  }
  if (n > nfull) scalar::GatherF64(src, rows + nfull, n - nfull, out + nfull);
}

// ---- scatter-accumulate lanes -----------------------------------------------

// The AVX2 table dispatches the SCALAR scatter-sum lanes. The Neumaier
// (sum, comp) recurrence is a loop-carried dependency through whichever
// group the current row hits: lane k+1 may target the same gid as lane k, so
// a 4-wide step needs conflict detection (vpconflictd is AVX-512CD) plus a
// serial in-register fold for colliding lanes, and the compensated add's
// abs-compare branch becomes two extra blends per element. A prototype
// measured below parity on the reference host (bench_agg's group-count
// sweep is the workload: scatter time is the per-group load-add-store
// chain, not lane arithmetic) before the conflict handling was even
// correct for 3+ way collisions — and
// the i64 lane additionally needs per-element exact int64->double conversion
// (vcvtqq2pd is AVX-512DQ; the 2^84/2^52 magic split above is only exact
// below 2^53). A lane only earns a slot by winning; AVX-512 would reopen
// both doors.

const KernelOps kAvx2Ops = {
    CmpI64VV,
    CmpI64VC,
    CmpF64VV,
    CmpF64VC,
    ArithI64VV,
    ArithI64VC,
    ArithI64CV,
    ArithF64VV,
    ArithF64VC,
    ArithF64CV,
    BytesNonzeroBits,
    scalar::RandF64Seq,  // see "rand lane" above: scalar wins on AVX2
    HashMixI64,
    BloomPrefilter,
    GatherI64,
    GatherF64,
    scalar::ScatterSumI64,  // see "scatter-accumulate lanes" above
    scalar::ScatterSumF64,
};

}  // namespace

const KernelOps& Avx2Ops() { return kAvx2Ops; }

}  // namespace vdb::engine::kernels

#endif  // __AVX2__
