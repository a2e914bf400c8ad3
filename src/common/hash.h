// 64-bit hashing utilities.
//
// VerdictDB's hashed ("universe") samples require the underlying database to
// expose a uniform hash function (the paper suggests md5/crc32). Our engine
// exposes `verdict_hash(x)` which maps any value to [0, 1) via the mixers
// below; HashUnit is the library-side equivalent.

#ifndef VDB_COMMON_HASH_H_
#define VDB_COMMON_HASH_H_

#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>

#include "common/value.h"

namespace vdb {

/// Fibonacci/murmur-style 64-bit mixer. Deterministic across platforms.
/// Inline (header) definition: the SIMD kernel layer (engine/kernels)
/// vectorizes this exact constant/shift chain, and its scalar reference path
/// must inline the same formula the rest of the engine uses.
inline uint64_t HashMix64(uint64_t x) {
  x ^= x >> 33;
  x *= 0xFF51AFD7ED558CCDull;
  x ^= x >> 33;
  x *= 0xC4CEB9FE1A85EC53ull;
  x ^= x >> 33;
  return x;
}

/// HashValue's Double rule (inline: the kernel layer's verdict_hash lanes
/// share it): integral doubles hash like their int64 counterpart, so 3.0 and
/// 3 land in the same universe-sample bucket; every other value (fractions,
/// NaN, +-inf, |d| >= 9.2e18) hashes its bit pattern.
inline uint64_t HashDouble(double d) {
  if (d == std::floor(d) && std::abs(d) < 9.2e18) {
    return HashMix64(static_cast<uint64_t>(static_cast<int64_t>(d)));
  }
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(d));
  std::memcpy(&bits, &d, sizeof(d));
  return HashMix64(bits);
}

/// HashUnit's map of a 64-bit hash into [0, 1): the top 53 bits, scaled
/// exactly.
inline double UnitFromHash(uint64_t h) {
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

/// FNV-1a over bytes, then mixed.
uint64_t HashBytes(const void* data, size_t len);

/// Hash of a Value; equal values (numeric-equal ints/doubles included) hash
/// equally so hashed samples built on either representation agree.
uint64_t HashValue(const Value& v);

/// Maps a value uniformly into [0, 1). Used for universe sample membership
/// checks: t is in the sample iff HashUnit(t.C) < tau.
double HashUnit(const Value& v);

/// CRC32 (IEEE 802.3, table-driven) over a string; exposed in SQL as crc32().
uint32_t Crc32(const std::string& s);

}  // namespace vdb

#endif  // VDB_COMMON_HASH_H_
