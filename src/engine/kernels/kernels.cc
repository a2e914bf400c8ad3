// Dispatch-level management and the always-built scalar kernel table.
//
// The level is resolved once, lazily, on the first Ops()/CurrentSimdLevel()
// call: best CPU-supported level (DetectedSimdLevel), optionally forced down
// by the VDB_SIMD environment variable — the mechanism behind the CI leg
// that runs the whole suite with SIMD disabled. SetSimdLevelForTest swaps
// the table at runtime (clamped to the detected level), which is how the
// differential fuzz runs every expression under every level in one process.

#include "engine/kernels/kernels.h"

#include <atomic>
#include <cstdlib>
#include <cstring>

#include "engine/kernels/kernels_scalar.h"

namespace vdb::engine::kernels {

#ifdef VDB_HAVE_AVX2
// Defined in kernels_avx2.cc (the one file compiled with -mavx2).
const KernelOps& Avx2Ops();
#endif

namespace {

void CmpI64VV(CmpOp op, const int64_t* a, const int64_t* b, size_t n,
              uint64_t* bits) {
  scalar::CmpVV(op, a, b, n, bits);
}
void CmpI64VC(CmpOp op, const int64_t* a, int64_t c, size_t n,
              uint64_t* bits) {
  scalar::CmpVC(op, a, c, n, bits);
}
void CmpF64VV(CmpOp op, const double* a, const double* b, size_t n,
              uint64_t* bits) {
  scalar::CmpVV(op, a, b, n, bits);
}
void CmpF64VC(CmpOp op, const double* a, double c, size_t n, uint64_t* bits) {
  scalar::CmpVC(op, a, c, n, bits);
}

void ArithI64VV(ArithOp op, const int64_t* a, const int64_t* b, size_t n,
                int64_t* out) {
  scalar::ArithLoop<int64_t>(
      op, [&](size_t k) { return a[k]; }, [&](size_t k) { return b[k]; }, n,
      out);
}
void ArithI64VC(ArithOp op, const int64_t* a, int64_t c, size_t n,
                int64_t* out) {
  scalar::ArithLoop<int64_t>(
      op, [&](size_t k) { return a[k]; }, [&](size_t) { return c; }, n, out);
}
void ArithI64CV(ArithOp op, int64_t c, const int64_t* b, size_t n,
                int64_t* out) {
  scalar::ArithLoop<int64_t>(
      op, [&](size_t) { return c; }, [&](size_t k) { return b[k]; }, n, out);
}
void ArithF64VV(ArithOp op, const double* a, const double* b, size_t n,
                double* out) {
  scalar::ArithLoop<double>(
      op, [&](size_t k) { return a[k]; }, [&](size_t k) { return b[k]; }, n,
      out);
}
void ArithF64VC(ArithOp op, const double* a, double c, size_t n, double* out) {
  scalar::ArithLoop<double>(
      op, [&](size_t k) { return a[k]; }, [&](size_t) { return c; }, n, out);
}
void ArithF64CV(ArithOp op, double c, const double* b, size_t n, double* out) {
  scalar::ArithLoop<double>(
      op, [&](size_t) { return c; }, [&](size_t k) { return b[k]; }, n, out);
}

const KernelOps kScalarOps = {
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
    scalar::RoundF64I64,
    scalar::DivF64VV,
    scalar::DivF64VC,
    scalar::DivF64CV,
    scalar::HashUnitI64,
    scalar::HashUnitF64,
    scalar::SidFromUnitLoop,
    scalar::BytesNonzeroBits,
    scalar::RandF64Seq,
    scalar::HashMixI64,
    scalar::BloomPrefilter,
    scalar::GatherI64,
    scalar::GatherF64,
    scalar::ScatterSumI64,
    scalar::ScatterSumF64,
};

const KernelOps* OpsFor(SimdLevel level) {
#ifdef VDB_HAVE_AVX2
  if (level == SimdLevel::kAvx2) return &Avx2Ops();
#else
  (void)level;
#endif
  return &kScalarOps;
}

SimdLevel ClampToDetected(SimdLevel level) {
  return static_cast<int>(level) <= static_cast<int>(DetectedSimdLevel())
             ? level
             : DetectedSimdLevel();
}

// The pair is atomic (not GUARDED_BY a mutex) because the readers are the
// per-batch kernel call sites — a lock there would serialize the substrate
// the dispatch exists to speed up. SetSimdLevelForTest stores between
// queries; idle pool workers may still load concurrently, so plain fields
// would be a formal (and TSan-visible) race even though every table is an
// immutable static. level and ops are independently atomic rather than one
// word: a reader that sees the new ops with the old level only misreports
// the level name mid-swap, never calls through a torn pointer.
struct Dispatch {
  std::atomic<SimdLevel> level;
  std::atomic<const KernelOps*> ops;

  Dispatch() {
    SimdLevel l = DetectedSimdLevel();
    if (const char* env = std::getenv("VDB_SIMD")) {
      if (std::strcmp(env, "scalar") == 0) {
        l = SimdLevel::kScalar;
      } else if (std::strcmp(env, "avx2") == 0) {
        l = ClampToDetected(SimdLevel::kAvx2);
      }
    }
    level.store(l, std::memory_order_relaxed);
    ops.store(OpsFor(l), std::memory_order_relaxed);
  }
};

Dispatch& GetDispatch() {
  static Dispatch d;
  return d;
}

}  // namespace

SimdLevel DetectedSimdLevel() {
#if defined(VDB_HAVE_AVX2) && (defined(__x86_64__) || defined(__i386__))
  static const SimdLevel detected =
      __builtin_cpu_supports("avx2") ? SimdLevel::kAvx2 : SimdLevel::kScalar;
  return detected;
#else
  return SimdLevel::kScalar;
#endif
}

SimdLevel CurrentSimdLevel() {
  return GetDispatch().level.load(std::memory_order_relaxed);
}

void SetSimdLevelForTest(SimdLevel level) {
  Dispatch& d = GetDispatch();
  const SimdLevel clamped = ClampToDetected(level);
  d.level.store(clamped, std::memory_order_relaxed);
  d.ops.store(OpsFor(clamped), std::memory_order_release);
}

const char* SimdLevelName(SimdLevel level) {
  return level == SimdLevel::kAvx2 ? "avx2" : "scalar";
}

const KernelOps& Ops() {
  return *GetDispatch().ops.load(std::memory_order_acquire);
}

}  // namespace vdb::engine::kernels
