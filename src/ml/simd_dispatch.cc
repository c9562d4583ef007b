#include "ml/simd_dispatch.h"

#include <atomic>
#include <cstdlib>
#include <cstring>

namespace robopt {
namespace simd {
namespace {

void ScalarAddRowsF32(float* dst, const float* a, const float* b, size_t n) {
  for (size_t i = 0; i < n; ++i) dst[i] = a[i] + b[i];
}

void ScalarOrBytes(uint8_t* dst, const uint8_t* a, const uint8_t* b,
                   size_t n) {
  for (size_t i = 0; i < n; ++i) dst[i] = a[i] | b[i];
}

size_t ScalarFindU64(const uint64_t* keys, size_t n, uint64_t key) {
  for (size_t i = 0; i < n; ++i) {
    if (keys[i] == key) return i;
  }
  return n;
}

/// Best lane this binary compiled and this CPU can run.
Lane BestAvailableLane() {
#if defined(__x86_64__) || defined(_M_X64)
  if (__builtin_cpu_supports("avx2")) return Lane::kAvx2;
  return Lane::kScalar;
#elif defined(__aarch64__)
  return Lane::kNeon;
#else
  return Lane::kScalar;
#endif
}

/// Clamps a requested lane to what the machine can actually execute.
Lane ClampLane(Lane requested) {
  const Lane best = BestAvailableLane();
  switch (requested) {
    case Lane::kScalar:
      return Lane::kScalar;
    case Lane::kAvx2:
      return best == Lane::kAvx2 ? Lane::kAvx2 : best;
    case Lane::kNeon:
      return best == Lane::kNeon ? Lane::kNeon : best;
  }
  return Lane::kScalar;
}

Lane ResolveFromEnv() {
  const char* env = std::getenv("ROBOPT_SIMD");
  if (env == nullptr || std::strcmp(env, "auto") == 0 || env[0] == '\0') {
    return BestAvailableLane();
  }
  if (std::strcmp(env, "scalar") == 0) return ClampLane(Lane::kScalar);
  if (std::strcmp(env, "avx2") == 0) return ClampLane(Lane::kAvx2);
  if (std::strcmp(env, "neon") == 0) return ClampLane(Lane::kNeon);
  // Unrecognized value: ignore it rather than crash a production process.
  return BestAvailableLane();
}

const OpsTable* TableFor(Lane lane) {
  switch (lane) {
    case Lane::kScalar:
      return &kScalarOps;
    case Lane::kAvx2:
#if defined(__x86_64__) || defined(_M_X64)
      return &kAvx2Ops;
#else
      return &kScalarOps;
#endif
    case Lane::kNeon:
#if defined(__aarch64__)
      return &kNeonOps;
#else
      return &kScalarOps;
#endif
  }
  return &kScalarOps;
}

/// The process-wide lane/table, published together. Relaxed loads are fine:
/// both values are immutable after first publication (ForceLaneForTest is
/// documented single-threaded), and any racing first-use would just resolve
/// the same env/cpuid answer again.
struct Resolved {
  Lane lane;
  const OpsTable* table;
};

std::atomic<const Resolved*> g_resolved{nullptr};

const Resolved* ResolveOnce() {
  const Resolved* current = g_resolved.load(std::memory_order_acquire);
  if (current != nullptr) return current;
  const Lane lane = ResolveFromEnv();
  static Resolved storage;  // Zero-init is fine; written before publish.
  storage.lane = lane;
  storage.table = TableFor(lane);
  const Resolved* expected = nullptr;
  if (g_resolved.compare_exchange_strong(expected, &storage,
                                         std::memory_order_acq_rel)) {
    return &storage;
  }
  return expected;  // Another thread won the race with identical values.
}

}  // namespace

const OpsTable kScalarOps = {
    ScalarAddRowsF32,
    ScalarOrBytes,
    ScalarFindU64,
};

const char* LaneName(Lane lane) {
  switch (lane) {
    case Lane::kScalar:
      return "scalar";
    case Lane::kAvx2:
      return "avx2";
    case Lane::kNeon:
      return "neon";
  }
  return "scalar";
}

Lane ActiveLane() { return ResolveOnce()->lane; }

const OpsTable& Ops() { return *ResolveOnce()->table; }

void ForceLaneForTest(Lane lane) {
  const Lane clamped = ClampLane(lane);
  static Resolved forced;
  forced.lane = clamped;
  forced.table = TableFor(clamped);
  g_resolved.store(&forced, std::memory_order_release);
}

}  // namespace simd
}  // namespace robopt
