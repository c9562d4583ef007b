#ifndef ROBOPT_ML_SIMD_DISPATCH_H_
#define ROBOPT_ML_SIMD_DISPATCH_H_

#include <cstddef>
#include <cstdint>

namespace robopt {
namespace simd {

/// The instruction-set lanes the Concat/PruneBoundary inner loops can run
/// on. Exactly one is active per process; every lane computes bit-identical
/// results for the primitives below (an element-wise float add, a byte OR
/// and an integer compare round the same way on every lane), so lane
/// selection is a pure speed choice.
enum class Lane {
  kScalar = 0,  ///< Portable C++ — always compiled, always correct.
  kAvx2 = 1,    ///< x86-64 with AVX2 (checked at runtime via cpuid).
  kNeon = 2,    ///< aarch64 Advanced SIMD (baseline on every aarch64).
};

/// Human-readable lane name ("scalar" / "avx2" / "neon").
const char* LaneName(Lane lane);

/// The lane the process resolved at first use: the best lane this binary
/// compiled *and* this CPU supports, unless the `ROBOPT_SIMD` environment
/// variable (read once) pins it down. Accepted values: `scalar`, `avx2`,
/// `neon`, `auto` (same as unset). A requested lane the machine cannot run
/// falls back to the best available one rather than crashing — pinning is a
/// test/ops override, not a correctness knob.
Lane ActiveLane();

/// Test hook: overrides the resolved lane for the rest of the process (same
/// fallback rule as the env variable). Not synchronized against concurrent
/// primitive calls — call it from test setup, before spinning up threads.
void ForceLaneForTest(Lane lane);

/// The function-pointer table of one lane. Resolved once by ActiveLane();
/// callers grab it via Ops() and call through it in their inner loops.
struct OpsTable {
  /// dst[i] = a[i] + b[i] — the Concat feature-row merge.
  void (*add_rows_f32)(float* dst, const float* a, const float* b, size_t n);
  /// dst[i] = a[i] | b[i] — the Concat assignment-row merge.
  void (*or_bytes)(uint8_t* dst, const uint8_t* a, const uint8_t* b,
                   size_t n);
  /// Index of the first element of keys[0, n) equal to `key`, or n — the
  /// PruneBoundary packed-footprint probe over a flat key array.
  size_t (*find_u64)(const uint64_t* keys, size_t n, uint64_t key);
};

/// The active lane's table (initialized on first call, then constant).
const OpsTable& Ops();

// Per-lane tables. kScalarOps is always valid; the AVX2/NEON tables are
// compiled only when the toolchain targets that architecture (their extern
// declarations resolve inside simd_dispatch.cc behind the same #if guards).
extern const OpsTable kScalarOps;
#if defined(__x86_64__) || defined(_M_X64)
extern const OpsTable kAvx2Ops;
#endif
#if defined(__aarch64__)
extern const OpsTable kNeonOps;
#endif

}  // namespace simd
}  // namespace robopt

#endif  // ROBOPT_ML_SIMD_DISPATCH_H_
