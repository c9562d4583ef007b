// NEON lane of the SIMD dispatch shim — the aarch64 mirror of simd_avx2.cc.
// Advanced SIMD is baseline on aarch64, so no extra compile flags and no
// runtime CPU check are needed; the whole file compiles away elsewhere.

#if defined(__aarch64__)

#include <arm_neon.h>

#include "ml/simd_dispatch.h"

namespace robopt {
namespace simd {
namespace {

void NeonAddRowsF32(float* dst, const float* a, const float* b, size_t n) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    vst1q_f32(dst + i, vaddq_f32(vld1q_f32(a + i), vld1q_f32(b + i)));
  }
  for (; i < n; ++i) dst[i] = a[i] + b[i];
}

void NeonOrBytes(uint8_t* dst, const uint8_t* a, const uint8_t* b, size_t n) {
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    vst1q_u8(dst + i, vorrq_u8(vld1q_u8(a + i), vld1q_u8(b + i)));
  }
  for (; i < n; ++i) dst[i] = a[i] | b[i];
}

size_t NeonFindU64(const uint64_t* keys, size_t n, uint64_t key) {
  const uint64x2_t needle = vdupq_n_u64(key);
  size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const uint64x2_t eq = vceqq_u64(vld1q_u64(keys + i), needle);
    if (vgetq_lane_u64(eq, 0) != 0) return i;
    if (vgetq_lane_u64(eq, 1) != 0) return i + 1;
  }
  for (; i < n; ++i) {
    if (keys[i] == key) return i;
  }
  return n;
}

}  // namespace

const OpsTable kNeonOps = {
    NeonAddRowsF32,
    NeonOrBytes,
    NeonFindU64,
};

}  // namespace simd
}  // namespace robopt

#endif  // defined(__aarch64__)
