// AVX2 lane of the SIMD dispatch shim. This translation unit (and only this
// one) is compiled with -mavx2 — see src/ml/CMakeLists.txt — so plain C++
// here may use AVX2 intrinsics and the compiler may auto-vectorize freely.
// It is safe to *link* into any x86-64 binary: nothing outside the kAvx2Ops
// table references these symbols, and the dispatcher only selects the table
// after cpuid reports AVX2.

#if defined(__x86_64__) || defined(_M_X64)

#include <immintrin.h>

#include "ml/simd_dispatch.h"

namespace robopt {
namespace simd {
namespace {

void Avx2AddRowsF32(float* dst, const float* a, const float* b, size_t n) {
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(
        dst + i, _mm256_add_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i)));
  }
  for (; i < n; ++i) dst[i] = a[i] + b[i];
}

void Avx2OrBytes(uint8_t* dst, const uint8_t* a, const uint8_t* b, size_t n) {
  size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    const __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    const __m256i vb =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                        _mm256_or_si256(va, vb));
  }
  for (; i < n; ++i) dst[i] = a[i] | b[i];
}

size_t Avx2FindU64(const uint64_t* keys, size_t n, uint64_t key) {
  const __m256i needle = _mm256_set1_epi64x(static_cast<long long>(key));
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(keys + i));
    const int mask =
        _mm256_movemask_pd(_mm256_castsi256_pd(_mm256_cmpeq_epi64(v, needle)));
    if (mask != 0) return i + static_cast<size_t>(__builtin_ctz(mask));
  }
  for (; i < n; ++i) {
    if (keys[i] == key) return i;
  }
  return n;
}

}  // namespace

const OpsTable kAvx2Ops = {
    Avx2AddRowsF32,
    Avx2OrBytes,
    Avx2FindU64,
};

}  // namespace simd
}  // namespace robopt

#endif  // defined(__x86_64__) || defined(_M_X64)
