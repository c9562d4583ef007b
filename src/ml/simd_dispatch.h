#ifndef ROBOPT_ML_SIMD_DISPATCH_H_
#define ROBOPT_ML_SIMD_DISPATCH_H_

namespace robopt {
namespace simd {

/// The widest vector instruction set the compiler targeted when it built
/// this translation unit. It is a provenance label only: the Concat and
/// PruneBoundary loops are plain C++ the compiler vectorizes for that target,
/// and there is no runtime dispatch.
enum class Lane {
  kScalar = 0,  ///< No vector instruction set the label knows of.
  kSse2 = 1,    ///< x86-64 baseline.
  kAvx2 = 2,    ///< x86-64 built with -mavx2 or a -march that implies it.
  kNeon = 3,    ///< aarch64 Advanced SIMD.
};

/// Human-readable lane name ("scalar" / "sse2" / "avx2" / "neon").
constexpr const char* LaneName(Lane lane) {
  switch (lane) {
    case Lane::kSse2:
      return "sse2";
    case Lane::kAvx2:
      return "avx2";
    case Lane::kNeon:
      return "neon";
    case Lane::kScalar:
      break;
  }
  return "scalar";
}

/// The lane this build targets, read from the compiler's predefined macros.
constexpr Lane ActiveLane() {
#if defined(__AVX2__)
  return Lane::kAvx2;
#elif defined(__SSE2__)
  return Lane::kSse2;
#elif defined(__ARM_NEON)
  return Lane::kNeon;
#else
  return Lane::kScalar;
#endif
}

}  // namespace simd
}  // namespace robopt

#endif  // ROBOPT_ML_SIMD_DISPATCH_H_
