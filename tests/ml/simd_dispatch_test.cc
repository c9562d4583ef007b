// Runtime SIMD dispatch: every compiled lane must agree with the portable
// scalar lane — bit for bit on the Concat/Prune primitives, and forest
// inference must not depend on the lane.
// The CI scalar leg reruns this whole binary with ROBOPT_SIMD=scalar, so the
// lane matrix is covered from both directions.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/rng.h"
#include "ml/forest_kernel.h"
#include "ml/random_forest.h"
#include "ml/simd_dispatch.h"

namespace robopt {
namespace {

// Every lane this binary compiled and this machine can run. kScalar is
// always present; ForceLaneForTest clamps an unavailable request back to the
// best available lane, so probing with a force + read-back tells us whether
// a lane is really runnable here.
std::vector<simd::Lane> RunnableLanes() {
  const simd::Lane initial = simd::ActiveLane();
  std::vector<simd::Lane> lanes = {simd::Lane::kScalar};
  for (simd::Lane lane : {simd::Lane::kAvx2, simd::Lane::kNeon}) {
    simd::ForceLaneForTest(lane);
    if (simd::ActiveLane() == lane) lanes.push_back(lane);
  }
  simd::ForceLaneForTest(initial);
  return lanes;
}

// Restores the pre-test lane even when an assertion fails mid-test.
class LaneGuard {
 public:
  LaneGuard() : saved_(simd::ActiveLane()) {}
  ~LaneGuard() { simd::ForceLaneForTest(saved_); }

 private:
  simd::Lane saved_;
};

MlDataset MakeDataset(size_t dim, size_t rows, uint64_t seed) {
  MlDataset data(dim);
  Rng rng(seed);
  std::vector<float> row(dim);
  for (size_t i = 0; i < rows; ++i) {
    for (float& cell : row) {
      cell = static_cast<float>(rng.NextUniform(0, 50));
    }
    data.Add(row, static_cast<float>(rng.NextUniform(0, 100)));
  }
  return data;
}

TEST(SimdDispatchTest, EnvOverrideOrBestAvailableLaneIsActive) {
  // ActiveLane() resolves once from ROBOPT_SIMD; when the variable pins a
  // lane (as the CI scalar leg does) the process must actually be on it.
  const char* env = std::getenv("ROBOPT_SIMD");
  const std::string requested = env == nullptr ? "" : env;
  const simd::Lane lane = simd::ActiveLane();
  EXPECT_NE(simd::LaneName(lane), nullptr);
  if (requested == "scalar") {
    EXPECT_EQ(lane, simd::Lane::kScalar);
  }
#if defined(__x86_64__) || defined(_M_X64)
  EXPECT_NE(lane, simd::Lane::kNeon);
#endif
#if defined(__aarch64__)
  EXPECT_NE(lane, simd::Lane::kAvx2);
#endif
}

TEST(SimdDispatchTest, ForceLaneClampsUnavailableRequests) {
  LaneGuard guard;
  simd::ForceLaneForTest(simd::Lane::kScalar);
  EXPECT_EQ(simd::ActiveLane(), simd::Lane::kScalar);
#if defined(__x86_64__) || defined(_M_X64)
  // NEON can never run on x86; the request must clamp, not crash.
  simd::ForceLaneForTest(simd::Lane::kNeon);
  EXPECT_NE(simd::ActiveLane(), simd::Lane::kNeon);
#endif
}

TEST(SimdDispatchTest, AddRowsMatchesScalarOnEveryLane) {
  LaneGuard guard;
  Rng rng(11);
  for (size_t n : {size_t{0}, size_t{1}, size_t{7}, size_t{8}, size_t{31},
                   size_t{200}}) {
    // One spare element so data() is non-null even at n == 0.
    std::vector<float> a(n + 1), b(n + 1), want(n + 1);
    for (size_t i = 0; i < n; ++i) {
      a[i] = static_cast<float>(rng.NextUniform(-10, 10));
      b[i] = static_cast<float>(rng.NextUniform(-10, 10));
    }
    simd::kScalarOps.add_rows_f32(want.data(), a.data(), b.data(), n);
    for (simd::Lane lane : RunnableLanes()) {
      simd::ForceLaneForTest(lane);
      std::vector<float> got(n + 1, -1.0f);
      simd::Ops().add_rows_f32(got.data(), a.data(), b.data(), n);
      EXPECT_EQ(std::memcmp(got.data(), want.data(), n * sizeof(float)), 0)
          << simd::LaneName(lane) << " n=" << n;
    }
  }
}

TEST(SimdDispatchTest, OrBytesMatchesScalarOnEveryLane) {
  LaneGuard guard;
  Rng rng(13);
  for (size_t n : {size_t{0}, size_t{1}, size_t{31}, size_t{32}, size_t{33},
                   size_t{100}}) {
    // One spare element so data() is non-null even at n == 0.
    std::vector<uint8_t> a(n + 1), b(n + 1), want(n + 1);
    for (size_t i = 0; i < n; ++i) {
      a[i] = static_cast<uint8_t>(rng.NextInt(0, 255));
      b[i] = static_cast<uint8_t>(rng.NextInt(0, 255));
    }
    simd::kScalarOps.or_bytes(want.data(), a.data(), b.data(), n);
    for (simd::Lane lane : RunnableLanes()) {
      simd::ForceLaneForTest(lane);
      std::vector<uint8_t> got(n + 1, 0xee);
      simd::Ops().or_bytes(got.data(), a.data(), b.data(), n);
      EXPECT_EQ(std::memcmp(got.data(), want.data(), n), 0)
          << simd::LaneName(lane) << " n=" << n;
    }
  }
}

TEST(SimdDispatchTest, FindU64MatchesScalarOnEveryLane) {
  LaneGuard guard;
  Rng rng(17);
  std::vector<uint64_t> keys(67);
  for (uint64_t& k : keys) {
    k = static_cast<uint64_t>(rng.NextInt(0, 1 << 20));
  }
  keys[3] = keys[40];  // Duplicate: the *first* hit must win.
  for (simd::Lane lane : RunnableLanes()) {
    simd::ForceLaneForTest(lane);
    for (size_t n : {size_t{0}, size_t{1}, size_t{4}, size_t{5}, keys.size()}) {
      for (size_t probe = 0; probe < keys.size(); ++probe) {
        const size_t want =
            simd::kScalarOps.find_u64(keys.data(), n, keys[probe]);
        const size_t got = simd::Ops().find_u64(keys.data(), n, keys[probe]);
        EXPECT_EQ(got, want)
            << simd::LaneName(lane) << " n=" << n << " probe=" << probe;
      }
      // A key that is absent must return n.
      EXPECT_EQ(simd::Ops().find_u64(keys.data(), n, ~uint64_t{0}), n);
    }
  }
}

TEST(SimdDispatchTest, ForestExactModeBitIdenticalAcrossLanesAndThreads) {
  LaneGuard guard;
  const MlDataset data = MakeDataset(24, 500, 23);
  RandomForest::Params params;
  params.num_trees = 12;
  RandomForest forest(params);
  ASSERT_TRUE(forest.Train(data).ok());
  const size_t n = data.size();
  const size_t dim = data.dim();

  std::vector<float> reference(n);
  forest.PredictBatchReference(data.features().data(), n, dim,
                               reference.data());
  std::vector<float> got(n);
  for (simd::Lane lane : RunnableLanes()) {
    simd::ForceLaneForTest(lane);
    for (int threads : {1, 2, 8}) {
      forest.set_num_threads(threads);
      forest.PredictBatch(data.features().data(), n, dim, got.data());
      EXPECT_EQ(std::memcmp(got.data(), reference.data(), n * sizeof(float)),
                0)
          << simd::LaneName(lane) << " threads=" << threads;
    }
  }
}

}  // namespace
}  // namespace robopt
