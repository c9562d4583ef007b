// The flattened SoA ForestKernel vs the per-DecisionTree reference walk over
// a 59049-row enumeration and a cache-hot slice of it. Every timed variant
// is checked bit-identical to the per-tree reference (the contract of
// DESIGN.md, "Forest kernel"), and the optimizer over the kernel must pick
// the identical plan at 1, 2 and 8 threads. The run fails if a vector lane
// is active but the SIMD kernel clears less than 2.5x over the reference in
// both measured regimes (enumeration pool and cache-hot slice; target: 4x).
// Emits BENCH_simd.json.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "core/operations.h"
#include "core/optimizer.h"
#include "ml/random_forest.h"
#include "ml/simd_dispatch.h"
#include "workloads/synthetic.h"

namespace robopt {
namespace {

/// Times `fn` five times and returns the minimum, in seconds. For the
/// speedup-gated kernel comparisons: scheduler interference on small CI
/// hosts only ever *adds* time, so the min is the robust estimator of the
/// true cost where a median can still be contaminated.
template <typename Fn>
double MinSeconds(const Fn& fn) {
  double best = 0.0;
  for (int sample = 0; sample < 5; ++sample) {
    Stopwatch stopwatch;
    fn();
    const double s = stopwatch.ElapsedMillis() / 1000.0;
    if (sample == 0 || s < best) best = s;
  }
  return best;
}

void CheckBitEqual(const std::vector<float>& got,
                   const std::vector<float>& expected, const char* what) {
  if (got.size() != expected.size() ||
      std::memcmp(got.data(), expected.data(),
                  got.size() * sizeof(float)) != 0) {
    std::fprintf(stderr, "FATAL: %s differs from the per-tree reference\n",
                 what);
    std::abort();
  }
}

int Main() {
  PlatformRegistry registry = PlatformRegistry::Synthetic(3);
  FeatureSchema schema(&registry);
  LogicalPlan plan = MakeSyntheticPipeline(12, 1e7, 3);
  auto made = EnumerationContext::Make(&plan, &registry, &schema);
  if (!made.ok()) {
    std::fprintf(stderr, "context: %s\n", made.status().ToString().c_str());
    return 1;
  }
  const EnumerationContext ctx = std::move(made).value();

  // A 3^9-row pool concatenated with a 3-row singleton: 59049 rows — the
  // shape of a late enumeration step, where the oracle dominates.
  AbstractPlanVector left_ops;
  for (OperatorId op = 0; op < 9; ++op) left_ops.ops.push_back(op);
  AbstractPlanVector right_ops;
  right_ops.ops = {9};
  const PlanVectorEnumeration left = Enumerate(ctx, left_ops);
  const PlanVectorEnumeration right = Enumerate(ctx, right_ops);
  const PlanVectorEnumeration big = Concat(ctx, left, right);
  const size_t n = big.size();
  const size_t dim = big.width();
  std::fprintf(stderr, "[bench] %zu rows, width %zu, hardware threads %d\n",
               n, dim, ThreadPool::HardwareThreads());

  // A 60-tree forest over the schema width (inference cost is what matters,
  // not model quality), pinned serial so the kernel-vs-reference
  // comparison measures layout, not threading.
  MlDataset data(schema.width());
  Rng rng(17);
  std::vector<float> row(schema.width());
  for (int i = 0; i < 512; ++i) {
    for (float& cell : row) {
      cell = static_cast<float>(rng.NextUniform(0, 100));
    }
    data.Add(row, static_cast<float>(rng.NextUniform(0, 1000)));
  }
  RandomForest::Params params;
  params.num_trees = 60;
  params.num_threads = 1;
  RandomForest forest(params);
  if (!forest.Train(data).ok()) {
    std::fprintf(stderr, "forest training failed\n");
    return 1;
  }

  // --- Flattened SoA kernel vs per-tree reference walk. ---
  std::vector<float> reference(n), predicted(n);
  forest.PredictBatchReference(big.feature_pool().data(), n, dim,
                               reference.data());
  const double per_tree_s = MinSeconds([&] {
    forest.PredictBatchReference(big.feature_pool().data(), n, dim,
                                 predicted.data());
  });
  CheckBitEqual(predicted, reference, "ForestKernel warmup");
  const double kernel_s = MinSeconds([&] {
    forest.PredictBatch(big.feature_pool().data(), n, dim, predicted.data());
  });
  CheckBitEqual(predicted, reference, "ForestKernel PredictBatch");
  const double kernel_speedup = kernel_s > 0 ? per_tree_s / kernel_s : 0.0;
  std::fprintf(stderr,
               "[bench] per-tree %.4fs  kernel %.4fs  (%.2fx, bit-equal)\n",
               per_tree_s, kernel_s, kernel_speedup);

  // --- SIMD lane comparison on a hot slice. ---
  // In the optimizer, EstimateBatch runs on a feature pool Concat just
  // wrote, so the rows are cache-hot; a 16384-row slice (copied fresh, one
  // warm pass) reproduces that regime and isolates compute from DRAM
  // streaming. Three variants: per-tree reference, the SoA kernel pinned to
  // the scalar lane, and the kernel on the best lane (extrema-speculation
  // grouped walk).
  const simd::Lane best_lane = simd::ActiveLane();
  const size_t hot_n = std::min<size_t>(16384, n);
  std::vector<float> hot(big.feature_pool().begin(),
                         big.feature_pool().begin() +
                             static_cast<ptrdiff_t>(hot_n * dim));
  std::vector<float> hot_reference(hot_n), hot_out(hot_n);
  forest.PredictBatchReference(hot.data(), hot_n, dim, hot_reference.data());
  constexpr int kHotReps = 3;  // Per timing sample, to ride over jitter.
  const double hot_ref_s = MinSeconds([&] {
                             for (int rep = 0; rep < kHotReps; ++rep) {
                               forest.PredictBatchReference(
                                   hot.data(), hot_n, dim, hot_out.data());
                             }
                           }) /
                           kHotReps;
  CheckBitEqual(hot_out, hot_reference, "hot reference rerun");

  simd::ForceLaneForTest(simd::Lane::kScalar);
  const double hot_scalar_s = MinSeconds([&] {
                                for (int rep = 0; rep < kHotReps; ++rep) {
                                  forest.PredictBatch(hot.data(), hot_n, dim,
                                                      hot_out.data());
                                }
                              }) /
                              kHotReps;
  CheckBitEqual(hot_out, hot_reference, "scalar-lane SoA kernel");

  simd::ForceLaneForTest(best_lane);
  const double hot_simd_s = MinSeconds([&] {
                              for (int rep = 0; rep < kHotReps; ++rep) {
                                forest.PredictBatch(hot.data(), hot_n, dim,
                                                    hot_out.data());
                              }
                            }) /
                            kHotReps;
  CheckBitEqual(hot_out, hot_reference, "SIMD-lane SoA kernel");

  auto rows_per_s = [&](double s) {
    return s > 0 ? static_cast<double>(hot_n) / s : 0.0;
  };
  const double hot_simd_speedup = hot_simd_s > 0 ? hot_ref_s / hot_simd_s : 0;
  std::fprintf(stderr,
               "[bench] hot %zu rows (lane %s): reference %.1f rows/us  "
               "scalar-SoA %.1f  simd %.1f (%.2fx)\n",
               hot_n, simd::LaneName(best_lane), rows_per_s(hot_ref_s) / 1e6,
               rows_per_s(hot_scalar_s) / 1e6, rows_per_s(hot_simd_s) / 1e6,
               hot_simd_speedup);

  // --- The optimizer end to end over the kernel: the identical plan at the
  // identical cost at every thread count. ---
  MlCostOracle oracle(&forest);
  RoboptOptimizer optimizer(&registry, &schema, &oracle);
  OptimizeOptions base_options;
  base_options.num_threads = 1;
  auto base = optimizer.Optimize(plan, nullptr, base_options);
  if (!base.ok()) {
    std::fprintf(stderr, "optimize: %s\n", base.status().ToString().c_str());
    return 1;
  }
  for (int threads : {1, 2, 8}) {
    OptimizeOptions options;
    options.num_threads = threads;
    auto run = optimizer.Optimize(plan, nullptr, options);
    if (!run.ok()) {
      std::fprintf(stderr, "optimize failed at %d threads\n", threads);
      return 1;
    }
    for (const LogicalOperator& op : plan.operators()) {
      if (run->plan.alt_index(op.id) != base->plan.alt_index(op.id)) {
        std::fprintf(stderr, "FATAL: plans differ at %d threads\n", threads);
        std::abort();
      }
    }
    if (run->predicted_runtime_s != base->predicted_runtime_s) {
      std::fprintf(stderr, "FATAL: costs differ at %d threads\n", threads);
      std::abort();
    }
  }
  std::fprintf(stderr,
               "[bench] optimizer identical at 1/2/8 threads (serial %.2fms)\n",
               base->latency_ms);

  FILE* simd_json = std::fopen("BENCH_simd.json", "w");
  if (simd_json == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_simd.json\n");
    return 1;
  }
  std::fprintf(simd_json,
               "{\n"
               "  \"lane\": \"%s\",\n"
               "  \"hot_rows\": %zu,\n"
               "  \"width\": %zu,\n"
               "  \"num_trees\": %d,\n"
               "  \"reference_rows_per_s\": %.0f,\n"
               "  \"scalar_soa_rows_per_s\": %.0f,\n"
               "  \"simd_rows_per_s\": %.0f,\n"
               "  \"simd_speedup_vs_reference\": %.3f,\n"
               "  \"pool_rows\": %zu,\n"
               "  \"pool_speedup_vs_reference\": %.3f,\n"
               "  \"exact_bit_identical\": true,\n"
               "  \"gate_min_pool_speedup\": 2.5,\n"
               "  \"target_speedup\": 4.0\n"
               "}\n",
               simd::LaneName(best_lane), hot_n, dim, params.num_trees,
               rows_per_s(hot_ref_s), rows_per_s(hot_scalar_s),
               rows_per_s(hot_simd_s), hot_simd_speedup, n, kernel_speedup);
  std::fclose(simd_json);
  std::fprintf(stderr, "[bench] wrote BENCH_simd.json\n");

  // Hard SIMD gate (target: 4x): PredictBatch vs PredictBatchReference,
  // taking the better of the two measured regimes — the full enumeration
  // pool (DRAM streaming, where the grouped kernel's bandwidth savings
  // shine) and the cache-hot slice (pure compute). The two ratios move in
  // opposite directions under scheduler jitter on small hosts, so gating
  // on their max keeps the gate meaningful without making CI flaky; both
  // numbers are in BENCH_simd.json. Only enforced when a vector lane is
  // actually active — the CI scalar leg runs with ROBOPT_SIMD=scalar and
  // must not trip it.
  const double gate_speedup = std::max(kernel_speedup, hot_simd_speedup);
  if (best_lane != simd::Lane::kScalar && gate_speedup < 2.5) {
    std::fprintf(stderr,
                 "FAIL: SIMD kernel only %.2fx over the per-tree reference "
                 "(pool %.2fx, hot slice %.2fx; lane %s, need >= 2.5x, "
                 "target 4x)\n",
                 gate_speedup, kernel_speedup, hot_simd_speedup,
                 simd::LaneName(best_lane));
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace robopt

int main() { return robopt::Main(); }
