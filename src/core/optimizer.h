#ifndef ROBOPT_CORE_OPTIMIZER_H_
#define ROBOPT_CORE_OPTIMIZER_H_

#include "common/status.h"
#include "core/priority_enumeration.h"
#include "obs/profile.h"

namespace robopt {

/// Options for one optimization call.
struct OptimizeOptions {
  /// Restrict the search to these platforms (bit i = platform id i).
  uint64_t allowed_platform_mask = ~0ull;
  /// Platforms masked *out* of the search on top of allowed_platform_mask
  /// (bit i = platform id i); the effective search space is
  /// allowed & ~excluded. The serving layer's re-optimize-on-failure path
  /// sets bits for platforms whose circuit breaker is open, so the
  /// vectorized enumeration never materializes alternatives on a dead
  /// platform. (Driver-pinned collection sources/sinks stay available, as
  /// under any restricted mask — the driver is assumed alive.)
  uint64_t excluded_platform_mask = 0;
  /// Single-platform execution mode (the paper's Section VII-C1): pick one
  /// platform for the whole query instead of mixing.
  bool single_platform = false;
  PriorityMode priority = PriorityMode::kPaper;
  PruneMode prune = PruneMode::kBoundary;
  /// Threads for the enumeration hot path. 0 = hardware concurrency
  /// (default); 1 = the exact serial code path. The chosen plan, its cost
  /// and all EnumerationStats are identical for every value.
  int num_threads = 0;
  /// Observability sinks for this call: hot-path metrics, a span tree in
  /// the tracer, and/or a filled OptimizeResult::profile. All off by
  /// default; the chosen plan, its cost and every stat are bit-identical
  /// with observability on or off. Deliberately not part of the plan-cache
  /// key (PlanSearchOptions) for the same reason num_threads is not.
  ObsOptions obs;
  /// Diagnostics: report up to k runner-up plans (OptimizeResult::
  /// runners_up) next to the winner. Reuses the final getOptimal cost
  /// batch — zero extra oracle work — and the chosen plan and every stat
  /// are bit-identical for any value, so like obs/num_threads it is
  /// excluded from the plan-cache key. 0 (default) skips the selection.
  size_t top_k_runners = 0;
};

/// One runner-up plan the diagnostics path reports alongside the winner:
/// its predicted cost and a stable FNV-1a hash of its assignment bytes
/// (enough to tell "same plan as yesterday" without shipping the plan).
struct PlanRunnerUp {
  float predicted_runtime_s = 0.0f;
  uint64_t assignment_hash = 0;
};

/// Result of one optimization call.
struct OptimizeResult {
  ExecutionPlan plan;
  float predicted_runtime_s = 0.0f;
  EnumerationStats stats;
  /// Wall-clock optimization latency (what Figures 9-10 measure).
  double latency_ms = 0.0;
  /// In single-platform mode: the chosen platform.
  PlatformId chosen_platform = 0;
  /// Version of the model that served this call when the optimizer was
  /// constructed over an OracleProvider (0 with a raw oracle). The whole
  /// call — every prune and the final getOptimal — used this one version,
  /// even if a newer model was published mid-call.
  uint64_t model_version = 0;
  /// Per-call profile (phase timeline, pruning split, oracle rows and
  /// batches). Filled when options.obs.profile is set; all-zero with
  /// profile.enabled == false otherwise.
  OptimizeProfile profile;
  /// With options.top_k_runners > 0: the next-cheapest plans after the
  /// winner, ascending by predicted cost. In single-platform mode these
  /// are the other platforms' per-platform bests. Empty otherwise.
  std::vector<PlanRunnerUp> runners_up;

  OptimizeResult() : plan(nullptr, nullptr) {}
};

/// Robopt: the vector-based, ML-driven cross-platform optimizer (Fig. 4).
/// Given a logical plan it produces the execution plan with the lowest
/// predicted runtime, enumerating entirely over plan vectors.
class RoboptOptimizer {
 public:
  /// All pointers must outlive the optimizer. `oracle` is typically an
  /// MlCostOracle over a trained RandomForest.
  RoboptOptimizer(const PlatformRegistry* registry,
                  const FeatureSchema* schema, const CostOracle* oracle)
      : registry_(registry), schema_(schema), oracle_(oracle) {}

  /// Serving-layer form: instead of one fixed oracle, pin the provider's
  /// current oracle at the start of every Optimize() call. In-flight calls
  /// keep their pinned model while a new one is hot-swapped in;
  /// OptimizeResult::model_version reports which version served the call.
  RoboptOptimizer(const PlatformRegistry* registry,
                  const FeatureSchema* schema, const OracleProvider* provider)
      : registry_(registry), schema_(schema), provider_(provider) {}

  /// Optimizes `plan`. Passing `cards` injects true cardinalities (as the
  /// paper's experiments do); otherwise they are estimated from operator
  /// selectivities.
  StatusOr<OptimizeResult> Optimize(const LogicalPlan& plan,
                                    const Cardinalities* cards = nullptr,
                                    const OptimizeOptions& options = {}) const;

  const FeatureSchema& schema() const { return *schema_; }

 private:
  const PlatformRegistry* registry_;
  const FeatureSchema* schema_;
  const CostOracle* oracle_ = nullptr;
  const OracleProvider* provider_ = nullptr;
};

}  // namespace robopt

#endif  // ROBOPT_CORE_OPTIMIZER_H_
