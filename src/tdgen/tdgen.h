#ifndef ROBOPT_TDGEN_TDGEN_H_
#define ROBOPT_TDGEN_TDGEN_H_

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/feature_schema.h"
#include "exec/executor.h"
#include "ml/metrics.h"
#include "ml/ml_dataset.h"
#include "ml/random_forest.h"
#include "obs/profile.h"
#include "plan/logical_plan.h"

namespace robopt {

/// Options for the scalable training data generator (Section VI). TDGEN
/// supports the paper's three usage modes:
///  (i)   pass a real workload via `workload` — shapes and sizes are
///        extracted from it and similar synthetic plans are generated;
///  (ii)  specify `shapes` + `max_operators` (the default, used by the
///        paper's evaluation);
///  (iii) leave `shapes` at all three values and raise `plans_per_shape`
///        for an exhaustive sweep up to `max_operators`.
struct TdgenOptions {
  /// Topology shapes of the synthetic queries (mode (ii) of Section VI: the
  /// user specifies shapes and a maximum size). Recognized: "pipeline",
  /// "juncture", "loop" — the paper's evaluation uses these three.
  std::vector<std::string> shapes = {"pipeline", "juncture", "loop"};
  /// Mode (i): a real query workload. When non-empty, `shapes` and
  /// `max_operators` are *derived* from these plans (topologies present,
  /// largest operator count) instead of taken from the fields above.
  std::vector<const LogicalPlan*> workload;
  /// Maximum number of operators per synthetic plan.
  int max_operators = 20;
  /// Logical plans generated per shape.
  int plans_per_shape = 6;
  /// Platform-switch cap of the job-generation pruning (beta).
  int beta = 3;
  /// Input-cardinality configuration profiles each plan structure is
  /// instantiated with.
  std::vector<double> cardinality_grid = {1e3, 1e4, 1e5, 1e6, 1e7, 1e8};
  /// Indices into cardinality_grid that are actually *executed* (the set
  /// J_r: all small inputs plus a few medium/large ones); the rest are
  /// imputed by piecewise polynomial interpolation.
  std::vector<int> executed_points = {0, 1, 2, 4, 5};
  /// Degree of the interpolating pieces (the paper settles on 5).
  int interpolation_degree = 5;
  /// Cap on enumerated plan structures kept per logical plan.
  size_t max_structures_per_plan = 48;
  /// Iterations given to loop-shaped plans.
  int loop_iterations = 50;
  /// Label assigned to failed (out-of-memory) jobs so the model learns to
  /// avoid them; the paper simply has no logs for such plans, which leaves
  /// the optimizer blind — a penalty works better.
  double failure_penalty_s = 1e5;
  uint64_t seed = 7;
  /// Generation observability: a "tdgen_generate" span. TrainRuntimeModel
  /// also hands these sinks to the forest, whose "forest_train" span joins
  /// the same trace. The training set and model are bit-identical either
  /// way.
  ObsOptions obs;
};

/// Statistics of one generation run (reported by the Fig. 8 bench and the
/// training example).
struct TdgenReport {
  size_t logical_plans = 0;
  size_t structures = 0;
  size_t jobs_total = 0;
  size_t jobs_executed = 0;
  size_t jobs_imputed = 0;
  size_t jobs_failed = 0;
};

/// TDGEN: generates synthetic logical plans of the requested shapes,
/// enumerates execution plans with the beta-switch pruning, instantiates
/// each with the cardinality profiles, executes a subset on the (simulated)
/// cluster and imputes the rest via interpolation — producing a labeled
/// training set for the runtime model in minutes instead of months.
class Tdgen {
 public:
  /// All pointers must outlive the generator.
  Tdgen(const PlatformRegistry* registry, const FeatureSchema* schema,
        const Executor* executor, TdgenOptions options = {});

  /// Runs the full pipeline and returns the labeled training set.
  StatusOr<MlDataset> Generate(TdgenReport* report = nullptr);

 private:
  const PlatformRegistry* registry_;
  const FeatureSchema* schema_;
  const Executor* executor_;
  TdgenOptions options_;
};

/// Convenience: run TDGEN, train the paper's random-forest runtime model on
/// a 90/10 split, and return it (plus holdout metrics / generation report
/// through the out-params when non-null).
StatusOr<std::unique_ptr<RandomForest>> TrainRuntimeModel(
    const PlatformRegistry* registry, const FeatureSchema* schema,
    const Executor* executor, TdgenOptions options = {},
    RegressionMetrics* holdout = nullptr, TdgenReport* report = nullptr);

}  // namespace robopt

#endif  // ROBOPT_TDGEN_TDGEN_H_
