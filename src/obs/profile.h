#ifndef ROBOPT_OBS_PROFILE_H_
#define ROBOPT_OBS_PROFILE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace robopt {

class MetricsRegistry;
class Tracer;

/// Observability knobs threaded through OptimizeOptions / ExecutorOptions /
/// EnumeratorOptions. All pointers are borrowed and may be null; with
/// everything unset (the default) the instrumented code paths are skipped
/// entirely and results are bit-identical to an uninstrumented build.
///
/// Compile with -DROBOPT_NO_OBS to constant-fold every instrumentation site
/// away (the ROBOPT_OBS_ON macro below becomes `false`).
struct ObsOptions {
  /// Hot-path counters/histograms land here (relaxed sharded atomics).
  MetricsRegistry* metrics = nullptr;
  /// Per-query span trees land here (bounded lock-free ring).
  Tracer* tracer = nullptr;
  /// Fill the per-call OptimizeProfile / ExecProfile on the result struct.
  bool profile = false;
  /// Trace to record spans under; 0 = start a new trace per call.
  uint64_t trace_id = 0;
  /// Parent span for this call's root span (0 = root).
  uint64_t parent_span = 0;

  bool enabled() const {
    return metrics != nullptr || tracer != nullptr || profile;
  }
};

#ifdef ROBOPT_NO_OBS
#define ROBOPT_OBS_ON(obs) false
#else
#define ROBOPT_OBS_ON(obs) ((obs).enabled())
#endif

/// Where one Optimize() call spent its time, in wall microseconds, keyed by
/// the enumeration phases of Algorithm 1.
struct OptimizePhaseMicros {
  double vectorize_us = 0.0;    ///< Vectorize + Split + singleton Enumerates.
  /// Algorithm 1's queue: building the child lists and priorities, every
  /// dequeue and the per-round bookkeeping (one accumulated value).
  double schedule_us = 0.0;
  double concat_us = 0.0;       ///< All pairwise Concat merges.
  double prune_us = 0.0;        ///< All prune steps (oracle batches included).
  double predict_us = 0.0;      ///< Final getOptimal (ArgMinCost batch).
  double unvectorize_us = 0.0;  ///< Winning row -> ExecutionPlan.
  double total_us = 0.0;        ///< Whole Optimize() call.
};

/// Per-call optimizer profile, attached to OptimizeResult when
/// ObsOptions::profile is set (all-zero otherwise). Everything here is also
/// derivable from EnumerationStats — the profile adds the per-phase
/// timeline and the pruning split in one exportable struct.
struct OptimizeProfile {
  bool enabled = false;
  uint64_t trace_id = 0;  ///< Trace holding this call's span tree (0 = off).
  OptimizePhaseMicros phase;
  size_t plans_enumerated = 0;  ///< Vectors materialized (Table I metric).
  /// Rows into/out of boundary pruning (plain PruneBoundary and the
  /// interesting-property variant both count here).
  size_t boundary_prune_rows_in = 0;
  size_t boundary_prune_rows_out = 0;
  /// Rows into/out of the switch-cap (property-heuristic) prune.
  size_t switch_prune_rows_in = 0;
  size_t switch_prune_rows_out = 0;
  /// Rows actually sent to the cost oracle: the contested rows of every
  /// boundary prune plus the final getOptimal batch. A row alone in its
  /// footprint group is kept unscored and counted in `rows_unscored`.
  size_t oracle_rows = 0;
  size_t oracle_batches = 0;
  size_t rows_unscored = 0;  ///< Pruned rows kept without a cost.
};

/// Per-operator slice of one execution.
struct OpProfile {
  int op = 0;            ///< OperatorId.
  int platform = 0;      ///< Assigned platform.
  int attempts = 0;      ///< Fault-layer attempts (1 = clean run).
  double wall_us = 0.0;  ///< Wall time inside the operator's kernel runs.
  double virt_s = 0.0;   ///< Virtual seconds charged to the operator.
};

/// Per-call executor profile, attached to ExecResult when
/// ObsOptions::profile is set. Per-Execute, never shared: any cross-thread
/// aggregation goes through MetricsRegistry's atomics (see DESIGN.md,
/// "Observability").
struct ExecProfile {
  bool enabled = false;
  uint64_t trace_id = 0;
  std::vector<OpProfile> ops;
  int retries = 0;
  int faults_injected = 0;
  uint64_t breaker_rejections = 0;
  double conversion_virt_s = 0.0;  ///< Virtual seconds in conversions.
  double total_wall_us = 0.0;      ///< Whole Execute() call.
};

}  // namespace robopt

#endif  // ROBOPT_OBS_PROFILE_H_
