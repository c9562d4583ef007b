#ifndef ROBOPT_BASELINE_TRADITIONAL_ENUMERATOR_H_
#define ROBOPT_BASELINE_TRADITIONAL_ENUMERATOR_H_

#include <memory>
#include <vector>

#include "baseline/cost_model.h"
#include "common/status.h"
#include "core/operations.h"
#include "ml/model.h"

namespace robopt {

/// Which oracle the traditional enumerator consults.
enum class TraditionalOracle {
  kCostModel,  ///< RHEEMix: the tuned linear cost model.
  kMlModel,    ///< Rheem-ML: an ML model called as a black box — every
               ///< sub-plan is re-transformed into a vector per invocation
               ///< (the overhead the paper's Fig. 1/9 quantify).
};

struct TraditionalOptions {
  TraditionalOracle oracle = TraditionalOracle::kCostModel;
  bool prune = true;  ///< Boundary pruning, same as Robopt's (fairness).
  uint64_t allowed_platform_mask = ~0ull;
};

struct TraditionalStats {
  /// Sub-plan objects materialized during enumeration.
  size_t subplans_created = 0;
  /// Oracle calls: sub-plans pruning costed (those with a rival in their
  /// footprint) plus the final candidates. Matches Robopt's oracle rows.
  size_t subplans_costed = 0;
  /// Time spent transforming sub-plan object graphs into feature vectors
  /// (Rheem-ML only; the paper measured 47% of optimization time here).
  double vectorize_ms = 0.0;
  /// Time spent inside the oracle.
  double oracle_ms = 0.0;
  double total_ms = 0.0;
};

struct TraditionalResult {
  ExecutionPlan plan;
  double predicted_cost = 0.0;
  TraditionalStats stats;

  TraditionalResult() : plan(nullptr, nullptr) {}
};

/// The traditional, *object-based* plan enumerator used by the paper's two
/// baselines. It explores exactly the same search space with the same
/// boundary pruning and the same (paper) priority order as Robopt — the
/// difference is purely representational: sub-plans are pointer-linked
/// operator objects that are re-allocated on every concatenation and walked
/// on every costing, instead of contiguous float rows.
class TraditionalEnumerator {
 public:
  /// `cost_model` is required for kCostModel, `ml_model` for kMlModel; the
  /// context provides the plan, cardinalities and (for Rheem-ML) the
  /// feature schema. All pointers must outlive the enumerator.
  TraditionalEnumerator(const EnumerationContext* ctx,
                        const CostModel* cost_model,
                        const RuntimeModel* ml_model,
                        TraditionalOptions options);

  StatusOr<TraditionalResult> Run();

 private:
  struct ObjectOperator;
  struct ObjectSubplan;

  double CostOf(const ObjectSubplan& subplan, TraditionalStats* stats) const;
  std::vector<float> VectorizeSubplan(const ObjectSubplan& subplan) const;

  const EnumerationContext* ctx_;
  const CostModel* cost_model_;
  const RuntimeModel* ml_model_;
  TraditionalOptions options_;
};

}  // namespace robopt

#endif  // ROBOPT_BASELINE_TRADITIONAL_ENUMERATOR_H_
