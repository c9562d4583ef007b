#ifndef ROBOPT_ML_FOREST_KERNEL_H_
#define ROBOPT_ML_FOREST_KERNEL_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "ml/decision_tree.h"

namespace robopt {

/// All trees of a trained forest flattened into one contiguous
/// structure-of-arrays node pool: separate `feature`/`threshold`/`left`/
/// `right`/`value` arrays plus per-tree root offsets. Child indices are
/// absolute pool indices, so batch inference is an iterative block-major
/// walk over five dense arrays instead of 60 per-tree traversals of 60
/// separately allocated node vectors per row.
///
/// Flattening is a pure data-layout + scheduling change: traversal
/// decisions, leaf values and accumulation order match the per-tree
/// reference path (RandomForest::PredictBatchReference) exactly, so
/// predictions are bit-identical to it for every thread count. The walk
/// is plain scalar C++ (see DESIGN.md, "Forest kernel").
class ForestKernel {
 public:
  /// Rows per inference block. Fixed (never derived from the thread count)
  /// so block boundaries — and therefore float accumulation order — are
  /// identical for every num_threads. 64 rows of accumulators stay resident
  /// in L1 while the node arrays are walked for the whole block.
  static constexpr size_t kRowBlock = 64;

  ForestKernel() = default;

  /// Rebuilds the pool from `trees`: one pass counts nodes so every array
  /// is reserved at its exact final size, a second pass fills them. A
  /// node-less tree (a default-constructed DecisionTree) contributes one
  /// 0-valued leaf, matching its Predict.
  void Build(const std::vector<DecisionTree>& trees);
  void Clear();

  size_t num_trees() const { return roots_.size(); }
  size_t num_nodes() const { return feature_.size(); }
  bool empty() const { return roots_.empty(); }

  /// Mean prediction over all trees for `n` rows of `dim` floats; with
  /// `log_label` the mean is mapped back through expm1 and clamped at 0,
  /// exactly as RandomForest does. A split on a feature index >= `dim`
  /// reads 0, like the reference. `num_threads`: 0 = hardware concurrency,
  /// 1 = serial. Results are bit-identical to the reference for every
  /// thread count. An empty kernel predicts all zeros.
  void PredictBatch(const float* x, size_t n, size_t dim, float* out,
                    bool log_label, int num_threads) const;

  /// Single-row walk of tree `t` (exposed for tests).
  float PredictTree(size_t t, const float* row, size_t dim) const;

  /// Process-wide inference telemetry: rows / batches scored through any
  /// ForestKernel since process start. Two relaxed atomic adds per *batch*
  /// (never per row, and never for an empty batch — n == 0 returns before
  /// the counters), so the counters stay on unconditionally; the
  /// observability layer exports them as
  /// `robopt_ml_forest_rows_scored_total` / `_batches_total`.
  static uint64_t TotalRowsScored();
  static uint64_t TotalBatches();

 private:
  std::vector<int32_t> roots_;    ///< Pool index of each tree's root.
  std::vector<int32_t> feature_;  ///< < 0 marks a leaf.
  std::vector<float> threshold_;
  std::vector<int32_t> left_;     ///< Absolute pool index of the <= child.
  std::vector<int32_t> right_;    ///< Absolute pool index of the > child.
  std::vector<float> value_;      ///< Leaf prediction.
};

}  // namespace robopt

#endif  // ROBOPT_ML_FOREST_KERNEL_H_
