#ifndef ROBOPT_ML_FOREST_KERNEL_H_
#define ROBOPT_ML_FOREST_KERNEL_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/aligned_vector.h"
#include "ml/decision_tree.h"

namespace robopt {

/// All trees of a trained forest flattened into one contiguous
/// structure-of-arrays node pool: separate `feature`/`threshold`/`left`/
/// `right`/`value` arrays plus per-tree root offsets. Child indices are
/// absolute pool indices, so batch inference is an iterative block-major
/// walk over five dense arrays instead of 60 per-tree traversals of 60
/// separately allocated node vectors per row. Every SoA array starts on a
/// 64-byte boundary (AlignedVector), so vector loads never split a cache
/// line.
///
/// Exact mode is a pure data-layout + scheduling change: traversal
/// decisions, leaf values and accumulation order match the per-tree
/// reference path (RandomForest::PredictBatchReference) exactly, so
/// predictions are bit-identical to it for every thread count and every
/// SIMD dispatch lane (see DESIGN.md, "SIMD inference").
///
/// On a non-scalar lane, PredictBatch runs the extrema-speculation kernel:
/// a SIMD pass computes per-feature min/max summaries of each 16-row group,
/// and one *scalar* walk then descends for the whole group at once —
/// max[f] <= t proves every row goes left, min[f] > t proves every row goes
/// right. Enumeration rows are near-duplicates (neighbors differ in a few
/// one-hot cells), so ~97% of (group, tree) walks never diverge; a group
/// that straddles a split falls back to per-row walks from that node. The
/// design is gather-free: the only SIMD is sequential-streaming min/max,
/// and the traversal itself stays scalar compares — which is also why it is
/// bit-stable (min/max and compares are exact; NaN-carrying groups are
/// detected in the summary pass and walked per-row).
class ForestKernel {
 public:
  /// Rows per inference block. Fixed (never derived from the thread count)
  /// so block boundaries — and therefore float accumulation order — are
  /// identical for every num_threads. 64 rows of accumulators stay resident
  /// in L1 while the node arrays are walked for the whole block.
  static constexpr size_t kRowBlock = 64;

  /// Rows per extrema-speculation group (kRowBlock is a multiple). 16 rows
  /// keeps the min/max summary pass cheap relative to the walks it saves
  /// while amortizing each non-diverging walk over 16 rows; measured on the
  /// enumeration workload, groups of 16 diverge on only ~3% of walks.
  static constexpr size_t kGroupRows = 16;

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

  /// 1 + the largest feature index any split tests (0 for a kernel with no
  /// splits). Batches narrower than this take a guarded scalar path that
  /// reads missing features as 0, exactly like the reference.
  size_t num_features() const {
    return max_feature_ < 0 ? 0 : static_cast<size_t>(max_feature_) + 1;
  }

  /// Test hook: every SoA node array starts on a 64-byte boundary (the
  /// AlignedVector guarantee the SIMD lanes rely on).
  bool node_arrays_aligned() const {
    return IsAligned(feature_.data()) && IsAligned(threshold_.data()) &&
           IsAligned(left_.data()) && IsAligned(right_.data()) &&
           IsAligned(value_.data());
  }

  /// Mean prediction over all trees for `n` rows of `dim` floats; with
  /// `log_label` the mean is mapped back through expm1 and clamped at 0,
  /// exactly as RandomForest does. `num_threads`: 0 = hardware concurrency,
  /// 1 = serial. Results are bit-identical to the reference for every
  /// thread count and dispatch lane. An empty kernel predicts all zeros.
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
  AlignedVector<int32_t> roots_;    ///< Pool index of each tree's root.
  AlignedVector<int32_t> feature_;  ///< < 0 marks a leaf.
  AlignedVector<float> threshold_;
  AlignedVector<int32_t> left_;     ///< Absolute pool index of the <= child.
  AlignedVector<int32_t> right_;    ///< Absolute pool index of the > child.
  AlignedVector<float> value_;      ///< Leaf prediction.
  int32_t max_feature_ = -1;        ///< Largest split feature (-1: none).
};

}  // namespace robopt

#endif  // ROBOPT_ML_FOREST_KERNEL_H_
