#ifndef ROBOPT_ML_DECISION_TREE_H_
#define ROBOPT_ML_DECISION_TREE_H_

#include <cstdint>
#include <iosfwd>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "ml/ml_dataset.h"

namespace robopt {

/// Hyperparameters shared by trees and forests.
struct TreeParams {
  int max_depth = 18;
  int min_samples_leaf = 2;
  int min_samples_split = 4;
  /// Features tried per split; 0 means all, -1 means sqrt(dim) (the usual
  /// random-forest default).
  int max_features = -1;
};

/// A training set laid out for exact split finding (SLIQ-style presorting,
/// see DESIGN.md, "Forest training"): features column-major, and each
/// column's rows sorted once by (value, label). Columns constant over the
/// whole set can never split a node, so they are neither copied nor sorted.
class PresortedColumns {
 public:
  /// Lays out `data`'s features with `labels` (one per row) as the labels
  /// — RandomForest passes its transformed ones. Fails on a non-finite
  /// feature or label: the sort needs a strict weak order.
  static StatusOr<PresortedColumns> Build(const MlDataset& data,
                                          std::vector<float> labels);

  size_t rows() const { return labels_.size(); }
  size_t dim() const { return dim_; }
  float label(size_t row) const { return labels_[row]; }
  /// Columns that are not constant over the set, in feature order.
  size_t num_columns() const { return feature_.size(); }
  uint32_t feature(size_t column) const { return feature_[column]; }
  /// The column's value for every row.
  const float* values(size_t column) const {
    return values_.data() + column * rows();
  }
  /// Every row, sorted by the column's (value, label).
  const uint32_t* order(size_t column) const {
    return order_.data() + column * rows();
  }

 private:
  size_t dim_ = 0;
  std::vector<float> labels_;
  std::vector<uint32_t> feature_;
  std::vector<float> values_;
  std::vector<uint32_t> order_;
};

/// CART regression tree (variance-reduction splits), grown on an index
/// subset so forests can bag without copying data. Nodes are stored in a
/// flat array — prediction is a tight loop over ints and floats, in keeping
/// with the repository's vector-first design.
class DecisionTree {
 public:
  DecisionTree() = default;

  /// Fits on `data` restricted to `indices` (with repetitions allowed, for
  /// bootstrap samples). `rng` drives the feature subsampling. Features and
  /// labels must be finite.
  void Fit(const MlDataset& data, const std::vector<uint32_t>& indices,
           const TreeParams& params, Rng* rng);
  /// The same fit over a presorted set, so a forest sorts its columns once
  /// for all of its trees.
  void Fit(const PresortedColumns& columns,
           const std::vector<uint32_t>& indices, const TreeParams& params,
           Rng* rng);

  float Predict(const float* row, size_t dim) const;

  size_t num_nodes() const { return nodes_.size(); }
  int Depth() const;

  /// Flat-array node accessors (the ForestKernel flattens trees through
  /// these). Node 0 is the root; children always follow their parent.
  int32_t node_feature(size_t i) const { return nodes_[i].feature; }
  float node_threshold(size_t i) const { return nodes_[i].threshold; }
  int32_t node_left(size_t i) const { return nodes_[i].left; }
  int32_t node_right(size_t i) const { return nodes_[i].right; }
  float node_value(size_t i) const { return nodes_[i].value; }

  void Serialize(std::ostream& out) const;
  bool Deserialize(std::istream& in);

 private:
  struct Node {
    int32_t feature = -1;  ///< -1 marks a leaf.
    float threshold = 0.0f;
    int32_t left = -1;   ///< Index of the <= child.
    int32_t right = -1;  ///< Index of the > child.
    float value = 0.0f;  ///< Leaf prediction.
  };
  struct Grower;

  std::vector<Node> nodes_;
};

}  // namespace robopt

#endif  // ROBOPT_ML_DECISION_TREE_H_
