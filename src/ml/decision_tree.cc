#include "ml/decision_tree.h"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <istream>
#include <limits>
#include <numeric>
#include <ostream>
#include <string>

#include "common/check.h"

namespace robopt {

StatusOr<PresortedColumns> PresortedColumns::Build(const MlDataset& data,
                                                   std::vector<float> labels) {
  ROBOPT_CHECK(labels.size() == data.size());
  const size_t rows = data.size();
  const size_t dim = data.dim();
  if (rows > std::numeric_limits<uint32_t>::max()) {
    return Status::InvalidArgument("training set has more than 2^32 rows");
  }
  for (const float label : labels) {
    if (!std::isfinite(label)) {
      return Status::InvalidArgument("non-finite training label");
    }
  }
  // A column varies iff some row differs from the first one.
  std::vector<uint8_t> varies(dim, 0);
  const float* first = data.row(0);
  for (size_t i = 0; i < rows; ++i) {
    const float* row = data.row(i);
    for (size_t f = 0; f < dim; ++f) {
      if (!std::isfinite(row[f])) {
        return Status::InvalidArgument("non-finite value of feature " +
                                       std::to_string(f));
      }
      varies[f] |= row[f] != first[f];
    }
  }

  PresortedColumns set;
  set.dim_ = dim;
  set.labels_ = std::move(labels);
  for (size_t f = 0; f < dim; ++f) {
    if (varies[f]) set.feature_.push_back(static_cast<uint32_t>(f));
  }
  const size_t columns = set.feature_.size();
  set.values_.resize(columns * rows);
  for (size_t i = 0; i < rows; ++i) {
    const float* row = data.row(i);
    for (size_t c = 0; c < columns; ++c) {
      set.values_[c * rows + i] = row[set.feature_[c]];
    }
  }
  // The (value, label) order of std::sort over std::pair<float, float>.
  // Rows whose pairs compare equal are indistinguishable to the split scan,
  // so their relative order does not matter.
  struct Entry {
    float value;
    float label;
    uint32_t row;
  };
  std::vector<Entry> entries(rows);
  set.order_.resize(columns * rows);
  for (size_t c = 0; c < columns; ++c) {
    const float* values = set.values(c);
    for (size_t i = 0; i < rows; ++i) {
      entries[i] = {values[i], set.labels_[i], static_cast<uint32_t>(i)};
    }
    std::sort(entries.begin(), entries.end(),
              [](const Entry& a, const Entry& b) {
                return a.value < b.value ||
                       (a.value == b.value && a.label < b.label);
              });
    uint32_t* order = set.order_.data() + c * rows;
    for (size_t i = 0; i < rows; ++i) order[i] = entries[i].row;
  }
  return set;
}

/// Per-fit state of the presorted grower. Every column that varies over the
/// bootstrap sample gets a "list": the sample's rows in the column's sorted
/// order, each row repeated as often as it was drawn. A node owns the same
/// [begin, end) range of `indices` and of every list, and each list's range
/// holds exactly the node's sample sorted by (value, label), the sequence a
/// per-node std::sort of the pairs yields. After a split, a stable partition
/// of each list keeps both children's ranges sorted (DESIGN.md, "Forest
/// training").
struct DecisionTree::Grower {
  /// Expands the sample's multiplicities into one sorted list per column
  /// that varies over it.
  Grower(const PresortedColumns& columns_in,
         const std::vector<uint32_t>& sample, const TreeParams& params_in,
         Rng* rng_in, std::vector<Node>* nodes_in);

  const PresortedColumns& columns;
  const TreeParams& params;
  Rng* rng;
  std::vector<Node>& nodes;
  /// The bootstrap sample, std::partition-ed in place as the tree grows.
  /// Its order fixes the summation order of each node's mean, so it is part
  /// of the model's bits.
  std::vector<uint32_t> indices;
  size_t n = 0;                       ///< Sample size: the length of a list.
  std::vector<uint32_t> list_column;  ///< List -> column.
  std::vector<int32_t> feature_list;  ///< Feature -> list, or -1.
  std::vector<uint32_t> lists;        ///< List l at [l * n, (l + 1) * n).
  std::vector<uint32_t> scratch;      ///< Right side of a stable partition.
  std::vector<uint8_t> goes_left;     ///< Per row of the set.
  /// Stack of per-node live sets: the lists that are not constant over the
  /// node's sample. A child's set is a subset of its parent's.
  std::vector<uint32_t> live;
  std::vector<uint32_t> live_stamp;  ///< Per list: last node it was live in.
  uint32_t stamp = 0;
  std::vector<uint32_t> features;  ///< Feature-subsampling scratch.

  bool CanSplit(size_t count, int depth) const {
    return depth < params.max_depth &&
           count >= static_cast<size_t>(params.min_samples_split);
  }

  const float* ListValues(uint32_t list) const {
    return columns.values(list_column[list]);
  }

  bool VariesOver(uint32_t list, size_t begin, size_t end) const {
    const uint32_t* rows = lists.data() + list * n;
    const float* x = ListValues(list);
    return x[rows[begin]] != x[rows[end - 1]];
  }

  /// Pushes the lists of live[live_begin, live_end) that vary over
  /// [begin, end): a child's live set.
  void PushVarying(size_t live_begin, size_t live_end, size_t begin,
                   size_t end) {
    for (size_t l = live_begin; l < live_end; ++l) {
      const uint32_t list = live[l];
      if (VariesOver(list, begin, end)) live.push_back(list);
    }
  }

  void StablePartition(uint32_t list, size_t begin, size_t end) {
    uint32_t* rows = lists.data() + list * n;
    size_t left = begin;
    size_t right = 0;
    for (size_t i = begin; i < end; ++i) {
      // Branch-free: both children are written, one cursor advances.
      const uint32_t row = rows[i];
      const size_t to_left = goes_left[row];
      rows[left] = row;
      scratch[right] = row;
      left += to_left;
      right += 1 - to_left;
    }
    std::copy(scratch.begin(), scratch.begin() + right, rows + left);
  }

  int32_t Grow(size_t begin, size_t end, int depth, size_t live_begin,
               size_t live_end);
};

void DecisionTree::Fit(const MlDataset& data,
                       const std::vector<uint32_t>& indices,
                       const TreeParams& params, Rng* rng) {
  auto columns = PresortedColumns::Build(data, data.labels());
  ROBOPT_CHECK(columns.ok());
  Fit(*columns, indices, params, rng);
}

void DecisionTree::Fit(const PresortedColumns& columns,
                       const std::vector<uint32_t>& indices,
                       const TreeParams& params, Rng* rng) {
  nodes_.clear();
  if (indices.empty()) {
    nodes_.push_back(Node{});  // Degenerate leaf predicting 0.
    return;
  }
  Grower grower(columns, indices, params, rng, &nodes_);
  grower.Grow(0, indices.size(), 0, 0, grower.live.size());
}

DecisionTree::Grower::Grower(const PresortedColumns& columns_in,
                             const std::vector<uint32_t>& sample,
                             const TreeParams& params_in, Rng* rng_in,
                             std::vector<Node>* nodes_in)
    : columns(columns_in),
      params(params_in),
      rng(rng_in),
      nodes(*nodes_in),
      indices(sample),
      n(sample.size()),
      feature_list(columns.dim(), -1),
      lists(columns.num_columns() * n),
      scratch(n),
      goes_left(columns.rows()),
      features(columns.dim()) {
  std::vector<uint32_t> copies(columns.rows(), 0);
  for (const uint32_t row : indices) ++copies[row];
  for (size_t c = 0; c < columns.num_columns(); ++c) {
    const auto list = static_cast<uint32_t>(list_column.size());
    uint32_t* rows = lists.data() + list * n;
    const uint32_t* order = columns.order(c);
    size_t pos = 0;
    for (size_t i = 0; i < columns.rows(); ++i) {
      for (uint32_t k = copies[order[i]]; k > 0; --k) rows[pos++] = order[i];
    }
    const float* x = columns.values(c);
    if (x[rows[0]] == x[rows[n - 1]]) continue;  // Constant in the sample.
    feature_list[columns.feature(c)] = static_cast<int32_t>(list);
    list_column.push_back(static_cast<uint32_t>(c));
    live.push_back(list);  // The root's live set.
  }
  lists.resize(list_column.size() * n);
  live_stamp.assign(list_column.size(), 0);
}

int32_t DecisionTree::Grower::Grow(size_t begin, size_t end, int depth,
                                   size_t live_begin, size_t live_end) {
  const size_t count = end - begin;
  double sum = 0.0;
  double sum_sq = 0.0;
  for (size_t i = begin; i < end; ++i) {
    const double y = columns.label(indices[i]);
    sum += y;
    sum_sq += y * y;
  }
  const double mean = sum / static_cast<double>(count);
  const double variance = sum_sq / static_cast<double>(count) - mean * mean;

  const auto make_leaf = [&]() {
    Node leaf;
    leaf.value = static_cast<float>(mean);
    nodes.push_back(leaf);
    return static_cast<int32_t>(nodes.size() - 1);
  };

  if (!CanSplit(count, depth) || variance <= 1e-12) return make_leaf();

  // Feature subsampling.
  const size_t dim = columns.dim();
  int num_features = params.max_features;
  if (num_features == -1) {
    num_features = static_cast<int>(std::lround(std::sqrt(dim)));
  } else if (num_features == 0 || num_features > static_cast<int>(dim)) {
    num_features = static_cast<int>(dim);
  }
  std::iota(features.begin(), features.end(), 0);
  for (int i = 0; i < num_features; ++i) {
    const size_t j = i + rng->NextBounded(dim - i);
    std::swap(features[i], features[j]);
  }

  ++stamp;
  for (size_t l = live_begin; l < live_end; ++l) live_stamp[live[l]] = stamp;

  // Best split over sampled features by variance reduction. A feature with
  // no live list is constant over the node and cannot split it; a live
  // list varies over the node by construction.
  double best_gain = 0.0;
  int32_t best_feature = -1;
  float best_threshold = 0.0f;
  for (int f = 0; f < num_features; ++f) {
    const uint32_t feature = features[f];
    const int32_t list = feature_list[feature];
    if (list < 0 || live_stamp[list] != stamp) continue;
    const uint32_t* rows = lists.data() + static_cast<size_t>(list) * n;
    const float* x = ListValues(list);
    double left_sum = 0.0;
    double left_sq = 0.0;
    for (size_t i = begin; i + 1 < end; ++i) {
      const double y = columns.label(rows[i]);
      left_sum += y;
      left_sq += y * y;
      const float value = x[rows[i]];
      const float next = x[rows[i + 1]];
      if (value == next) continue;
      const auto left_n = static_cast<double>(i - begin + 1);
      const auto right_n = static_cast<double>(end - i - 1);
      if (left_n < params.min_samples_leaf ||
          right_n < params.min_samples_leaf) {
        continue;
      }
      const double right_sum = sum - left_sum;
      const double right_sq = sum_sq - left_sq;
      const double left_var = left_sq - left_sum * left_sum / left_n;
      const double right_var = right_sq - right_sum * right_sum / right_n;
      const double total_var = sum_sq - sum * sum / static_cast<double>(count);
      const double gain = total_var - left_var - right_var;
      if (gain > best_gain) {
        best_gain = gain;
        best_feature = static_cast<int32_t>(feature);
        best_threshold = 0.5f * (value + next);
      }
    }
  }

  if (best_feature < 0 || best_gain <= 1e-12) return make_leaf();

  // Partition indices by the chosen split.
  const float* split_values = ListValues(feature_list[best_feature]);
  auto middle = std::partition(
      indices.begin() + begin, indices.begin() + end,
      [&](uint32_t idx) { return split_values[idx] <= best_threshold; });
  const size_t split = static_cast<size_t>(middle - indices.begin());
  if (split == begin || split == end) return make_leaf();

  const int32_t node_index = static_cast<int32_t>(nodes.size());
  nodes.push_back(Node{});
  nodes[node_index].feature = best_feature;
  nodes[node_index].threshold = best_threshold;
  nodes[node_index].value = static_cast<float>(mean);

  // Hand each child its sorted list ranges and its live set — unless
  // neither child can split, in which case no list is read again.
  const size_t mark = live.size();
  const bool left_grows = CanSplit(split - begin, depth + 1);
  const bool right_grows = CanSplit(end - split, depth + 1);
  if (left_grows || right_grows) {
    for (size_t i = begin; i < end; ++i) goes_left[indices[i]] = i < split;
    for (size_t l = live_begin; l < live_end; ++l) {
      StablePartition(live[l], begin, end);
    }
  }
  if (left_grows) PushVarying(live_begin, live_end, begin, split);
  const size_t left_end = live.size();
  if (right_grows) PushVarying(live_begin, live_end, split, end);
  const size_t right_end = live.size();

  const int32_t left = Grow(begin, split, depth + 1, mark, left_end);
  const int32_t right = Grow(split, end, depth + 1, left_end, right_end);
  live.resize(mark);
  nodes[node_index].left = left;
  nodes[node_index].right = right;
  return node_index;
}

float DecisionTree::Predict(const float* row, size_t dim) const {
  if (nodes_.empty()) return 0.0f;
  int32_t node = 0;
  while (nodes_[node].feature >= 0) {
    const auto feature = static_cast<size_t>(nodes_[node].feature);
    const float value = feature < dim ? row[feature] : 0.0f;
    node = value <= nodes_[node].threshold ? nodes_[node].left
                                           : nodes_[node].right;
  }
  return nodes_[node].value;
}

int DecisionTree::Depth() const {
  if (nodes_.empty()) return 0;
  // Iterative depth over the flat array.
  std::vector<std::pair<int32_t, int>> stack = {{0, 1}};
  int depth = 0;
  while (!stack.empty()) {
    auto [node, d] = stack.back();
    stack.pop_back();
    depth = std::max(depth, d);
    if (nodes_[node].feature >= 0) {
      stack.emplace_back(nodes_[node].left, d + 1);
      stack.emplace_back(nodes_[node].right, d + 1);
    }
  }
  return depth;
}

void DecisionTree::Serialize(std::ostream& out) const {
  // 9 significant digits round-trip a float exactly.
  out << std::setprecision(9) << nodes_.size() << "\n";
  for (const Node& node : nodes_) {
    out << node.feature << " " << node.threshold << " " << node.left << " "
        << node.right << " " << node.value << "\n";
  }
}

bool DecisionTree::Deserialize(std::istream& in) {
  // Guards against corrupt/hostile model files: the node count must not
  // drive an implausible allocation, and child/feature indices must not
  // send Predict out of bounds (or into a cycle).
  constexpr size_t kMaxNodes = size_t{1} << 28;
  constexpr int32_t kMaxFeature = 1 << 20;
  size_t count = 0;
  if (!(in >> count)) return false;
  if (count > kMaxNodes) return false;
  nodes_.assign(count, Node{});
  for (Node& node : nodes_) {
    if (!(in >> node.feature >> node.threshold >> node.left >> node.right >>
          node.value)) {
      return false;
    }
  }
  // Internal nodes must reference strictly-later, in-bounds children. Grow
  // always emits children after their parent, so every legitimate tree
  // passes, and acceptance proves the Predict walk terminates.
  for (size_t i = 0; i < count; ++i) {
    const Node& node = nodes_[i];
    if (node.feature < 0) continue;  // Leaf; children unused.
    if (node.feature > kMaxFeature) return false;
    const auto self = static_cast<int64_t>(i);
    const auto limit = static_cast<int64_t>(count);
    if (node.left <= self || node.left >= limit || node.right <= self ||
        node.right >= limit) {
      return false;
    }
  }
  return true;
}

}  // namespace robopt
