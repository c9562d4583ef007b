#include "ml/forest_kernel.h"

#include <algorithm>
#include <atomic>
#include <cmath>

#include "common/thread_pool.h"

namespace robopt {

namespace {
std::atomic<uint64_t> g_rows_scored{0};
std::atomic<uint64_t> g_batches{0};

/// Raw pointers of the node pool, hoisted once per batch so the inner loops
/// never touch vector objects.
struct PoolView {
  const int32_t* feature;
  const float* threshold;
  const int32_t* left;
  const int32_t* right;
  const float* value;
};

/// The block walk: trees outer, rows inner, per-row double accumulators in
/// fixed tree order. Reads a feature index beyond `dim` as 0.0, exactly
/// like the reference path.
void WalkBlockScalar(const PoolView& p, const int32_t* roots,
                     size_t num_trees, const float* bx, size_t rows,
                     size_t dim, double* acc) {
  for (size_t t = 0; t < num_trees; ++t) {
    const int32_t root = roots[t];
    for (size_t row = 0; row < rows; ++row) {
      const float* r = bx + row * dim;
      int32_t node = root;
      int32_t f = p.feature[node];
      while (f >= 0) {
        const float v = static_cast<size_t>(f) < dim ? r[f] : 0.0f;
        node = v <= p.threshold[node] ? p.left[node] : p.right[node];
        f = p.feature[node];
      }
      acc[row] += p.value[node];
    }
  }
}

}  // namespace

uint64_t ForestKernel::TotalRowsScored() {
  return g_rows_scored.load(std::memory_order_relaxed);
}

uint64_t ForestKernel::TotalBatches() {
  return g_batches.load(std::memory_order_relaxed);
}

void ForestKernel::Clear() {
  roots_.clear();
  feature_.clear();
  threshold_.clear();
  left_.clear();
  right_.clear();
  value_.clear();
}

void ForestKernel::Build(const std::vector<DecisionTree>& trees) {
  Clear();
  size_t total = 0;
  for (const DecisionTree& tree : trees) {
    total += std::max<size_t>(tree.num_nodes(), 1);
  }
  roots_.reserve(trees.size());
  feature_.reserve(total);
  threshold_.reserve(total);
  left_.reserve(total);
  right_.reserve(total);
  value_.reserve(total);
  for (const DecisionTree& tree : trees) {
    const auto base = static_cast<int32_t>(feature_.size());
    roots_.push_back(base);
    const size_t count = tree.num_nodes();
    if (count == 0) {
      feature_.push_back(-1);
      threshold_.push_back(0.0f);
      left_.push_back(-1);
      right_.push_back(-1);
      value_.push_back(0.0f);
      continue;
    }
    for (size_t i = 0; i < count; ++i) {
      const int32_t feature = tree.node_feature(i);
      feature_.push_back(feature);
      threshold_.push_back(tree.node_threshold(i));
      // Rebase tree-local child indices onto the pool; leaves keep -1.
      left_.push_back(feature >= 0 ? base + tree.node_left(i) : -1);
      right_.push_back(feature >= 0 ? base + tree.node_right(i) : -1);
      value_.push_back(tree.node_value(i));
    }
  }
}

float ForestKernel::PredictTree(size_t t, const float* row, size_t dim) const {
  const int32_t* feature = feature_.data();
  const float* threshold = threshold_.data();
  const int32_t* left = left_.data();
  const int32_t* right = right_.data();
  int32_t node = roots_[t];
  int32_t f = feature[node];
  while (f >= 0) {
    const float v = static_cast<size_t>(f) < dim ? row[f] : 0.0f;
    node = v <= threshold[node] ? left[node] : right[node];
    f = feature[node];
  }
  return value_[node];
}

void ForestKernel::PredictBatch(const float* x, size_t n, size_t dim,
                                float* out, bool log_label,
                                int num_threads) const {
  if (n == 0) return;
  g_rows_scored.fetch_add(n, std::memory_order_relaxed);
  g_batches.fetch_add(1, std::memory_order_relaxed);
  if (roots_.empty()) {
    std::fill(out, out + n, 0.0f);
    return;
  }
  const double inv = 1.0 / static_cast<double>(roots_.size());
  const int threads = num_threads == 0 ? ThreadPool::HardwareThreads()
                                       : num_threads;
  const size_t num_blocks = (n + kRowBlock - 1) / kRowBlock;
  const PoolView pool{feature_.data(), threshold_.data(), left_.data(),
                      right_.data(), value_.data()};
  const int32_t* roots = roots_.data();
  const size_t num_trees = roots_.size();
  ParallelFor(threads, 0, num_blocks, 1, [&](size_t block0, size_t block1) {
    double acc[kRowBlock];
    for (size_t block = block0; block < block1; ++block) {
      const size_t row0 = block * kRowBlock;
      const size_t rows = std::min(n - row0, kRowBlock);
      std::fill(acc, acc + rows, 0.0);
      WalkBlockScalar(pool, roots, num_trees, x + row0 * dim, rows, dim, acc);
      for (size_t row = 0; row < rows; ++row) {
        double result = acc[row] * inv;
        if (log_label) result = std::expm1(result);
        out[row0 + row] = static_cast<float>(result < 0 ? 0 : result);
      }
    }
  });
}

}  // namespace robopt
