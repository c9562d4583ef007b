#include "ml/forest_kernel.h"

#include <algorithm>
#include <atomic>
#include <cmath>

#include "common/thread_pool.h"
#include "ml/simd_dispatch.h"

namespace robopt {

static_assert(ForestKernel::kRowBlock % ForestKernel::kGroupRows == 0,
              "speculation groups must tile the accumulator block exactly");

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

/// The scalar-lane / guarded block walk: trees outer, rows inner, per-row
/// double accumulators in fixed tree order. Reads a feature index beyond
/// `dim` as 0.0, exactly like the reference path.
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

/// The extrema-speculation walk (non-scalar lanes, every split feature
/// < dim): per kGroupRows-row group, a SIMD pass yields per-feature min/max
/// summaries, then one scalar walk descends for the whole group —
/// max[f] <= threshold sends every row left, min[f] > threshold sends every
/// row right. A group that straddles a split (or contains a NaN, which the
/// summary pass flags because vector min/max would silently drop it)
/// diverges to interleaved per-row walks from that node, so decisions are
/// exactly the reference's. Accumulation stays per-row in fixed tree order:
/// bit-identical to WalkBlockScalar.
void WalkBlockGrouped(const PoolView& p, const int32_t* roots,
                      size_t num_trees, const float* bx, size_t rows,
                      size_t dim, double* acc, float* minv, float* maxv) {
  constexpr size_t W = ForestKernel::kGroupRows;
  const auto min_max_group = simd::Ops().min_max_group_f32;
  const size_t grouped = rows / W * W;
  int32_t nd[W];
  for (size_t r = 0; r < grouped; r += W) {
    const float* g = bx + r * dim;
    const bool nan_group = min_max_group(g, W, dim, minv, maxv);
    for (size_t t = 0; t < num_trees; ++t) {
      int32_t node = roots[t];
      if (!nan_group) {
        for (;;) {
          const int32_t f = p.feature[node];
          if (f < 0) break;
          const float tv = p.threshold[node];
          if (maxv[f] <= tv) {  // Every row's value <= tv: all go left.
            node = p.left[node];
            continue;
          }
          if (!(minv[f] <= tv)) {  // Every row's value > tv: all go right.
            node = p.right[node];
            continue;
          }
          break;  // The group straddles this split: diverge below.
        }
      }
      if (p.feature[node] < 0) {
        const double leaf = static_cast<double>(p.value[node]);
        for (size_t i = 0; i < W; ++i) acc[r + i] += leaf;
      } else {
        for (size_t i = 0; i < W; ++i) nd[i] = node;
        for (;;) {
          int32_t alive = -1;  // AND of features: < 0 iff all rows leafed.
          for (size_t i = 0; i < W; ++i) {
            const int32_t c = nd[i];
            const int32_t f = p.feature[c];
            if (f >= 0) {
              nd[i] = g[i * dim + f] <= p.threshold[c] ? p.left[c]
                                                       : p.right[c];
            }
            alive &= f;
          }
          if (alive < 0) break;
        }
        for (size_t i = 0; i < W; ++i) {
          acc[r + i] += static_cast<double>(p.value[nd[i]]);
        }
      }
    }
  }
  // Tail rows below one group: plain per-row walks (every feature < dim
  // here, so the unguarded read matches the reference's guarded one).
  for (size_t r = grouped; r < rows; ++r) {
    const float* row = bx + r * dim;
    for (size_t t = 0; t < num_trees; ++t) {
      int32_t node = roots[t];
      int32_t f = p.feature[node];
      while (f >= 0) {
        node = row[f] <= p.threshold[node] ? p.left[node] : p.right[node];
        f = p.feature[node];
      }
      acc[r] += static_cast<double>(p.value[node]);
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
  max_feature_ = -1;
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
      if (feature > max_feature_) max_feature_ = feature;
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
  // The grouped (extrema-speculation) kernel reads row[f] unguarded and
  // only runs when every split feature is in range; narrower batches take
  // the guarded scalar walk, as does the pinned scalar lane (for which the
  // summary pass would cost about what it saves).
  const bool grouped = num_features() <= dim &&
                       simd::ActiveLane() != simd::Lane::kScalar;
  ParallelFor(threads, 0, num_blocks, 1, [&](size_t block0, size_t block1) {
    double acc[kRowBlock];
    // Per-feature min/max summary scratch of the grouped kernel, reused
    // across every group this shard walks.
    std::vector<float> extrema(grouped ? 2 * dim : 0);
    for (size_t block = block0; block < block1; ++block) {
      const size_t row0 = block * kRowBlock;
      const size_t rows = std::min(n - row0, kRowBlock);
      const float* bx = x + row0 * dim;
      std::fill(acc, acc + rows, 0.0);
      if (grouped) {
        WalkBlockGrouped(pool, roots, num_trees, bx, rows, dim, acc,
                         extrema.data(), extrema.data() + dim);
      } else {
        WalkBlockScalar(pool, roots, num_trees, bx, rows, dim, acc);
      }
      for (size_t row = 0; row < rows; ++row) {
        double result = acc[row] * inv;
        if (log_label) result = std::expm1(result);
        out[row0 + row] = static_cast<float>(result < 0 ? 0 : result);
      }
    }
  });
}

}  // namespace robopt
