#include "ml/random_forest.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <limits>
#include <numeric>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "ml/metrics.h"

namespace robopt {
namespace {

/// A nonlinear target: y = x0 * log(x1 + 1) + step(x2), the kind of shape a
/// linear cost model cannot capture but a forest can.
MlDataset NonlinearData(size_t n, uint64_t seed) {
  Rng rng(seed);
  MlDataset data(3);
  for (size_t i = 0; i < n; ++i) {
    const float x0 = static_cast<float>(rng.NextUniform(0, 10));
    const float x1 = static_cast<float>(rng.NextUniform(0, 1000));
    const float x2 = static_cast<float>(rng.NextUniform(0, 1));
    const float y = x0 * std::log(x1 + 1.0f) + (x2 > 0.5f ? 25.0f : 0.0f);
    data.Add({x0, x1, x2}, y);
  }
  return data;
}

TEST(RandomForestTest, FitsNonlinearTarget) {
  MlDataset data = NonlinearData(2000, 1);
  MlDataset train(3), test(3);
  data.Split(0.8, 2, &train, &test);
  RandomForest::Params params;
  params.log_label = false;
  RandomForest forest(params);
  ASSERT_TRUE(forest.Train(train).ok());
  const RegressionMetrics metrics = Evaluate(forest, test);
  EXPECT_GT(metrics.r2, 0.9);
  EXPECT_GT(metrics.spearman, 0.95);
}

TEST(RandomForestTest, BeatsLinearModelOnStepFunction) {
  // Pure step function — the canonical "fixed function form" failure.
  Rng rng(3);
  MlDataset data(1);
  for (int i = 0; i < 1000; ++i) {
    const float x = static_cast<float>(rng.NextUniform(0, 1));
    data.Add({x}, x > 0.5f ? 100.0f : 1.0f);
  }
  RandomForest::Params params;
  params.log_label = false;
  RandomForest forest(params);
  ASSERT_TRUE(forest.Train(data).ok());
  const float lo = 0.2f;
  const float hi = 0.8f;
  EXPECT_NEAR(forest.Predict(&lo, 1), 1.0f, 5.0f);
  EXPECT_NEAR(forest.Predict(&hi, 1), 100.0f, 5.0f);
}

TEST(RandomForestTest, TrainingIsDeterministicPerSeed) {
  MlDataset data = NonlinearData(500, 5);
  RandomForest::Params params;
  params.seed = 77;
  RandomForest a(params);
  RandomForest b(params);
  ASSERT_TRUE(a.Train(data).ok());
  ASSERT_TRUE(b.Train(data).ok());
  const float x[3] = {5.0f, 100.0f, 0.3f};
  EXPECT_FLOAT_EQ(a.Predict(x, 3), b.Predict(x, 3));
}

TEST(RandomForestTest, EmptyTrainingSetFails) {
  MlDataset data(3);
  RandomForest forest;
  EXPECT_FALSE(forest.Train(data).ok());
}

TEST(RandomForestTest, PredictBatchMatchesSingle) {
  MlDataset data = NonlinearData(500, 7);
  RandomForest forest;
  ASSERT_TRUE(forest.Train(data).ok());
  std::vector<float> x;
  for (int i = 0; i < 10; ++i) {
    x.push_back(static_cast<float>(i));
    x.push_back(static_cast<float>(i * 10));
    x.push_back(0.5f);
  }
  std::vector<float> batch(10);
  forest.PredictBatch(x.data(), 10, 3, batch.data());
  for (int i = 0; i < 10; ++i) {
    EXPECT_FLOAT_EQ(batch[i], forest.Predict(x.data() + 3 * i, 3));
  }
}

TEST(RandomForestTest, LogLabelHandlesWideRuntimeRange) {
  // Labels spanning 1e-3 .. 1e4 seconds, as query runtimes do.
  Rng rng(9);
  MlDataset data(1);
  for (int i = 0; i < 1000; ++i) {
    const float x = static_cast<float>(rng.NextUniform(0, 7));
    data.Add({x}, std::pow(10.0f, x - 3.0f));
  }
  RandomForest forest;  // log_label defaults to true.
  ASSERT_TRUE(forest.Train(data).ok());
  const float small = 0.5f;
  const float large = 6.5f;
  EXPECT_LT(forest.Predict(&small, 1), 0.1f);
  EXPECT_GT(forest.Predict(&large, 1), 100.0f);
}

TEST(RandomForestTest, SaveLoadRoundTrip) {
  MlDataset data = NonlinearData(500, 11);
  RandomForest forest;
  ASSERT_TRUE(forest.Train(data).ok());
  const std::string path = ::testing::TempDir() + "/forest.txt";
  ASSERT_TRUE(forest.Save(path).ok());
  RandomForest loaded;
  ASSERT_TRUE(loaded.Load(path).ok());
  const float x[3] = {3.0f, 50.0f, 0.7f};
  EXPECT_FLOAT_EQ(loaded.Predict(x, 3), forest.Predict(x, 3));
  std::remove(path.c_str());
}

void WriteFile(const std::string& path, const std::string& content) {
  FILE* file = std::fopen(path.c_str(), "w");
  ASSERT_NE(file, nullptr);
  std::fputs(content.c_str(), file);
  std::fclose(file);
}

TEST(RandomForestTest, LoadRejectsUnsupportedVersion) {
  const std::string path = ::testing::TempDir() + "/bad_version.forest";
  WriteFile(path, "random_forest 3\n1 1\n");
  RandomForest forest;
  const Status status = forest.Load(path);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.ToString().find("version"), std::string::npos);
  std::remove(path.c_str());
}

TEST(RandomForestTest, SaveLoadRoundTripsMeta) {
  MlDataset data = NonlinearData(500, 15);
  RandomForest forest;
  ASSERT_TRUE(forest.Train(data).ok());
  EXPECT_EQ(forest.meta().trained_rows, 500u);
  ModelMeta meta = forest.meta();
  meta.version = 42;
  forest.set_meta(meta);
  const std::string path = ::testing::TempDir() + "/meta.forest";
  ASSERT_TRUE(forest.Save(path).ok());
  RandomForest loaded;
  ASSERT_TRUE(loaded.Load(path).ok());
  EXPECT_EQ(loaded.meta().version, 42u);
  EXPECT_EQ(loaded.meta().trained_rows, 500u);
  std::remove(path.c_str());
}

TEST(RandomForestTest, SaveLeavesNoTemporarySibling) {
  MlDataset data = NonlinearData(200, 17);
  RandomForest forest;
  ASSERT_TRUE(forest.Train(data).ok());
  const std::string path = ::testing::TempDir() + "/atomic.forest";
  ASSERT_TRUE(forest.Save(path).ok());
  // The write-then-rename protocol must not leave its staging file behind.
  FILE* tmp = std::fopen((path + ".tmp").c_str(), "r");
  EXPECT_EQ(tmp, nullptr);
  if (tmp != nullptr) std::fclose(tmp);
  std::remove(path.c_str());
}

TEST(RandomForestTest, LoadRejectsTruncatedFile) {
  MlDataset data = NonlinearData(200, 19);
  RandomForest forest;
  ASSERT_TRUE(forest.Train(data).ok());
  const std::string path = ::testing::TempDir() + "/truncated.forest";
  ASSERT_TRUE(forest.Save(path).ok());
  // Read the valid bytes back and truncate mid-tree — the torn file a
  // non-atomic save could have produced.
  std::string bytes;
  {
    FILE* file = std::fopen(path.c_str(), "r");
    ASSERT_NE(file, nullptr);
    char buf[4096];
    size_t n = 0;
    while ((n = std::fread(buf, 1, sizeof(buf), file)) > 0) {
      bytes.append(buf, n);
    }
    std::fclose(file);
  }
  ASSERT_GT(bytes.size(), 64u);
  WriteFile(path, bytes.substr(0, bytes.size() / 2));
  RandomForest loaded;
  EXPECT_FALSE(loaded.Load(path).ok());
  // Truncation inside the v2 header line must also be caught.
  WriteFile(path, "random_forest 2\n7 100\n");
  const Status status = loaded.Load(path);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.ToString().find("truncated"), std::string::npos);
  std::remove(path.c_str());
}

TEST(RandomForestTest, LoadRejectsImplausibleTreeCount) {
  const std::string path = ::testing::TempDir() + "/bad_count.forest";
  // A corrupt count must be rejected before it drives an allocation.
  WriteFile(path, "random_forest 1\n987654321987 1\n");
  RandomForest forest;
  EXPECT_FALSE(forest.Load(path).ok());
  std::remove(path.c_str());
}

TEST(RandomForestTest, LoadRejectsGarbageHeader) {
  const std::string path = ::testing::TempDir() + "/garbage.forest";
  WriteFile(path, "random_forest one two three\n");
  RandomForest forest;
  EXPECT_FALSE(forest.Load(path).ok());
  std::remove(path.c_str());
}

TEST(RandomForestTest, LoadAcceptsMinimalValidTree) {
  // Baseline for the rejection tests below: one internal node with two
  // in-bounds, strictly-later children is a legitimate tree.
  const std::string path = ::testing::TempDir() + "/valid_tiny.forest";
  WriteFile(path,
            "random_forest 1\n1 1\n"
            "3\n0 0.5 1 2 0.0\n-1 0 -1 -1 1.0\n-1 0 -1 -1 2.0\n");
  RandomForest forest;
  ASSERT_TRUE(forest.Load(path).ok());
  const float lo = 0.0f;
  const float hi = 1.0f;
  EXPECT_FLOAT_EQ(forest.Predict(&lo, 1), std::expm1(1.0f));
  EXPECT_FLOAT_EQ(forest.Predict(&hi, 1), std::expm1(2.0f));
  std::remove(path.c_str());
}

TEST(RandomForestTest, LoadRejectsOutOfBoundsChild) {
  const std::string path = ::testing::TempDir() + "/oob_child.forest";
  // Internal node whose children point past the node array: accepting it
  // would send Predict out of bounds.
  WriteFile(path, "random_forest 1\n1 1\n1\n0 0.5 5 6 0.0\n");
  RandomForest forest;
  const Status status = forest.Load(path);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.ToString().find("corrupt"), std::string::npos);
  std::remove(path.c_str());
}

TEST(RandomForestTest, LoadRejectsBackwardChildCycle) {
  const std::string path = ::testing::TempDir() + "/cycle.forest";
  // Node 0 lists itself as its left child: accepting it would make Predict
  // loop forever. Children must come strictly after their parent.
  WriteFile(path,
            "random_forest 1\n1 1\n2\n0 0.5 0 1 0.0\n-1 0 -1 -1 1.0\n");
  RandomForest forest;
  EXPECT_FALSE(forest.Load(path).ok());
  std::remove(path.c_str());
}

TEST(RandomForestTest, LoadRejectsHugeFeatureIndex) {
  const std::string path = ::testing::TempDir() + "/huge_feature.forest";
  // Feature indices far beyond any plausible schema width mark corruption
  // even though Predict would merely read the feature as 0.
  WriteFile(path,
            "random_forest 1\n1 1\n"
            "3\n8388608 0.5 1 2 0.0\n-1 0 -1 -1 1.0\n-1 0 -1 -1 2.0\n");
  RandomForest forest;
  EXPECT_FALSE(forest.Load(path).ok());
  std::remove(path.c_str());
}

TEST(RandomForestTest, LoadRejectsImplausibleNodeCount) {
  const std::string path = ::testing::TempDir() + "/huge_nodes.forest";
  // A corrupt per-tree node count must be rejected before it drives an
  // allocation.
  WriteFile(path, "random_forest 1\n1 1\n99999999999\n");
  RandomForest forest;
  EXPECT_FALSE(forest.Load(path).ok());
  std::remove(path.c_str());
}

TEST(DecisionTreeTest, SingleLeafOnConstantLabels) {
  MlDataset data(1);
  for (int i = 0; i < 20; ++i) {
    data.Add({static_cast<float>(i)}, 5.0f);
  }
  std::vector<uint32_t> index(20);
  for (uint32_t i = 0; i < 20; ++i) index[i] = i;
  Rng rng(1);
  DecisionTree tree;
  tree.Fit(data, index, TreeParams{}, &rng);
  EXPECT_EQ(tree.num_nodes(), 1u);
  const float x = 3.0f;
  EXPECT_FLOAT_EQ(tree.Predict(&x, 1), 5.0f);
}

TEST(DecisionTreeTest, RespectsMaxDepth) {
  MlDataset data = NonlinearData(1000, 13);
  std::vector<uint32_t> index(data.size());
  for (uint32_t i = 0; i < index.size(); ++i) index[i] = i;
  TreeParams params;
  params.max_depth = 3;
  params.max_features = 0;  // All features.
  Rng rng(2);
  DecisionTree tree;
  tree.Fit(data, index, params, &rng);
  EXPECT_LE(tree.Depth(), 4);  // Root at depth 1.
}

TEST(DecisionTreeTest, EmptyIndicesYieldZeroLeaf) {
  MlDataset data(1);
  data.Add({1.0f}, 3.0f);
  Rng rng(3);
  DecisionTree tree;
  tree.Fit(data, {}, TreeParams{}, &rng);
  const float x = 1.0f;
  EXPECT_FLOAT_EQ(tree.Predict(&x, 1), 0.0f);
}

/// FNV-1a over the serialized trees: Serialize prints floats with 9
/// significant digits, so the hash pins every feature, threshold and value
/// bit of the forest.
uint64_t ForestHash(const RandomForest& forest) {
  std::ostringstream out;
  for (const DecisionTree& tree : forest.trees()) tree.Serialize(out);
  uint64_t hash = 1469598103934665603ull;
  for (const char c : out.str()) {
    hash ^= static_cast<uint8_t>(c);
    hash *= 1099511628211ull;
  }
  return hash;
}

/// Features on a coarse grid (signed zeros included) and labels from six
/// values: (value, label) ties everywhere.
MlDataset TiedData(size_t n, uint64_t seed) {
  Rng rng(seed);
  MlDataset data(6);
  for (size_t i = 0; i < n; ++i) {
    std::vector<float> row(6);
    for (float& x : row) {
      const int64_t level = rng.NextInt(-1, 2);
      x = level == 0 ? (rng.NextBernoulli(0.5) ? -0.0f : 0.0f)
                     : 0.5f * static_cast<float>(level);
    }
    const float noise = static_cast<float>(rng.NextInt(0, 2));
    const float level = row[0] + row[1] > 0.0f ? 100.0f : 10.0f;
    data.Add(row, level * (1.0f + noise));
  }
  return data;
}

/// Every row three times, and two columns that are constant over the set.
MlDataset DuplicatedData(size_t n, uint64_t seed) {
  const MlDataset base = NonlinearData(n, seed);
  MlDataset data(7);
  for (int copy = 0; copy < 3; ++copy) {
    for (size_t i = 0; i < base.size(); ++i) {
      const float* x = base.row(i);
      data.Add({x[0], x[1], 0.0f, x[2], x[0] * 2.0f, 4.25f, -x[1]},
               base.label(i));
    }
  }
  return data;
}

/// Forest hashes recorded from the per-node-sort grower the presorted fit
/// replaced: the fit must reproduce its trees bit for bit.
TEST(RandomForestTest, ForestBitsMatchGolden) {
  const MlDataset tied = TiedData(400, 31);
  const MlDataset duplicated = DuplicatedData(120, 37);
  const MlDataset smooth = NonlinearData(600, 23);
  struct Case {
    const char* name;
    const MlDataset* data;
    int max_features;
    double subsample;
    int min_samples_leaf;
    int max_depth;
    bool log_label;
    uint64_t expected;
  };
  const Case cases[] = {
      {"tied sqrt(d)", &tied, -1, 1.0, 2, 18, true, 0xb03a321f0112f85full},
      {"tied all features", &tied, 0, 1.0, 2, 18, false,
       0xea598f0a895d09bbull},
      {"duplicated sqrt(d)", &duplicated, -1, 1.0, 2, 18, true,
       0x27cca32faf98bce2ull},
      {"duplicated d/3", &duplicated, 7 / 3, 1.0, 2, 18, true,
       0x9fff503661d8b71bull},
      {"smooth subsample 0.5", &smooth, -1, 0.5, 2, 18, true,
       0x6f49b384aa9f7794ull},
      {"smooth leaf 3 depth 4", &smooth, 0, 1.0, 3, 4, false,
       0x0ef2a45a5d16bb0eull},
      {"tied d/3 subsample 0.5 leaf 3 depth 4", &tied, 6 / 3, 0.5, 3, 4,
       true, 0xb17af6d4546aa7f1ull},
      {"duplicated deep", &duplicated, 0, 1.0, 1, 30, true,
       0xd1e239b94b06ef3full},
  };
  for (const Case& c : cases) {
    RandomForest::Params params;
    params.num_trees = 8;
    params.seed = 101;
    params.subsample = c.subsample;
    params.log_label = c.log_label;
    params.tree.max_features = c.max_features;
    params.tree.min_samples_leaf = c.min_samples_leaf;
    params.tree.max_depth = c.max_depth;
    if (c.min_samples_leaf == 1) params.tree.min_samples_split = 2;
    RandomForest forest(params);
    ASSERT_TRUE(forest.Train(*c.data).ok()) << c.name;
    EXPECT_EQ(ForestHash(forest), c.expected)
        << c.name << ": 0x" << std::hex << ForestHash(forest);
  }
}

/// One node of the reference grower below, in DecisionTree's flat layout.
struct RefNode {
  int32_t feature = -1;
  float threshold = 0.0f;
  int32_t left = -1;
  int32_t right = -1;
  float value = 0.0f;
};

/// Test-only reference: the per-node-sort grower that the presorted fit
/// replaced, kept verbatim apart from its node sink. At every node it
/// gathers and std::sorts (value, label) pairs for each sampled feature.
int32_t ReferenceGrow(const MlDataset& data, std::vector<uint32_t>& indices,
                      size_t begin, size_t end, int depth,
                      const TreeParams& params, Rng* rng,
                      std::vector<RefNode>* nodes) {
  const size_t count = end - begin;
  double sum = 0.0;
  double sum_sq = 0.0;
  for (size_t i = begin; i < end; ++i) {
    const double y = data.label(indices[i]);
    sum += y;
    sum_sq += y * y;
  }
  const double mean = sum / static_cast<double>(count);
  const double variance = sum_sq / static_cast<double>(count) - mean * mean;
  const auto make_leaf = [&]() {
    RefNode leaf;
    leaf.value = static_cast<float>(mean);
    nodes->push_back(leaf);
    return static_cast<int32_t>(nodes->size() - 1);
  };
  if (depth >= params.max_depth ||
      count < static_cast<size_t>(params.min_samples_split) ||
      variance <= 1e-12) {
    return make_leaf();
  }
  const size_t dim = data.dim();
  int num_features = params.max_features;
  if (num_features == -1) {
    num_features = static_cast<int>(std::lround(std::sqrt(dim)));
  } else if (num_features == 0 || num_features > static_cast<int>(dim)) {
    num_features = static_cast<int>(dim);
  }
  std::vector<uint32_t> features(dim);
  std::iota(features.begin(), features.end(), 0);
  for (int i = 0; i < num_features; ++i) {
    const size_t j = i + rng->NextBounded(dim - i);
    std::swap(features[i], features[j]);
  }
  double best_gain = 0.0;
  int32_t best_feature = -1;
  float best_threshold = 0.0f;
  std::vector<std::pair<float, float>> values;
  values.reserve(count);
  for (int f = 0; f < num_features; ++f) {
    const uint32_t feature = features[f];
    values.clear();
    for (size_t i = begin; i < end; ++i) {
      values.emplace_back(data.row(indices[i])[feature],
                          data.label(indices[i]));
    }
    std::sort(values.begin(), values.end());
    if (values.front().first == values.back().first) continue;
    double left_sum = 0.0;
    double left_sq = 0.0;
    for (size_t i = 0; i + 1 < count; ++i) {
      const double y = values[i].second;
      left_sum += y;
      left_sq += y * y;
      if (values[i].first == values[i + 1].first) continue;
      const auto left_n = static_cast<double>(i + 1);
      const auto right_n = static_cast<double>(count - i - 1);
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
        best_threshold = 0.5f * (values[i].first + values[i + 1].first);
      }
    }
  }
  if (best_feature < 0 || best_gain <= 1e-12) return make_leaf();
  auto middle = std::partition(
      indices.begin() + begin, indices.begin() + end, [&](uint32_t idx) {
        return data.row(idx)[best_feature] <= best_threshold;
      });
  const size_t split = static_cast<size_t>(middle - indices.begin());
  if (split == begin || split == end) return make_leaf();
  const auto node_index = static_cast<int32_t>(nodes->size());
  nodes->push_back(RefNode{});
  (*nodes)[node_index].feature = best_feature;
  (*nodes)[node_index].threshold = best_threshold;
  (*nodes)[node_index].value = static_cast<float>(mean);
  const int32_t left =
      ReferenceGrow(data, indices, begin, split, depth + 1, params, rng, nodes);
  const int32_t right =
      ReferenceGrow(data, indices, split, end, depth + 1, params, rng, nodes);
  (*nodes)[node_index].left = left;
  (*nodes)[node_index].right = right;
  return node_index;
}

std::vector<RefNode> ReferenceFit(const MlDataset& data,
                                  std::vector<uint32_t> indices,
                                  const TreeParams& params, Rng* rng) {
  std::vector<RefNode> nodes;
  if (indices.empty()) {
    nodes.push_back(RefNode{});
  } else {
    ReferenceGrow(data, indices, 0, indices.size(), 0, params, rng, &nodes);
  }
  return nodes;
}

/// Node-for-node equality, every float compared by its bits.
void ExpectSameTree(const DecisionTree& tree, const std::vector<RefNode>& ref,
                    const std::string& where) {
  ASSERT_EQ(tree.num_nodes(), ref.size()) << where;
  for (size_t i = 0; i < ref.size(); ++i) {
    ASSERT_EQ(tree.node_feature(i), ref[i].feature) << where << " node " << i;
    ASSERT_EQ(std::bit_cast<uint32_t>(tree.node_threshold(i)),
              std::bit_cast<uint32_t>(ref[i].threshold))
        << where << " node " << i;
    ASSERT_EQ(tree.node_left(i), ref[i].left) << where << " node " << i;
    ASSERT_EQ(tree.node_right(i), ref[i].right) << where << " node " << i;
    ASSERT_EQ(std::bit_cast<uint32_t>(tree.node_value(i)),
              std::bit_cast<uint32_t>(ref[i].value))
        << where << " node " << i;
  }
}

/// A random training set mixing the shapes that stress an exact fit:
/// continuous columns, coarse grids with signed zeros (ties), columns
/// constant over the set, duplicated rows, and tied, continuous or
/// wide-range labels. Two column kinds share one per-row level: a tied copy
/// and a jittered copy cut the rows the same way but order them
/// differently, so their equal gains differ only by rounding, which
/// depends on the order in which tied (value, label) pairs are summed.
MlDataset RandomDataset(Rng* rng) {
  const auto dim = static_cast<size_t>(rng->NextInt(1, 12));
  const auto rows = static_cast<size_t>(rng->NextInt(1, 250));
  // 0 continuous, 1 grid, 2 constant, 3 shared level, 4 jittered level.
  std::vector<int> kind(dim);
  for (int& k : kind) k = static_cast<int>(rng->NextInt(0, 4));
  const int64_t label_kind = rng->NextInt(0, 2);
  MlDataset data(dim);
  std::vector<float> row(dim);
  const auto grid = [rng](int64_t level) {
    return level == 0 ? (rng->NextBernoulli(0.5) ? -0.0f : 0.0f)
                      : static_cast<float>(level);
  };
  for (size_t i = 0; i < rows; ++i) {
    if (i > 0 && rng->NextBernoulli(0.2)) {  // Duplicate an earlier row.
      const size_t j = rng->NextBounded(i);
      data.Add(data.row(j), data.label(j));
      continue;
    }
    const int64_t level = rng->NextInt(-2, 2);
    for (size_t f = 0; f < dim; ++f) {
      switch (kind[f]) {
        case 0:
          row[f] = static_cast<float>(rng->NextUniform(-50, 50));
          break;
        case 1:
          row[f] = grid(rng->NextInt(-2, 2));
          break;
        case 2:
          row[f] = 3.5f;
          break;
        case 3:
          row[f] = grid(level);
          break;
        default:
          row[f] = static_cast<float>(4.0 * level + rng->NextUniform(0, 1));
      }
    }
    float label = 0.0f;
    if (label_kind == 0) {
      label = static_cast<float>(rng->NextInt(0, 3) * 10);
    } else if (label_kind == 1) {
      label = static_cast<float>(rng->NextUniform(0, 1000));
    } else {
      const double exponent = rng->NextUniform(-5, 12) + 2.0 * level;
      label = static_cast<float>(std::exp(exponent));
    }
    data.Add(row, label);
  }
  return data;
}

TreeParams RandomTreeParams(Rng* rng, size_t dim) {
  TreeParams params;
  params.max_depth = static_cast<int>(rng->NextInt(0, 20));
  params.min_samples_leaf = static_cast<int>(rng->NextInt(1, 5));
  params.min_samples_split = static_cast<int>(rng->NextInt(1, 8));
  params.max_features =
      static_cast<int>(rng->NextInt(-1, static_cast<int64_t>(dim) + 2));
  return params;
}

TEST(DecisionTreeTest, PresortedFitMatchesPerNodeSortReference) {
  Rng config(2024);
  for (int trial = 0; trial < 60; ++trial) {
    const MlDataset data = RandomDataset(&config);
    const TreeParams params = RandomTreeParams(&config, data.dim());
    const std::string where = "trial " + std::to_string(trial);

    // One tree on a bootstrap sample (or, once in a while, an empty one).
    std::vector<uint32_t> indices(
        config.NextBernoulli(0.05) ? 0 : config.NextInt(1, 300));
    for (uint32_t& index : indices) {
      index = static_cast<uint32_t>(config.NextBounded(data.size()));
    }
    const uint64_t seed = config.Next();
    Rng rng(seed);
    Rng ref_rng(seed);
    DecisionTree tree;
    tree.Fit(data, indices, params, &rng);
    ExpectSameTree(tree, ReferenceFit(data, indices, params, &ref_rng), where);
    EXPECT_EQ(rng.Next(), ref_rng.Next()) << where << ": RNG draws differ";

    // A small forest: Train's one presort shared by every tree, against
    // the reference run through Train's sampling and label transform.
    RandomForest::Params forest_params;
    forest_params.num_trees = 3;
    forest_params.seed = seed;
    forest_params.tree = params;
    forest_params.subsample = config.NextBernoulli(0.5) ? 1.0 : 0.6;
    forest_params.log_label = config.NextBernoulli(0.5);
    RandomForest forest(forest_params);
    ASSERT_TRUE(forest.Train(data).ok()) << where;
    MlDataset transformed(data.dim());
    for (size_t i = 0; i < data.size(); ++i) {
      transformed.Add(
          data.row(i),
          forest_params.log_label
              ? static_cast<float>(
                    std::log1p(static_cast<double>(data.label(i))))
              : data.label(i));
    }
    Rng forest_rng(seed);
    std::vector<uint32_t> sample(std::max<size_t>(
        static_cast<size_t>(forest_params.subsample *
                            static_cast<double>(data.size())),
        1));
    for (size_t t = 0; t < forest.trees().size(); ++t) {
      for (uint32_t& index : sample) {
        index = static_cast<uint32_t>(forest_rng.NextBounded(data.size()));
      }
      ExpectSameTree(
          forest.trees()[t],
          ReferenceFit(transformed, sample, params, &forest_rng),
          where + " forest tree " + std::to_string(t));
    }
  }
}

TEST(RandomForestTest, TrainRejectsTreeCountBelowOne) {
  const MlDataset data = NonlinearData(50, 41);
  for (const int num_trees : {0, -1, -1000}) {
    RandomForest::Params params;
    params.num_trees = num_trees;
    RandomForest forest(params);
    const Status status = forest.Train(data);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << num_trees;
    EXPECT_TRUE(forest.trees().empty()) << num_trees;
  }
}

TEST(RandomForestTest, TrainRejectsNonPositiveOrNonFiniteSubsample) {
  const MlDataset data = NonlinearData(50, 43);
  for (const double subsample :
       {0.0, -0.5, std::numeric_limits<double>::quiet_NaN(),
        std::numeric_limits<double>::infinity(), 1e300}) {
    RandomForest::Params params;
    params.subsample = subsample;
    RandomForest forest(params);
    EXPECT_EQ(forest.Train(data).code(), StatusCode::kInvalidArgument)
        << subsample;
  }
}

TEST(RandomForestTest, TrainRejectsNonFiniteFeaturesAndLabels) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  for (const float bad : {nan, inf, -inf}) {
    MlDataset features = NonlinearData(30, 47);
    features.Add({1.0f, bad, 0.5f}, 2.0f);
    RandomForest forest;
    EXPECT_EQ(forest.Train(features).code(), StatusCode::kInvalidArgument);

    MlDataset labels = NonlinearData(30, 47);
    labels.Add({1.0f, 2.0f, 0.5f}, bad);
    RandomForest::Params raw;
    raw.log_label = false;
    RandomForest raw_forest(raw);
    EXPECT_EQ(raw_forest.Train(labels).code(), StatusCode::kInvalidArgument);
  }
  // A label the log1p transform maps to -inf or NaN is rejected too.
  for (const float label : {-1.0f, -2.0f}) {
    MlDataset data = NonlinearData(30, 53);
    data.Add({1.0f, 2.0f, 0.5f}, label);
    RandomForest forest;  // log_label defaults to true.
    EXPECT_EQ(forest.Train(data).code(), StatusCode::kInvalidArgument)
        << label;
  }
}

}  // namespace
}  // namespace robopt
