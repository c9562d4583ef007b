// ForestKernel: the flattened SoA node pool must reproduce the per-tree
// reference path bit for bit — per tree, per batch, at every thread count,
// and after a Save/Load round trip.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.h"
#include "ml/forest_kernel.h"
#include "ml/random_forest.h"

namespace robopt {
namespace {

MlDataset MakeDataset(size_t dim, size_t rows, uint64_t seed) {
  MlDataset data(dim);
  Rng rng(seed);
  std::vector<float> row(dim);
  for (size_t i = 0; i < rows; ++i) {
    for (float& cell : row) {
      cell = static_cast<float>(rng.NextUniform(0, 50));
    }
    data.Add(row, static_cast<float>(rng.NextUniform(0, 100)));
  }
  return data;
}

RandomForest TrainForest(const MlDataset& data, int num_trees) {
  RandomForest::Params params;
  params.num_trees = num_trees;
  RandomForest forest(params);
  EXPECT_TRUE(forest.Train(data).ok());
  return forest;
}

TEST(ForestKernelTest, FlattensAllTreesIntoOnePool) {
  const MlDataset data = MakeDataset(16, 200, 3);
  const RandomForest forest = TrainForest(data, 10);
  const ForestKernel& kernel = forest.kernel();
  ASSERT_EQ(kernel.num_trees(), forest.trees().size());
  size_t total_nodes = 0;
  for (const DecisionTree& tree : forest.trees()) {
    total_nodes += tree.num_nodes();
  }
  EXPECT_EQ(kernel.num_nodes(), total_nodes);
  EXPECT_FALSE(kernel.empty());
}

TEST(ForestKernelTest, PerTreeWalkMatchesDecisionTreePredict) {
  const MlDataset data = MakeDataset(16, 200, 5);
  const RandomForest forest = TrainForest(data, 10);
  const ForestKernel& kernel = forest.kernel();
  const size_t dim = data.dim();
  for (size_t t = 0; t < kernel.num_trees(); ++t) {
    for (size_t i = 0; i < data.size(); ++i) {
      const float expected = forest.trees()[t].Predict(data.row(i), dim);
      EXPECT_EQ(kernel.PredictTree(t, data.row(i), dim), expected)
          << "tree " << t << ", row " << i;
    }
  }
}

TEST(ForestKernelTest, BatchMatchesReferenceBitForBitAcrossThreadCounts) {
  const MlDataset data = MakeDataset(24, 300, 7);
  RandomForest forest = TrainForest(data, 15);
  const size_t n = data.size();
  const size_t dim = data.dim();
  std::vector<float> reference(n), got(n);
  forest.PredictBatchReference(data.features().data(), n, dim,
                               reference.data());
  for (int threads : {1, 2, 8}) {
    forest.set_num_threads(threads);
    forest.PredictBatch(data.features().data(), n, dim, got.data());
    EXPECT_EQ(std::memcmp(got.data(), reference.data(), n * sizeof(float)), 0)
        << threads << " threads";
  }
}

TEST(ForestKernelTest, OddBatchSizesMatchReference) {
  // Exercise partial trailing blocks (n not a multiple of kRowBlock) and
  // tiny batches below one block.
  const MlDataset data = MakeDataset(12, 3 * ForestKernel::kRowBlock + 17, 9);
  RandomForest forest = TrainForest(data, 8);
  const size_t dim = data.dim();
  for (size_t n : {size_t{1}, size_t{2}, ForestKernel::kRowBlock - 1,
                   ForestKernel::kRowBlock, ForestKernel::kRowBlock + 1,
                   data.size()}) {
    std::vector<float> reference(n), got(n);
    forest.PredictBatchReference(data.features().data(), n, dim,
                                 reference.data());
    forest.PredictBatch(data.features().data(), n, dim, got.data());
    EXPECT_EQ(std::memcmp(got.data(), reference.data(), n * sizeof(float)), 0)
        << n << " rows";
  }
}

TEST(ForestKernelTest, EmptyKernelPredictsZeros) {
  ForestKernel kernel;
  EXPECT_TRUE(kernel.empty());
  EXPECT_EQ(kernel.num_trees(), 0u);
  const float x[4] = {1, 2, 3, 4};
  float out[2] = {-1, -1};
  kernel.PredictBatch(x, 2, 2, out, /*log_label=*/false, /*num_threads=*/1);
  EXPECT_EQ(out[0], 0.0f);
  EXPECT_EQ(out[1], 0.0f);
}

TEST(ForestKernelTest, NodeLessTreeContributesZeroLeaf) {
  // A default-constructed DecisionTree has no nodes; its Predict returns 0
  // and the kernel must flatten it to a single 0-valued leaf.
  std::vector<DecisionTree> trees(3);
  ForestKernel kernel;
  kernel.Build(trees);
  EXPECT_EQ(kernel.num_trees(), 3u);
  EXPECT_EQ(kernel.num_nodes(), 3u);
  const float row[2] = {5.0f, -1.0f};
  for (size_t t = 0; t < 3; ++t) {
    EXPECT_EQ(kernel.PredictTree(t, row, 2), 0.0f);
  }
}

TEST(ForestKernelTest, ClearEmptiesThePool) {
  const MlDataset data = MakeDataset(8, 100, 11);
  const RandomForest forest = TrainForest(data, 4);
  ForestKernel kernel = forest.kernel();
  ASSERT_FALSE(kernel.empty());
  kernel.Clear();
  EXPECT_TRUE(kernel.empty());
  EXPECT_EQ(kernel.num_nodes(), 0u);
}

TEST(ForestKernelTest, EmptyBatchReturnsBeforeTelemetry) {
  const MlDataset data = MakeDataset(8, 120, 21);
  const RandomForest forest = TrainForest(data, 4);
  const ForestKernel& kernel = forest.kernel();
  const uint64_t batches_before = ForestKernel::TotalBatches();
  const uint64_t rows_before = ForestKernel::TotalRowsScored();
  float out = -1.0f;
  kernel.PredictBatch(data.features().data(), 0, data.dim(), &out,
                      /*log_label=*/false, /*num_threads=*/1);
  EXPECT_EQ(ForestKernel::TotalBatches(), batches_before);
  EXPECT_EQ(ForestKernel::TotalRowsScored(), rows_before);
  EXPECT_EQ(out, -1.0f) << "n == 0 must not touch the output buffer";

  float out3[3] = {0, 0, 0};
  kernel.PredictBatch(data.features().data(), 3, data.dim(), out3,
                      /*log_label=*/false, /*num_threads=*/1);
  EXPECT_EQ(ForestKernel::TotalBatches(), batches_before + 1);
  EXPECT_EQ(ForestKernel::TotalRowsScored(), rows_before + 3);
}

TEST(ForestKernelTest, NaNRowsMatchReferenceBitForBit) {
  // NaN compares false against every threshold, so a NaN feature always
  // walks right — in the reference and in the kernel, bit for bit.
  MlDataset data = MakeDataset(12, 4 * ForestKernel::kRowBlock, 33);
  RandomForest forest = TrainForest(data, 8);
  const size_t n = data.size();
  const size_t dim = data.dim();
  std::vector<float> features(data.features().begin(), data.features().end());
  for (size_t i = 0; i < n; i += 7) {
    features[i * dim + (i % dim)] = std::numeric_limits<float>::quiet_NaN();
  }
  std::vector<float> reference(n), got(n);
  forest.PredictBatchReference(features.data(), n, dim, reference.data());
  for (int threads : {1, 4}) {
    forest.set_num_threads(threads);
    forest.PredictBatch(features.data(), n, dim, got.data());
    EXPECT_EQ(std::memcmp(got.data(), reference.data(), n * sizeof(float)), 0)
        << threads << " threads";
  }
}

TEST(ForestKernelTest, NarrowBatchTakesGuardedPathAndMatchesReference) {
  // Score a batch narrower than the trained feature space: missing features
  // read as 0 in the reference walk, and the kernel's guarded read must
  // match it bitwise.
  const MlDataset train = MakeDataset(20, 300, 35);
  RandomForest forest = TrainForest(train, 10);
  int32_t max_feature = -1;
  for (const DecisionTree& tree : forest.trees()) {
    for (size_t i = 0; i < tree.num_nodes(); ++i) {
      max_feature = std::max(max_feature, tree.node_feature(i));
    }
  }
  ASSERT_GE(max_feature, 6) << "some split must read past the narrow width";
  const MlDataset narrow = MakeDataset(6, 200, 37);
  const size_t n = narrow.size();
  std::vector<float> reference(n), got(n);
  forest.PredictBatchReference(narrow.features().data(), n, narrow.dim(),
                               reference.data());
  forest.PredictBatch(narrow.features().data(), n, narrow.dim(), got.data());
  EXPECT_EQ(std::memcmp(got.data(), reference.data(), n * sizeof(float)), 0);
}

TEST(ForestKernelTest, SaveLoadRebuildsKernelWithIdenticalPredictions) {
  const MlDataset data = MakeDataset(16, 200, 13);
  RandomForest forest = TrainForest(data, 10);
  const size_t n = data.size();
  const size_t dim = data.dim();
  std::vector<float> before(n);
  forest.PredictBatch(data.features().data(), n, dim, before.data());

  const std::string path =
      ::testing::TempDir() + "/forest_kernel_roundtrip.rf";
  ASSERT_TRUE(forest.Save(path).ok());
  RandomForest loaded;
  ASSERT_TRUE(loaded.Load(path).ok());
  std::remove(path.c_str());

  ASSERT_EQ(loaded.kernel().num_trees(), forest.kernel().num_trees());
  EXPECT_EQ(loaded.kernel().num_nodes(), forest.kernel().num_nodes());
  std::vector<float> after(n);
  loaded.PredictBatch(data.features().data(), n, dim, after.data());
  EXPECT_EQ(std::memcmp(after.data(), before.data(), n * sizeof(float)), 0);
}

}  // namespace
}  // namespace robopt
