// A row's prediction must not depend on the batch it is scored in: alone,
// at any position of a batch, and in batches that end before, on and after
// the forest's 64-row block edge. Boundary pruning relies on this when it
// scores only a gathered subset of a merge's rows and must still pick the
// champions that scoring every row picks.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "ml/linear_regression.h"
#include "ml/mlp.h"
#include "ml/random_forest.h"

namespace robopt {
namespace {

constexpr size_t kDim = 12;
constexpr size_t kRows = 130;

MlDataset MakeDataset(size_t rows, uint64_t seed) {
  MlDataset data(kDim);
  Rng rng(seed);
  std::vector<float> row(kDim);
  for (size_t i = 0; i < rows; ++i) {
    double label = 1.0;
    for (size_t j = 0; j < kDim; ++j) {
      row[j] = static_cast<float>(rng.NextUniform(0, 50));
      label += 0.1 * static_cast<double>(j + 1) * row[j];
    }
    data.Add(row, static_cast<float>(label * rng.NextUniform(0.8, 1.2)));
  }
  return data;
}

/// Every row's prediction alone, then in batches of each size starting at
/// several offsets into the rows (wrapping around), bit for bit.
void ExpectPositionIndependent(const RuntimeModel& model) {
  const MlDataset rows = MakeDataset(kRows, 77);
  std::vector<uint32_t> alone(kRows);
  for (size_t r = 0; r < kRows; ++r) {
    alone[r] = std::bit_cast<uint32_t>(model.Predict(rows.row(r), kDim));
  }
  for (size_t batch : {size_t{1}, size_t{63}, size_t{64}, size_t{65},
                       size_t{130}}) {
    for (size_t offset : {size_t{0}, size_t{1}, size_t{37}, size_t{64},
                          size_t{129}}) {
      std::vector<float> x;
      for (size_t i = 0; i < batch; ++i) {
        const float* row = rows.row((offset + i) % kRows);
        x.insert(x.end(), row, row + kDim);
      }
      std::vector<float> out(batch);
      model.PredictBatch(x.data(), batch, kDim, out.data());
      for (size_t i = 0; i < batch; ++i) {
        const size_t r = (offset + i) % kRows;
        ASSERT_EQ(std::bit_cast<uint32_t>(out[i]), alone[r])
            << model.Name() << ": row " << r << " at position " << i
            << " of a " << batch << "-row batch";
      }
    }
  }
}

TEST(BatchPositionTest, ForestPredictionIndependentOfBatch) {
  const MlDataset train = MakeDataset(300, 5);
  for (int threads : {1, 4}) {
    RandomForest::Params params;
    params.num_trees = 10;
    params.num_threads = threads;
    RandomForest forest(params);
    ASSERT_TRUE(forest.Train(train).ok());
    SCOPED_TRACE(::testing::Message() << threads << " threads");
    ExpectPositionIndependent(forest);
  }
}

TEST(BatchPositionTest, MlpPredictionIndependentOfBatch) {
  MlpRegressor::Params params;
  params.hidden_units = 16;
  params.epochs = 5;
  MlpRegressor mlp(params);
  ASSERT_TRUE(mlp.Train(MakeDataset(300, 6)).ok());
  ExpectPositionIndependent(mlp);
}

TEST(BatchPositionTest, LinearPredictionIndependentOfBatch) {
  LinearRegression linear;
  ASSERT_TRUE(linear.Train(MakeDataset(300, 7)).ok());
  ExpectPositionIndependent(linear);
}

}  // namespace
}  // namespace robopt
