// The threading contract of the vector algebra: for every thread count the
// enumerator returns the identical chosen assignment, identical predicted
// cost, and identical EnumerationStats; and the packed uint64_t footprint
// keys group exactly like the original string keys.

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/linear_oracle.h"
#include "core/operations.h"
#include "core/optimizer.h"
#include "ml/random_forest.h"
#include "workloads/synthetic.h"

namespace robopt {
namespace {

bool SameEnumeration(const PlanVectorEnumeration& a,
                     const PlanVectorEnumeration& b) {
  if (a.size() != b.size() || a.width() != b.width() ||
      a.num_ops() != b.num_ops()) {
    return false;
  }
  if (std::memcmp(a.feature_pool().data(), b.feature_pool().data(),
                  a.size() * a.width() * sizeof(float)) != 0) {
    return false;
  }
  for (size_t row = 0; row < a.size(); ++row) {
    if (a.switches(row) != b.switches(row)) return false;
    if (std::memcmp(a.assignment(row), b.assignment(row), a.num_ops()) != 0) {
      return false;
    }
  }
  return true;
}

class ParallelDeterminismTest : public ::testing::Test {
 protected:
  ParallelDeterminismTest()
      : registry_(PlatformRegistry::Synthetic(3)), schema_(&registry_) {}

  EnumerationContext MakeCtx(const LogicalPlan& plan) {
    auto ctx = EnumerationContext::Make(&plan, &registry_, &schema_);
    EXPECT_TRUE(ctx.ok()) << ctx.status().ToString();
    return std::move(ctx).value();
  }

  PlatformRegistry registry_;
  FeatureSchema schema_;
};

TEST_F(ParallelDeterminismTest, ConcatParallelMatchesSerialBitForBit) {
  LogicalPlan plan = MakeSyntheticPipeline(10, 1e6, 3);
  const EnumerationContext ctx = MakeCtx(plan);
  AbstractPlanVector left_ops;
  for (OperatorId op = 0; op < 8; ++op) left_ops.ops.push_back(op);
  AbstractPlanVector right_ops;
  right_ops.ops = {8};
  const PlanVectorEnumeration left = Enumerate(ctx, left_ops);   // 3^8 rows.
  const PlanVectorEnumeration right = Enumerate(ctx, right_ops);
  const PlanVectorEnumeration serial = Concat(ctx, left, right, 1);
  ASSERT_GE(serial.size(), 19683u);  // Above the parallel cutover.
  for (int threads : {2, 3, 8}) {
    const PlanVectorEnumeration parallel = Concat(ctx, left, right, threads);
    EXPECT_TRUE(SameEnumeration(serial, parallel)) << threads << " threads";
  }
}

TEST_F(ParallelDeterminismTest, PruneBoundaryParallelMatchesSerial) {
  LogicalPlan plan = MakeSyntheticPipeline(10, 1e6, 5);
  const EnumerationContext ctx = MakeCtx(plan);
  AbstractPlanVector middle;
  for (OperatorId op = 1; op < 9; ++op) middle.ops.push_back(op);
  const PlanVectorEnumeration v = Enumerate(ctx, middle);  // 3^8 rows.
  LinearFeatureOracle oracle(schema_, 23);
  PruneStats serial_stats;
  const PlanVectorEnumeration serial =
      PruneBoundary(ctx, v, oracle, &serial_stats, 1);
  for (int threads : {2, 3, 8}) {
    PruneStats stats;
    const PlanVectorEnumeration parallel =
        PruneBoundary(ctx, v, oracle, &stats, threads);
    EXPECT_TRUE(SameEnumeration(serial, parallel)) << threads << " threads";
    EXPECT_EQ(stats.rows_in, serial_stats.rows_in);
    EXPECT_EQ(stats.rows_out, serial_stats.rows_out);
  }
}

TEST_F(ParallelDeterminismTest, ArgMinCostThreadCountIndependent) {
  LogicalPlan plan = MakeSyntheticPipeline(10, 1e6, 9);
  const EnumerationContext ctx = MakeCtx(plan);
  const PlanVectorEnumeration all = Enumerate(ctx, Vectorize(ctx));
  LinearFeatureOracle oracle(schema_, 31);
  float serial_cost = 0.0f;
  const size_t serial_best = ArgMinCost(ctx, all, oracle, &serial_cost, 1);
  for (int threads : {2, 8}) {
    float cost = 0.0f;
    EXPECT_EQ(ArgMinCost(ctx, all, oracle, &cost, threads), serial_best);
    EXPECT_EQ(cost, serial_cost);
  }
}

/// Reference string-key grouping (the pre-packed-key implementation):
/// cheapest row per footprint, in first-seen footprint order.
std::vector<size_t> StringKeyReference(const EnumerationContext& ctx,
                                       const PlanVectorEnumeration& v,
                                       const std::vector<float>& costs) {
  const std::vector<OperatorId>& boundary = v.boundary();
  std::unordered_map<std::string, size_t> best;
  std::vector<std::string> order;
  std::string key(boundary.size(), '\0');
  for (size_t row = 0; row < v.size(); ++row) {
    for (size_t bi = 0; bi < boundary.size(); ++bi) {
      key[bi] = static_cast<char>(
          ctx.PlatformOfAssignment(v.assignment(row), boundary[bi]) + 1);
    }
    auto [it, inserted] = best.try_emplace(key, row);
    if (inserted) {
      order.push_back(key);
    } else if (costs[row] < costs[it->second]) {
      it->second = row;
    }
  }
  std::vector<size_t> kept;
  for (const std::string& k : order) kept.push_back(best[k]);
  return kept;
}

void ExpectMatchesStringReference(const EnumerationContext& ctx,
                                  const PlanVectorEnumeration& v,
                                  const LinearFeatureOracle& oracle) {
  std::vector<float> costs(v.size());
  oracle.EstimateBatch(v.feature_pool().data(), v.size(), v.width(),
                       costs.data());
  const std::vector<size_t> expected = StringKeyReference(ctx, v, costs);
  for (int threads : {1, 4}) {
    const PlanVectorEnumeration pruned =
        PruneBoundary(ctx, v, oracle, nullptr, threads);
    ASSERT_EQ(pruned.size(), expected.size()) << threads << " threads";
    for (size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(std::memcmp(pruned.assignment(i),
                            v.assignment(expected[i]), v.num_ops()),
                0)
          << "row " << i << ", " << threads << " threads";
    }
  }
}

TEST_F(ParallelDeterminismTest, PackedKeysGroupLikeStringKeys) {
  // Narrow boundary (<= 8 operators): the packed uint64_t path.
  LogicalPlan plan = MakeSyntheticPipeline(8, 1e6, 11);
  const EnumerationContext ctx = MakeCtx(plan);
  AbstractPlanVector middle;
  for (OperatorId op = 1; op < 7; ++op) middle.ops.push_back(op);
  const PlanVectorEnumeration v = Enumerate(ctx, middle);
  ASSERT_LE(v.boundary().size(), 8u);
  LinearFeatureOracle oracle(schema_, 41);
  ExpectMatchesStringReference(ctx, v, oracle);
}

TEST_F(ParallelDeterminismTest, WideBoundaryFallsBackToStringKeys) {
  // Every other operator of a long pipeline: 9 scope members, all of them
  // boundary, which exceeds the 8-operator packed-key cap.
  PlatformRegistry registry = PlatformRegistry::Synthetic(2);
  FeatureSchema schema(&registry);
  LogicalPlan plan = MakeSyntheticPipeline(20, 1e6, 13);
  auto made = EnumerationContext::Make(&plan, &registry, &schema);
  ASSERT_TRUE(made.ok());
  const EnumerationContext ctx = std::move(made).value();
  AbstractPlanVector alternating;
  for (OperatorId op = 1; op < 19; op += 2) alternating.ops.push_back(op);
  const PlanVectorEnumeration v = Enumerate(ctx, alternating);  // 2^9 rows.
  ASSERT_GT(v.boundary().size(), 8u);
  LinearFeatureOracle oracle(schema, 43);
  ExpectMatchesStringReference(ctx, v, oracle);
}

TEST_F(ParallelDeterminismTest, OptimizerDeterministicAcrossThreadCounts) {
  LinearFeatureOracle oracle(schema_, 59);
  RoboptOptimizer optimizer(&registry_, &schema_, &oracle);
  const LogicalPlan plans[] = {
      MakeSyntheticPipeline(12, 1e7, 3),
      MakeSyntheticJoinTree(3, 1e6, 7),
      MakeSyntheticLoopPlan(10, 1e6, 20, 5),
  };
  for (const LogicalPlan& plan : plans) {
    OptimizeOptions serial_options;
    serial_options.num_threads = 1;
    auto serial = optimizer.Optimize(plan, nullptr, serial_options);
    ASSERT_TRUE(serial.ok()) << serial.status().ToString();
    for (int threads : {2, 8}) {
      OptimizeOptions options;
      options.num_threads = threads;
      auto parallel = optimizer.Optimize(plan, nullptr, options);
      ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
      // Identical chosen assignment...
      for (const LogicalOperator& op : plan.operators()) {
        EXPECT_EQ(parallel->plan.alt_index(op.id),
                  serial->plan.alt_index(op.id))
            << "operator " << op.name << ", " << threads << " threads";
      }
      // ... identical cost (bit-for-bit) ...
      EXPECT_EQ(parallel->predicted_runtime_s, serial->predicted_runtime_s);
      // ... and identical enumeration row counts.
      EXPECT_EQ(parallel->stats.vectors_created,
                serial->stats.vectors_created);
      EXPECT_EQ(parallel->stats.vectors_pruned, serial->stats.vectors_pruned);
      EXPECT_EQ(parallel->stats.final_vectors, serial->stats.final_vectors);
      EXPECT_EQ(parallel->stats.oracle_rows, serial->stats.oracle_rows);
      EXPECT_EQ(parallel->stats.concat_steps, serial->stats.concat_steps);
    }
  }
}

TEST_F(ParallelDeterminismTest,
       ForestBackedOptimizerDeterministicAcrossThreadCounts) {
  // Same contract with the real oracle flavor: an MlCostOracle over the
  // flattened forest kernel.
  MlDataset data(schema_.width());
  Rng rng(31);
  std::vector<float> row(schema_.width());
  for (int i = 0; i < 256; ++i) {
    for (float& cell : row) {
      cell = static_cast<float>(rng.NextUniform(0, 100));
    }
    data.Add(row, static_cast<float>(rng.NextUniform(0, 1000)));
  }
  RandomForest::Params params;
  params.num_trees = 12;
  RandomForest forest(params);
  ASSERT_TRUE(forest.Train(data).ok());
  MlCostOracle oracle(&forest);
  RoboptOptimizer optimizer(&registry_, &schema_, &oracle);
  const LogicalPlan plan = MakeSyntheticPipeline(10, 1e6, 13);
  OptimizeOptions serial_options;
  serial_options.num_threads = 1;
  auto serial = optimizer.Optimize(plan, nullptr, serial_options);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  OptimizeOptions options;
  options.num_threads = 4;
  auto parallel = optimizer.Optimize(plan, nullptr, options);
  ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
  for (const LogicalOperator& op : plan.operators()) {
    EXPECT_EQ(parallel->plan.alt_index(op.id), serial->plan.alt_index(op.id));
  }
  EXPECT_EQ(parallel->predicted_runtime_s, serial->predicted_runtime_s);
}

TEST_F(ParallelDeterminismTest, ForestBlockedKernelMatchesPerRowTraversal) {
  const size_t dim = 24;
  MlDataset data(dim);
  Rng rng(7);
  std::vector<float> row(dim);
  for (int i = 0; i < 300; ++i) {
    for (float& cell : row) {
      cell = static_cast<float>(rng.NextUniform(0, 50));
    }
    data.Add(row, static_cast<float>(rng.NextUniform(0, 100)));
  }
  RandomForest::Params params;
  params.num_trees = 15;
  RandomForest forest(params);
  ASSERT_TRUE(forest.Train(data).ok());

  // Expected: the plain per-row mean over trees (the pre-blocking kernel).
  const size_t n = data.size();
  std::vector<float> expected(n);
  for (size_t i = 0; i < n; ++i) {
    double acc = 0.0;
    for (const DecisionTree& tree : forest.trees()) {
      acc += tree.Predict(data.row(i), dim);
    }
    acc = std::expm1(acc / static_cast<double>(forest.trees().size()));
    expected[i] = static_cast<float>(acc < 0 ? 0 : acc);
  }

  std::vector<float> got(n);
  for (int threads : {1, 2, 8}) {
    forest.set_num_threads(threads);
    forest.PredictBatch(data.features().data(), n, dim, got.data());
    EXPECT_EQ(std::memcmp(got.data(), expected.data(), n * sizeof(float)), 0)
        << threads << " threads";
  }
}

}  // namespace
}  // namespace robopt
