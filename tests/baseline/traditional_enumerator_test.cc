#include "baseline/traditional_enumerator.h"

#include <gtest/gtest.h>

#include "baseline/baseline_optimizers.h"
#include "core/optimizer.h"
#include "ml/random_forest.h"
#include "workloads/queries.h"
#include "workloads/synthetic.h"

namespace robopt {
namespace {

/// A runtime model with a fixed linear form over features — deterministic
/// and additive, so the traditional and vectorized enumerations must agree.
class LinearRuntimeModel : public RuntimeModel {
 public:
  explicit LinearRuntimeModel(size_t dim) : weights_(dim) {
    for (size_t i = 0; i < dim; ++i) {
      weights_[i] = 0.001 * static_cast<double>((i * 2654435761u) % 97);
    }
  }

  Status Train(const MlDataset&) override { return Status::OK(); }
  void PredictBatch(const float* x, size_t n, size_t dim,
                    float* out) const override {
    for (size_t i = 0; i < n; ++i) {
      double acc = 0.0;
      for (size_t j = 0; j < dim && j < weights_.size(); ++j) {
        acc += weights_[j] * x[i * dim + j];
      }
      out[i] = static_cast<float>(acc);
    }
  }
  Status Save(const std::string&) const override { return Status::OK(); }
  Status Load(const std::string&) override { return Status::OK(); }
  std::string Name() const override { return "LinearRuntimeModel"; }

 private:
  std::vector<double> weights_;
};

class TraditionalEnumeratorTest : public ::testing::Test {
 protected:
  TraditionalEnumeratorTest()
      : registry_(PlatformRegistry::Default(2)),
        schema_(&registry_),
        truth_(&registry_),
        cost_model_(&registry_, &truth_, CostModel::Tuning::kWellTuned),
        ml_model_(schema_.width()) {
    // Zero the max-merged cells so the linear model is exactly additive.
  }

  EnumerationContext MakeCtx(const LogicalPlan& plan) {
    auto ctx = EnumerationContext::Make(&plan, &registry_, &schema_);
    EXPECT_TRUE(ctx.ok()) << ctx.status().ToString();
    return std::move(ctx).value();
  }

  PlatformRegistry registry_;
  FeatureSchema schema_;
  VirtualCost truth_;
  CostModel cost_model_;
  LinearRuntimeModel ml_model_;
};

TEST_F(TraditionalEnumeratorTest, CostModelOracleProducesValidPlan) {
  LogicalPlan plan = MakeWordCountPlan(1.0);
  const EnumerationContext ctx = MakeCtx(plan);
  TraditionalOptions options;
  options.oracle = TraditionalOracle::kCostModel;
  TraditionalEnumerator enumerator(&ctx, &cost_model_, nullptr, options);
  auto result = enumerator.Run();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->plan.Validate().ok());
  EXPECT_GT(result->stats.subplans_created, 0u);
  EXPECT_GT(result->stats.oracle_ms, 0.0);
  EXPECT_DOUBLE_EQ(result->stats.vectorize_ms, 0.0);
}

TEST_F(TraditionalEnumeratorTest, MlOracleTracksVectorizationTime) {
  LogicalPlan plan = MakeWordCountPlan(1.0);
  const EnumerationContext ctx = MakeCtx(plan);
  TraditionalOptions options;
  options.oracle = TraditionalOracle::kMlModel;
  TraditionalEnumerator enumerator(&ctx, nullptr, &ml_model_, options);
  auto result = enumerator.Run();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->plan.Validate().ok());
  EXPECT_GT(result->stats.vectorize_ms, 0.0);
}

TEST_F(TraditionalEnumeratorTest, MissingOracleFails) {
  LogicalPlan plan = MakeWordCountPlan(1.0);
  const EnumerationContext ctx = MakeCtx(plan);
  TraditionalOptions options;
  options.oracle = TraditionalOracle::kCostModel;
  TraditionalEnumerator enumerator(&ctx, nullptr, nullptr, options);
  EXPECT_FALSE(enumerator.Run().ok());
}

TEST_F(TraditionalEnumeratorTest, RheemMlFindsSamePlanAsRobopt) {
  // Same model, same pruning, same priority: the object-based and the
  // vectorized enumerations must pick the same execution plan (the paper's
  // Fig. 1 setup: "both approaches explore the same number of plans").
  for (uint64_t seed : {41u, 42u, 43u}) {
    LogicalPlan plan = MakeSyntheticPipeline(7, 1e6, seed);
    const EnumerationContext ctx = MakeCtx(plan);

    TraditionalOptions options;
    options.oracle = TraditionalOracle::kMlModel;
    TraditionalEnumerator traditional(&ctx, nullptr, &ml_model_, options);
    auto object_result = traditional.Run();
    ASSERT_TRUE(object_result.ok());

    MlCostOracle oracle(&ml_model_);
    PriorityEnumerator vectorized(&ctx, &oracle);
    auto vector_result = vectorized.Run();
    ASSERT_TRUE(vector_result.ok());

    EXPECT_NEAR(object_result->predicted_cost,
                vector_result->predicted_runtime_s,
                std::abs(vector_result->predicted_runtime_s) * 1e-4)
        << "seed " << seed;
  }
}

TEST_F(TraditionalEnumeratorTest, RheemixFacadeSinglePlatformMode) {
  RheemixOptimizer rheemix(&registry_, &schema_, &cost_model_);
  LogicalPlan plan = MakeWordCountPlan(0.001);
  OptimizeOptions options;
  options.single_platform = true;
  auto result = rheemix.Optimize(plan, nullptr, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->plan.PlatformsUsed().size(), 1u);
}

TEST_F(TraditionalEnumeratorTest, RheemMlFacadeRuns) {
  RheemMlOptimizer rheem_ml(&registry_, &schema_, &ml_model_);
  LogicalPlan plan = MakeTpchQ1Plan(1.0);
  auto result = rheem_ml.Optimize(plan);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->plan.Validate().ok());
  EXPECT_GT(result->latency_ms, 0.0);
}

TEST_F(TraditionalEnumeratorTest, SubplanCountsMatchVectorizedCounts) {
  // Identical search strategy -> identical number of explored sub-plans.
  // Both cost only sub-plans with a rival in their boundary footprint, plus
  // the final candidates: the same number of oracle calls.
  LogicalPlan plan = MakeSyntheticPipeline(6, 1e6, 44);
  const EnumerationContext ctx = MakeCtx(plan);
  TraditionalOptions options;
  options.oracle = TraditionalOracle::kMlModel;
  TraditionalEnumerator traditional(&ctx, nullptr, &ml_model_, options);
  auto object_result = traditional.Run();
  ASSERT_TRUE(object_result.ok());
  MlCostOracle oracle(&ml_model_);
  PriorityEnumerator vectorized(&ctx, &oracle);
  auto vector_result = vectorized.Run();
  ASSERT_TRUE(vector_result.ok());
  EXPECT_EQ(object_result->stats.subplans_created,
            vector_result->stats.vectors_created);
  EXPECT_GT(vector_result->stats.rows_unscored, 0u);
  EXPECT_EQ(object_result->stats.subplans_costed,
            vector_result->stats.oracle_rows);
}

}  // namespace
}  // namespace robopt
