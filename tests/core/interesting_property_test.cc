#include "core/interesting_property.h"

#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <utility>
#include <vector>

#include "test_oracles.h"
#include "workloads/queries.h"
#include "workloads/synthetic.h"

namespace robopt {
namespace {

class InterestingPropertyTest : public ::testing::Test {
 protected:
  InterestingPropertyTest()
      : registry_(PlatformRegistry::Default(2)), schema_(&registry_) {}

  PlatformRegistry registry_;
  FeatureSchema schema_;
};

TEST_F(InterestingPropertyTest, EmptyPropertyListMatchesPlainPrune) {
  LogicalPlan plan = MakeSyntheticPipeline(5, 1e5, 3);
  auto ctx = EnumerationContext::Make(&plan, &registry_, &schema_);
  ASSERT_TRUE(ctx.ok());
  AbstractPlanVector middle;
  middle.ops = {1, 2, 3};
  const PlanVectorEnumeration v = Enumerate(*ctx, middle);
  LinearFeatureOracle oracle(schema_, 9);
  const PlanVectorEnumeration plain = PruneBoundary(*ctx, v, oracle);
  const PlanVectorEnumeration with_props =
      PruneBoundaryWithProperties(*ctx, v, oracle, {});
  ASSERT_EQ(plain.size(), with_props.size());
  for (size_t i = 0; i < plain.size(); ++i) {
    for (size_t c = 0; c < schema_.width(); ++c) {
      EXPECT_FLOAT_EQ(plain.features(i)[c], with_props.features(i)[c]);
    }
  }
}

TEST_F(InterestingPropertyTest, VariantPropertyKeepsBothSamplerVariants) {
  // A scope whose boundary is a Spark Sample: without the variant property
  // the two Spark variants share a footprint (platform Spark) and one is
  // pruned; with it, both survive.
  LogicalPlan plan = MakeSgdPlan(0.5, 100, 10);
  OperatorId sample = kInvalidOperatorId;
  for (const LogicalOperator& op : plan.operators()) {
    if (op.kind == LogicalOpKind::kSample) sample = op.id;
  }
  ASSERT_NE(sample, kInvalidOperatorId);
  auto ctx = EnumerationContext::Make(&plan, &registry_, &schema_);
  ASSERT_TRUE(ctx.ok());
  AbstractPlanVector single;
  single.ops = {sample};
  const PlanVectorEnumeration v = Enumerate(*ctx, single);
  // Java sampler + 2 Spark variants.
  ASSERT_EQ(v.size(), 3u);
  LinearFeatureOracle oracle(schema_, 21);
  const PlanVectorEnumeration plain = PruneBoundary(*ctx, v, oracle);
  EXPECT_EQ(plain.size(), 2u);  // One per platform.
  VariantProperty variant;
  const PlanVectorEnumeration finer =
      PruneBoundaryWithProperties(*ctx, v, oracle, {&variant});
  EXPECT_EQ(finer.size(), 3u);  // Variants kept distinct.
}

TEST_F(InterestingPropertyTest, LoneFootprintRowIsKeptUnscored) {
  // The SGD sampler's three alternatives: Java's is alone in its platform
  // footprint, the two Spark variants share one. Only the Spark rows have a
  // rival, so only they reach the oracle; with the variant property every
  // row is alone and the oracle is not called. The kept rows are those of
  // a prune that scores every row.
  LogicalPlan plan = MakeSgdPlan(0.5, 100, 10);
  OperatorId sample = kInvalidOperatorId;
  for (const LogicalOperator& op : plan.operators()) {
    if (op.kind == LogicalOpKind::kSample) sample = op.id;
  }
  ASSERT_NE(sample, kInvalidOperatorId);
  auto ctx = EnumerationContext::Make(&plan, &registry_, &schema_);
  ASSERT_TRUE(ctx.ok());
  AbstractPlanVector single;
  single.ops = {sample};
  const PlanVectorEnumeration v = Enumerate(*ctx, single);
  ASSERT_EQ(v.size(), 3u);
  const LinearFeatureOracle linear(schema_, 21);
  std::vector<float> costs(v.size());
  linear.EstimateBatch(v.feature_pool().data(), v.size(), v.width(),
                       costs.data());
  // Reference champions in first-seen footprint order: the lone row, and
  // the cheaper of the two rows sharing a platform (the earlier on a tie).
  std::vector<size_t> lone;
  std::vector<size_t> shared;
  for (size_t row = 0; row < v.size(); ++row) {
    size_t peers = 0;
    for (size_t other = 0; other < v.size(); ++other) {
      peers += ctx->PlatformOfAssignment(v.assignment(other), sample) ==
                       ctx->PlatformOfAssignment(v.assignment(row), sample)
                   ? 1
                   : 0;
    }
    (peers == 1 ? lone : shared).push_back(row);
  }
  ASSERT_EQ(lone.size(), 1u);
  ASSERT_EQ(shared.size(), 2u);
  const size_t shared_champion =
      costs[shared[1]] < costs[shared[0]] ? shared[1] : shared[0];
  std::vector<size_t> want = {lone[0], shared_champion};
  if (shared[0] < lone[0]) std::swap(want[0], want[1]);

  RecordingOracle plain_oracle(&linear);
  PruneStats plain_stats;
  const PlanVectorEnumeration plain = PruneBoundaryWithProperties(
      *ctx, v, plain_oracle, {}, &plain_stats);
  ASSERT_EQ(plain.size(), want.size());
  for (size_t k = 0; k < want.size(); ++k) {
    EXPECT_EQ(std::memcmp(plain.assignment(k), v.assignment(want[k]),
                          v.num_ops()),
              0);
  }
  EXPECT_EQ(plain_oracle.rows_estimated(), 2u);  // Fewer than the 3 rows.
  EXPECT_EQ(plain_oracle.batches(), 1u);
  EXPECT_EQ(plain_stats.rows_unscored, 1u);

  VariantProperty variant;
  RecordingOracle finer_oracle(&linear);
  PruneStats finer_stats;
  const PlanVectorEnumeration finer = PruneBoundaryWithProperties(
      *ctx, v, finer_oracle, {&variant}, &finer_stats);
  ASSERT_EQ(finer.size(), 3u);
  for (size_t k = 0; k < finer.size(); ++k) {
    EXPECT_EQ(std::memcmp(finer.assignment(k), v.assignment(k), v.num_ops()),
              0);
  }
  EXPECT_EQ(finer_oracle.rows_estimated(), 0u);
  EXPECT_EQ(finer_oracle.batches(), 0u);
  EXPECT_EQ(finer_stats.rows_unscored, 3u);
}

TEST_F(InterestingPropertyTest, FinerFootprintStillKeepsTheCheapest) {
  LogicalPlan plan = MakeSyntheticPipeline(6, 1e5, 5);
  auto ctx = EnumerationContext::Make(&plan, &registry_, &schema_);
  ASSERT_TRUE(ctx.ok());
  AbstractPlanVector middle;
  middle.ops = {1, 2, 3, 4};
  const PlanVectorEnumeration v = Enumerate(*ctx, middle);
  LinearFeatureOracle oracle(schema_, 13);
  SortednessProperty sortedness;
  const PlanVectorEnumeration pruned =
      PruneBoundaryWithProperties(*ctx, v, oracle, {&sortedness});
  // The global cheapest row always survives any lossless prune.
  std::vector<float> all_costs(v.size());
  oracle.EstimateBatch(v.feature_pool().data(), v.size(), v.width(),
                       all_costs.data());
  float global_min = std::numeric_limits<float>::infinity();
  for (float c : all_costs) global_min = std::min(global_min, c);
  std::vector<float> kept_costs(pruned.size());
  oracle.EstimateBatch(pruned.feature_pool().data(), pruned.size(),
                       pruned.width(), kept_costs.data());
  float kept_min = std::numeric_limits<float>::infinity();
  for (float c : kept_costs) kept_min = std::min(kept_min, c);
  EXPECT_FLOAT_EQ(kept_min, global_min);
}

TEST_F(InterestingPropertyTest, PropertyNames) {
  EXPECT_EQ(VariantProperty().Name(), "variant");
  EXPECT_EQ(SortednessProperty().Name(), "sortedness");
}

}  // namespace
}  // namespace robopt
