#include "core/priority_enumeration.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <string>

#include "test_oracles.h"
#include "workloads/queries.h"
#include "workloads/synthetic.h"

namespace robopt {
namespace {

class PriorityEnumerationTest : public ::testing::Test {
 protected:
  PriorityEnumerationTest()
      : registry_(PlatformRegistry::Synthetic(3)),
        schema_(&registry_),
        oracle_(schema_, 99) {}

  EnumerationContext MakeCtx(const LogicalPlan& plan) {
    auto ctx = EnumerationContext::Make(&plan, &registry_, &schema_);
    EXPECT_TRUE(ctx.ok()) << ctx.status().ToString();
    return std::move(ctx).value();
  }

  /// Brute-force optimum over the complete search space.
  float BruteForceMin(const EnumerationContext& ctx) {
    const PlanVectorEnumeration all = Enumerate(ctx, Vectorize(ctx));
    std::vector<float> costs(all.size());
    oracle_.EstimateBatch(all.feature_pool().data(), all.size(), all.width(),
                          costs.data());
    float best = std::numeric_limits<float>::infinity();
    for (float c : costs) best = std::min(best, c);
    return best;
  }

  PlatformRegistry registry_;
  FeatureSchema schema_;
  LinearFeatureOracle oracle_;
};

TEST_F(PriorityEnumerationTest, FindsBruteForceOptimumOnPipeline) {
  LogicalPlan plan = MakeSyntheticPipeline(6, 1e5, 21);
  const EnumerationContext ctx = MakeCtx(plan);
  PriorityEnumerator enumerator(&ctx, &oracle_);
  auto result = enumerator.Run();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_NEAR(result->predicted_runtime_s, BruteForceMin(ctx),
              std::abs(BruteForceMin(ctx)) * 1e-5);
  EXPECT_TRUE(result->plan.Validate().ok());
}

TEST_F(PriorityEnumerationTest, FindsBruteForceOptimumOnJoinTree) {
  LogicalPlan plan = MakeSyntheticJoinTree(2, 1e5, 22);
  const EnumerationContext ctx = MakeCtx(plan);
  PriorityEnumerator enumerator(&ctx, &oracle_);
  auto result = enumerator.Run();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_NEAR(result->predicted_runtime_s, BruteForceMin(ctx),
              std::abs(BruteForceMin(ctx)) * 1e-5);
}

TEST_F(PriorityEnumerationTest, FindsBruteForceOptimumOnLoopPlan) {
  LogicalPlan plan = MakeSyntheticLoopPlan(9, 1e5, 10, 23);
  const EnumerationContext ctx = MakeCtx(plan);
  PriorityEnumerator enumerator(&ctx, &oracle_);
  auto result = enumerator.Run();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_NEAR(result->predicted_runtime_s, BruteForceMin(ctx),
              std::abs(BruteForceMin(ctx)) * 1e-5);
}

TEST_F(PriorityEnumerationTest, FindsBruteForceOptimumOnDisconnectedPlan) {
  // Two independent pipelines: once each is merged into one enumeration,
  // no enumeration has children and the queue joins the components.
  LogicalPlan plan;
  for (int component = 0; component < 2; ++component) {
    LogicalOperator source;
    source.kind = LogicalOpKind::kTextFileSource;
    source.name = "src" + std::to_string(component);
    source.source_cardinality = 1e5;
    const OperatorId src = plan.Add(std::move(source));
    const OperatorId map = plan.Add(
        component == 0 ? LogicalOpKind::kMap : LogicalOpKind::kFilter,
        "op" + std::to_string(component));
    const OperatorId sink = plan.Add(LogicalOpKind::kCollectionSink,
                                     "sink" + std::to_string(component));
    plan.Connect(src, map);
    plan.Connect(map, sink);
  }
  const EnumerationContext ctx = MakeCtx(plan);
  for (PriorityMode mode : {PriorityMode::kPaper, PriorityMode::kTopDown,
                            PriorityMode::kBottomUp}) {
    EnumeratorOptions options;
    options.priority = mode;
    PriorityEnumerator enumerator(&ctx, &oracle_, options);
    auto result = enumerator.Run();
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_NEAR(result->predicted_runtime_s, BruteForceMin(ctx),
                std::abs(BruteForceMin(ctx)) * 1e-5);
    EXPECT_TRUE(result->plan.Validate().ok());
  }
}

TEST_F(PriorityEnumerationTest, AllPriorityModesFindTheSameOptimum) {
  LogicalPlan plan = MakeSyntheticJoinTree(3, 1e5, 24);
  const EnumerationContext ctx = MakeCtx(plan);
  std::vector<float> minima;
  for (PriorityMode mode : {PriorityMode::kPaper, PriorityMode::kTopDown,
                            PriorityMode::kBottomUp}) {
    EnumeratorOptions options;
    options.priority = mode;
    PriorityEnumerator enumerator(&ctx, &oracle_, options);
    auto result = enumerator.Run();
    ASSERT_TRUE(result.ok());
    minima.push_back(result->predicted_runtime_s);
  }
  EXPECT_FLOAT_EQ(minima[0], minima[1]);
  EXPECT_FLOAT_EQ(minima[0], minima[2]);
}

TEST_F(PriorityEnumerationTest, ExhaustiveMatchesPrunedResult) {
  LogicalPlan plan = MakeSyntheticPipeline(5, 1e5, 25);
  const EnumerationContext ctx = MakeCtx(plan);
  EnumeratorOptions exhaustive;
  exhaustive.prune = PruneMode::kNone;
  PriorityEnumerator a(&ctx, &oracle_, exhaustive);
  PriorityEnumerator b(&ctx, &oracle_);
  auto ra = a.Run();
  auto rb = b.Run();
  ASSERT_TRUE(ra.ok() && rb.ok());
  EXPECT_FLOAT_EQ(ra->predicted_runtime_s, rb->predicted_runtime_s);
  // Exhaustive creates exponentially more vectors.
  EXPECT_GT(ra->stats.vectors_created, rb->stats.vectors_created);
}

TEST_F(PriorityEnumerationTest, PruningKeepsVectorCountQuadratic) {
  // Table I's structure: with pruning the count grows ~linearly in ops and
  // ~cubically in platforms; without, it explodes.
  for (int k : {2, 3}) {
    PlatformRegistry registry = PlatformRegistry::Synthetic(k);
    FeatureSchema schema(&registry);
    LinearFeatureOracle oracle(schema, 1);
    LogicalPlan plan = MakeSyntheticPipeline(20, 1e5, 26);
    auto ctx = EnumerationContext::Make(&plan, &registry, &schema);
    ASSERT_TRUE(ctx.ok());
    PriorityEnumerator enumerator(&ctx.value(), &oracle);
    auto result = enumerator.Run();
    ASSERT_TRUE(result.ok());
    EXPECT_LE(result->stats.vectors_created,
              static_cast<size_t>(20 * k * k * k + 20 * k));
    EXPECT_LE(result->stats.final_vectors, static_cast<size_t>(k * k));
  }
}

TEST_F(PriorityEnumerationTest, ExhaustiveRespectsMaxVectors) {
  LogicalPlan plan = MakeSyntheticPipeline(20, 1e5, 27);
  const EnumerationContext ctx = MakeCtx(plan);
  EnumeratorOptions options;
  options.prune = PruneMode::kNone;
  options.max_vectors = 10000;
  PriorityEnumerator enumerator(&ctx, &oracle_, options);
  auto result = enumerator.Run();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
}

TEST_F(PriorityEnumerationTest, SwitchCapModeBoundsSwitches) {
  LogicalPlan plan = MakeSyntheticPipeline(8, 1e5, 28);
  const EnumerationContext ctx = MakeCtx(plan);
  EnumeratorOptions options;
  options.prune = PruneMode::kSwitchCap;
  options.beta = 2;
  PriorityEnumerator enumerator(&ctx, &oracle_, options);
  auto result = enumerator.Run();
  ASSERT_TRUE(result.ok());
  for (size_t i = 0; i < result->final_enumeration.size(); ++i) {
    EXPECT_LE(result->final_enumeration.switches(i), 2);
  }
  EXPECT_GT(result->final_enumeration.size(), 3u);
}

TEST_F(PriorityEnumerationTest, MaxRowsCapSubsamples) {
  LogicalPlan plan = MakeSyntheticPipeline(8, 1e5, 29);
  const EnumerationContext ctx = MakeCtx(plan);
  EnumeratorOptions options;
  options.prune = PruneMode::kSwitchCap;
  options.beta = 3;
  options.max_rows_per_enumeration = 16;
  PriorityEnumerator enumerator(&ctx, &oracle_, options);
  auto result = enumerator.Run();
  ASSERT_TRUE(result.ok());
  EXPECT_LE(result->final_enumeration.size(), 16u);
  EXPECT_GT(result->final_enumeration.size(), 0u);
}

TEST_F(PriorityEnumerationTest, StatsCountOracleTraffic) {
  LogicalPlan plan = MakeSyntheticPipeline(6, 1e5, 30);
  const EnumerationContext ctx = MakeCtx(plan);
  PriorityEnumerator enumerator(&ctx, &oracle_);
  auto result = enumerator.Run();
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->stats.oracle_rows, 0u);
  EXPECT_GT(result->stats.oracle_batches, 0u);
  EXPECT_GT(result->stats.concat_steps, 0u);
  EXPECT_GT(result->stats.vectors_pruned, 0u);
}

TEST_F(PriorityEnumerationTest, ResultPlanMatchesPredictedCost) {
  LogicalPlan plan = MakeSyntheticJoinTree(2, 1e5, 31);
  const EnumerationContext ctx = MakeCtx(plan);
  PriorityEnumerator enumerator(&ctx, &oracle_);
  auto result = enumerator.Run();
  ASSERT_TRUE(result.ok());
  // Re-encode the returned plan and check the oracle agrees.
  std::vector<uint8_t> assignment(plan.num_operators(), 0);
  for (const LogicalOperator& op : plan.operators()) {
    assignment[op.id] =
        static_cast<uint8_t>(result->plan.alt_index(op.id) + 1);
  }
  const std::vector<float> features =
      EncodeAssignment(ctx, assignment.data());
  EXPECT_NEAR(oracle_.CostOf(features), result->predicted_runtime_s,
              std::abs(result->predicted_runtime_s) * 1e-4);
}

TEST_F(PriorityEnumerationTest, SecondRunOnOneEnumeratorIsIdentical) {
  LogicalPlan plan = MakeSyntheticJoinTree(4, 1e5, 32);
  const EnumerationContext ctx = MakeCtx(plan);
  PriorityEnumerator enumerator(&ctx, &oracle_);
  auto first = enumerator.Run();
  auto second = enumerator.Run();
  ASSERT_TRUE(first.ok() && second.ok());
  EXPECT_EQ(std::bit_cast<uint32_t>(first->predicted_runtime_s),
            std::bit_cast<uint32_t>(second->predicted_runtime_s));
  for (const LogicalOperator& op : plan.operators()) {
    EXPECT_EQ(first->plan.alt_index(op.id), second->plan.alt_index(op.id));
  }
  EXPECT_EQ(first->best_row, second->best_row);
  EXPECT_EQ(first->stats.vectors_created, second->stats.vectors_created);
  EXPECT_EQ(first->stats.vectors_pruned, second->stats.vectors_pruned);
  EXPECT_EQ(first->stats.final_vectors, second->stats.final_vectors);
  EXPECT_EQ(first->stats.concat_steps, second->stats.concat_steps);
  EXPECT_EQ(first->stats.oracle_rows, second->stats.oracle_rows);
  EXPECT_EQ(first->stats.oracle_batches, second->stats.oracle_batches);
}

enum PlanShape { kPipeline, kJoinTree };

/// One pinned enumeration: with `exhausted`, the run must exceed the
/// golden budget; otherwise its stats and cost bits must match exactly.
struct GoldenRun {
  PriorityMode mode;
  PlanShape shape;
  int size;  ///< Operators of a pipeline, joins of a join tree.
  size_t vectors_created;
  size_t concat_steps;
  /// Rows a prune that scores every row sends to the oracle (the original
  /// pin): today's oracle_rows plus the rows kept unscored.
  size_t rows_scored_or_unscored;
  size_t oracle_rows;
  size_t oracle_batches;
  uint32_t cost_bits;
  bool exhausted = false;
};

// The Fig. 9 plans (2 platforms, plan seed 3) under every priority mode.
// Recorded from the original full-rescan scheduler; any change to the merge
// order (which enumeration is dequeued, in which order its children are
// concatenated) moves at least one of these numbers. Top-down on the
// 16-join tree materializes millions of vectors; it is pinned by exceeding
// the budget. oracle_rows and oracle_batches were re-pinned when boundary
// pruning stopped scoring rows alone in their footprint group; the rows a
// score-every-row prune sends stay pinned as oracle_rows + rows_unscored.
constexpr size_t kGoldenMaxVectors = 500u * 1000u;
const GoldenRun kGoldenRuns[] = {
    {PriorityMode::kPaper, kPipeline, 40, 308, 39, 229, 157, 22, 0x4cb4efb8u},
    {PriorityMode::kPaper, kPipeline, 80, 628, 79, 469, 317, 42, 0x4cb4efbbu},
    {PriorityMode::kPaper, kPipeline, 160, 1268, 159, 949, 637, 82,
     0x4cb4efd8u},
    {PriorityMode::kPaper, kPipeline, 240, 1908, 239, 1429, 957, 122,
     0x4cb4eff6u},
    {PriorityMode::kPaper, kJoinTree, 4, 140, 15, 109, 85, 12, 0x4c54f717u},
    {PriorityMode::kPaper, kJoinTree, 8, 260, 27, 205, 157, 20, 0x4ca25f5au},
    {PriorityMode::kPaper, kJoinTree, 16, 500, 51, 397, 301, 36, 0x4d1b1229u},
    {PriorityMode::kTopDown, kPipeline, 40, 236, 39, 157, 157, 40, 0x4cb4efb8u},
    {PriorityMode::kTopDown, kPipeline, 80, 476, 79, 317, 317, 80, 0x4cb4efbbu},
    {PriorityMode::kTopDown, kPipeline, 160, 956, 159, 637, 637, 160,
     0x4cb4efd9u},
    {PriorityMode::kTopDown, kPipeline, 240, 1436, 239, 957, 957, 240,
     0x4cb4eff7u},
    {PriorityMode::kTopDown, kJoinTree, 4, 480, 15, 449, 389, 12, 0x4c54f718u},
    {PriorityMode::kTopDown, kJoinTree, 8, 11320, 27, 11265, 10245, 20,
     0x4ca25f5au},
    {PriorityMode::kTopDown, kJoinTree, 16, 0, 0, 0, 0, 0, 0u,
     /*exhausted=*/true},
    {PriorityMode::kBottomUp, kPipeline, 40, 236, 39, 157, 157, 40,
     0x4cb4efb8u},
    {PriorityMode::kBottomUp, kPipeline, 80, 476, 79, 317, 317, 80,
     0x4cb4efbbu},
    {PriorityMode::kBottomUp, kPipeline, 160, 956, 159, 637, 637, 160,
     0x4cb4efd8u},
    {PriorityMode::kBottomUp, kPipeline, 240, 1436, 239, 957, 957, 240,
     0x4cb4eff6u},
    {PriorityMode::kBottomUp, kJoinTree, 4, 152, 15, 121, 93, 13, 0x4c54f718u},
    {PriorityMode::kBottomUp, kJoinTree, 8, 1632, 27, 1577, 1069, 21,
     0x4ca25f5au},
    {PriorityMode::kBottomUp, kJoinTree, 16, 393392, 51, 393289, 262221, 37,
     0x4d1b1229u},
};

TEST_F(PriorityEnumerationTest, MergeOrderMatchesGoldenOnFig9Plans) {
  PlatformRegistry registry = PlatformRegistry::Synthetic(2);
  FeatureSchema schema(&registry);
  LinearFeatureOracle oracle(schema, 7);
  for (const GoldenRun& golden : kGoldenRuns) {
    LogicalPlan plan = golden.shape == kPipeline
                           ? MakeSyntheticPipeline(golden.size, 1e7, 3)
                           : MakeSyntheticJoinTree(golden.size, 1e7, 3);
    auto ctx = EnumerationContext::Make(&plan, &registry, &schema);
    ASSERT_TRUE(ctx.ok());
    EnumeratorOptions options;
    options.priority = golden.mode;
    options.num_threads = 1;
    options.max_vectors = kGoldenMaxVectors;
    PriorityEnumerator enumerator(&ctx.value(), &oracle, options);
    auto result = enumerator.Run();
    SCOPED_TRACE(::testing::Message()
                 << "mode " << static_cast<int>(golden.mode) << ", "
                 << (golden.shape == kPipeline ? "pipeline " : "join tree ")
                 << golden.size);
    if (golden.exhausted) {
      ASSERT_FALSE(result.ok());
      EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
      continue;
    }
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->stats.vectors_created, golden.vectors_created);
    EXPECT_EQ(result->stats.concat_steps, golden.concat_steps);
    EXPECT_EQ(result->stats.oracle_rows + result->stats.rows_unscored,
              golden.rows_scored_or_unscored);
    EXPECT_EQ(result->stats.oracle_rows, golden.oracle_rows);
    EXPECT_EQ(result->stats.oracle_batches, golden.oracle_batches);
    EXPECT_EQ(std::bit_cast<uint32_t>(result->predicted_runtime_s),
              golden.cost_bits);
  }
}

TEST_F(PriorityEnumerationTest, Fig10VectorCountsMatchGolden) {
  // bench_fig10_priority's "vectors R/T/B" column: join trees with 2..5
  // joins on 3 and 5 platforms, paper / top-down / bottom-up priority.
  struct Fig10Row {
    int platforms;
    int joins;
    size_t paper, top_down, bottom_up;
  };
  const Fig10Row rows[] = {
      {3, 2, 237, 363, 129},       {3, 3, 309, 1263, 255},
      {3, 4, 435, 4431, 597},      {3, 5, 507, 15375, 1587},
      {5, 2, 1175, 2275, 375},     {5, 3, 1465, 14165, 1165},
      {5, 4, 2255, 86055, 4955},   {5, 5, 2545, 507945, 23745},
  };
  for (const Fig10Row& row : rows) {
    PlatformRegistry registry = PlatformRegistry::Synthetic(row.platforms);
    FeatureSchema schema(&registry);
    LinearFeatureOracle oracle(schema, 23);
    LogicalPlan plan = MakeSyntheticJoinTree(row.joins, 1e7, 11);
    auto ctx = EnumerationContext::Make(&plan, &registry, &schema);
    ASSERT_TRUE(ctx.ok());
    std::vector<size_t> counts;
    for (PriorityMode mode : {PriorityMode::kPaper, PriorityMode::kTopDown,
                              PriorityMode::kBottomUp}) {
      EnumeratorOptions options;
      options.priority = mode;
      options.num_threads = 1;
      PriorityEnumerator enumerator(&ctx.value(), &oracle, options);
      auto result = enumerator.Run();
      ASSERT_TRUE(result.ok());
      counts.push_back(result->stats.vectors_created);
    }
    SCOPED_TRACE(::testing::Message() << row.platforms << " platforms, "
                                      << row.joins << " joins");
    EXPECT_EQ(counts, (std::vector<size_t>{row.paper, row.top_down,
                                           row.bottom_up}));
  }
}

}  // namespace
}  // namespace robopt
