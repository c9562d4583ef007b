#include "serve/optimizer_service.h"

#include <gtest/gtest.h>

#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <thread>

#include "common/rng.h"
#include "tdgen/tdgen.h"
#include "workloads/datagen.h"
#include "workloads/queries.h"

namespace robopt {
namespace {

/// End-to-end serving lifecycle over the full stack: TDGEN bootstraps v1,
/// real executions feed the FeedbackCollector, a retrain cycle validates a
/// candidate on the holdout split and promotes (or rejects) it, and the
/// plan cache rides the version changes.
class ServingE2eTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    RegisterWorkloadKernels();
    registry_ = new PlatformRegistry(PlatformRegistry::Default(2));
    schema_ = new FeatureSchema(registry_);
    cost_ = new VirtualCost(registry_);
    TdgenOptions options;
    options.plans_per_shape = 4;
    options.max_operators = 10;
    options.max_structures_per_plan = 16;
    options.seed = 321;
    Executor plain(registry_, cost_);
    Tdgen tdgen(registry_, schema_, &plain, options);
    auto base = tdgen.Generate();
    ASSERT_TRUE(base.ok()) << base.status().ToString();
    base_ = new MlDataset(std::move(base.value()));
  }

  static ServeOptions SmallServeOptions() {
    ServeOptions options;
    options.background_retrain = false;  // Tests drive cycles explicitly.
    options.retrain_min_events = 8;
    options.promote_tolerance = 0.5;
    options.forest.num_trees = 20;
    return options;
  }

  /// Runs the service's optimized plan through a real executor wired to the
  /// service as its observer, `n` times.
  static void ExecuteOptimized(OptimizerService* service, int n) {
    LogicalPlan plan = MakeWordCountPlan(0.001);
    auto optimized = service->Optimize(plan);
    ASSERT_TRUE(optimized.ok()) << optimized.status().ToString();
    DataCatalog catalog;
    catalog.Bind(plan.SourceIds()[0], GenerateTextLines(1000, 1000, 5));
    ExecutorOptions exec_options;
    exec_options.observer = service;
    Executor executor(registry_, cost_, nullptr, exec_options);
    for (int i = 0; i < n; ++i) {
      auto result = executor.Execute(optimized->optimize.plan, catalog);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
    }
  }

  static PlatformRegistry* registry_;
  static FeatureSchema* schema_;
  static VirtualCost* cost_;
  static MlDataset* base_;
};

PlatformRegistry* ServingE2eTest::registry_ = nullptr;
FeatureSchema* ServingE2eTest::schema_ = nullptr;
VirtualCost* ServingE2eTest::cost_ = nullptr;
MlDataset* ServingE2eTest::base_ = nullptr;

TEST_F(ServingE2eTest, TrainsV1AndServesFromPlanCache) {
  auto service = OptimizerService::Create(registry_, schema_, *base_,
                                          /*initial=*/nullptr,
                                          SmallServeOptions());
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  EXPECT_EQ((*service)->registry().current_version(), 1u);
  // v1 was validated on the holdout carved from the base set.
  EXPECT_FALSE(std::isnan((*service)->registry().Current()->holdout_mae()));

  LogicalPlan plan = MakeWordCountPlan(0.001);
  auto first = (*service)->Optimize(plan);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_FALSE(first->cache_hit);
  EXPECT_EQ(first->optimize.model_version, 1u);
  EXPECT_TRUE(first->optimize.plan.Validate().ok());

  // A *different instance* of the same logical plan must hit via the
  // canonical fingerprint and carry the identical assignment.
  LogicalPlan again = MakeWordCountPlan(0.001);
  auto second = (*service)->Optimize(again);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->cache_hit);
  EXPECT_TRUE(second->optimize.plan.Validate().ok());
  EXPECT_EQ(second->optimize.predicted_runtime_s,
            first->optimize.predicted_runtime_s);
  for (const LogicalOperator& op : plan.operators()) {
    EXPECT_EQ(second->optimize.plan.alt_index(op.id),
              first->optimize.plan.alt_index(op.id));
  }
  // Different options hash → different key → no false hit.
  OptimizeOptions single;
  single.single_platform = true;
  auto third = (*service)->Optimize(plan, nullptr, single);
  ASSERT_TRUE(third.ok());
  EXPECT_FALSE(third->cache_hit);
  const ServeStats stats = (*service)->Stats();
  EXPECT_EQ(stats.plan_cache.hits, 1u);
  EXPECT_EQ(stats.plan_cache.insertions, 2u);
}

/// Two-source join dataflow built in a configurable insertion order: the
/// same graph, permuted operator ids. Mirrors fingerprint_test's JoinPlan.
LogicalPlan PermutableJoinPlan(bool reversed) {
  auto source = [](double cardinality) {
    LogicalOperator op;
    op.kind = LogicalOpKind::kCollectionSource;
    op.source_cardinality = cardinality;
    return op;
  };
  auto make = [](LogicalOpKind kind, double selectivity) {
    LogicalOperator op;
    op.kind = kind;
    op.selectivity = selectivity;
    return op;
  };
  LogicalPlan plan;
  OperatorId left, right, join, filter, sink;
  if (!reversed) {
    left = plan.Add(source(1e6));
    right = plan.Add(source(1e3));
    join = plan.Add(make(LogicalOpKind::kJoin, 0.01));
    filter = plan.Add(make(LogicalOpKind::kFilter, 0.5));
    sink = plan.Add(make(LogicalOpKind::kCollectionSink, 1.0));
  } else {
    sink = plan.Add(make(LogicalOpKind::kCollectionSink, 1.0));
    filter = plan.Add(make(LogicalOpKind::kFilter, 0.5));
    join = plan.Add(make(LogicalOpKind::kJoin, 0.01));
    right = plan.Add(source(1e3));
    left = plan.Add(source(1e6));
  }
  plan.Connect(left, join);
  plan.Connect(right, join);
  plan.Connect(join, filter);
  plan.Connect(filter, sink);
  return plan;
}

TEST_F(ServingE2eTest, CacheHitRemapsAcrossPermutedInsertionOrders) {
  // The fingerprint is insertion-order independent, so a plan built in a
  // different Add() order hits the entry its permuted twin inserted — but
  // its operator ids are permuted, and a hit that transferred alts by raw
  // id would put them on the wrong operators (or crash in Assign). The hit
  // must remap through the canonical node hashes.
  auto service = OptimizerService::Create(registry_, schema_, *base_,
                                          nullptr, SmallServeOptions());
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  LogicalPlan forward = PermutableJoinPlan(false);
  auto first = (*service)->Optimize(forward);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_FALSE(first->cache_hit);

  LogicalPlan reversed = PermutableJoinPlan(true);
  auto hit = (*service)->Optimize(reversed);
  ASSERT_TRUE(hit.ok()) << hit.status().ToString();
  EXPECT_TRUE(hit->cache_hit);
  EXPECT_TRUE(hit->optimize.plan.Validate().ok());
  EXPECT_EQ(hit->optimize.predicted_runtime_s,
            first->optimize.predicted_runtime_s);

  // Ground truth: a second service over the same base trains a bit-identical
  // v1 (deterministic seeds), so its fresh optimization of the reversed
  // plan is what the hit must reproduce, operator by operator.
  auto fresh_service = OptimizerService::Create(registry_, schema_, *base_,
                                                nullptr, SmallServeOptions());
  ASSERT_TRUE(fresh_service.ok());
  auto fresh = (*fresh_service)->Optimize(reversed);
  ASSERT_TRUE(fresh.ok());
  EXPECT_FALSE(fresh->cache_hit);
  for (const LogicalOperator& op : reversed.operators()) {
    EXPECT_EQ(hit->optimize.plan.alt_index(op.id),
              fresh->optimize.plan.alt_index(op.id))
        << "operator " << op.id;
  }
}

TEST_F(ServingE2eTest, EmptyHoldoutNeverValidatesVacuously) {
  // With no holdout at all, the MAE comparison has no data behind it. The
  // cycle must surface that (validated=false, NaN MAEs) and reject the
  // candidate by default instead of promoting on a vacuous 0 <= 0.
  ServeOptions options = SmallServeOptions();
  options.holdout_fraction = 0.0;
  options.holdout_every = 0;
  auto service =
      OptimizerService::Create(registry_, schema_, *base_, nullptr, options);
  ASSERT_TRUE(service.ok());
  // v1 itself could not be validated either.
  EXPECT_TRUE(std::isnan((*service)->registry().Current()->holdout_mae()));
  ExecuteOptimized(service->get(), 12);
  auto cycle = (*service)->RetrainNow(/*force=*/true);
  ASSERT_TRUE(cycle.ok()) << cycle.status().ToString();
  EXPECT_TRUE(cycle->triggered);
  EXPECT_FALSE(cycle->validated);
  EXPECT_FALSE(cycle->promoted);
  EXPECT_TRUE(std::isnan(cycle->candidate_mae));
  EXPECT_EQ(cycle->holdout_rows, 0u);
  EXPECT_EQ((*service)->registry().current_version(), 1u);
  EXPECT_EQ((*service)->Stats().rejections, 1u);

  // Opting in promotes, but the version is explicitly marked unvalidated —
  // the same NaN-MAE contract as PublishExternal.
  options.promote_unvalidated = true;
  auto opted =
      OptimizerService::Create(registry_, schema_, *base_, nullptr, options);
  ASSERT_TRUE(opted.ok());
  ExecuteOptimized(opted->get(), 12);
  auto promoted = (*opted)->RetrainNow(/*force=*/true);
  ASSERT_TRUE(promoted.ok());
  EXPECT_TRUE(promoted->triggered);
  EXPECT_FALSE(promoted->validated);
  EXPECT_TRUE(promoted->promoted);
  EXPECT_EQ((*opted)->registry().current_version(), 2u);
  EXPECT_TRUE(std::isnan((*opted)->registry().Current()->holdout_mae()));
}

TEST_F(ServingE2eTest, FeedbackRetrainsAndPromotesV2) {
  auto service = OptimizerService::Create(registry_, schema_, *base_,
                                          nullptr, SmallServeOptions());
  ASSERT_TRUE(service.ok());
  // Below the size trigger nothing happens.
  ExecuteOptimized(service->get(), 3);
  auto idle = (*service)->RetrainNow();
  ASSERT_TRUE(idle.ok());
  EXPECT_FALSE(idle->triggered);
  EXPECT_EQ((*service)->registry().current_version(), 1u);

  // Cross the trigger: 1 in holdout_every events lands in the holdout, the
  // rest in the experience log, so 12 more executions comfortably clear
  // retrain_min_events = 8.
  ExecuteOptimized(service->get(), 12);
  auto cycle = (*service)->RetrainNow();
  ASSERT_TRUE(cycle.ok()) << cycle.status().ToString();
  EXPECT_TRUE(cycle->triggered);
  ASSERT_TRUE(cycle->promoted)
      << "candidate MAE " << cycle->candidate_mae << " vs incumbent "
      << cycle->incumbent_mae;
  EXPECT_EQ(cycle->version, 2u);
  EXPECT_GT(cycle->experience_rows, 0u);
  EXPECT_GT(cycle->holdout_rows, 0u);
  // The candidate passed validation within tolerance.
  EXPECT_LE(cycle->candidate_mae,
            cycle->incumbent_mae * (1.0 + SmallServeOptions().promote_tolerance));

  const ServeStats stats = (*service)->Stats();
  EXPECT_EQ(stats.current_version, 2u);
  EXPECT_EQ(stats.retrains, 1u);
  EXPECT_EQ(stats.promotions, 1u);
  EXPECT_EQ(stats.rejections, 0u);
  EXPECT_GT(stats.feedback.drained, 0u);
  // Live feedback events carried drift observations for v1.
  EXPECT_GT((*service)->registry().Get(1)->drift().observations, 0u);

  // Promotion invalidated the plan cache: the next optimize recomputes on
  // v2, then repeat queries hit again.
  LogicalPlan plan = MakeWordCountPlan(0.001);
  auto after = (*service)->Optimize(plan);
  ASSERT_TRUE(after.ok());
  EXPECT_FALSE(after->cache_hit);
  EXPECT_EQ(after->optimize.model_version, 2u);
  auto cached = (*service)->Optimize(plan);
  ASSERT_TRUE(cached.ok());
  EXPECT_TRUE(cached->cache_hit);
}

TEST_F(ServingE2eTest, RegressingCandidateIsRejected) {
  ServeOptions options = SmallServeOptions();
  // An impossible bar: candidate MAE would have to be negative. The cycle
  // must train, validate, and refuse to promote.
  options.promote_tolerance = -2.0;
  auto service =
      OptimizerService::Create(registry_, schema_, *base_, nullptr, options);
  ASSERT_TRUE(service.ok());
  ExecuteOptimized(service->get(), 12);
  auto cycle = (*service)->RetrainNow(/*force=*/true);
  ASSERT_TRUE(cycle.ok());
  EXPECT_TRUE(cycle->triggered);
  EXPECT_FALSE(cycle->promoted);
  EXPECT_EQ((*service)->registry().current_version(), 1u);
  const ServeStats stats = (*service)->Stats();
  EXPECT_EQ(stats.retrains, 1u);
  EXPECT_EQ(stats.promotions, 0u);
  EXPECT_EQ(stats.rejections, 1u);
  // The rejected candidate never touched the serving path or the cache.
  LogicalPlan plan = MakeWordCountPlan(0.001);
  auto result = (*service)->Optimize(plan);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->optimize.model_version, 1u);
}

TEST_F(ServingE2eTest, PublishExternalBypassesValidation) {
  auto service = OptimizerService::Create(registry_, schema_, *base_,
                                          nullptr, SmallServeOptions());
  ASSERT_TRUE(service.ok());
  LogicalPlan plan = MakeWordCountPlan(0.001);
  ASSERT_TRUE((*service)->Optimize(plan).ok());

  RandomForest::Params params;
  params.num_trees = 10;
  auto forest = std::make_shared<RandomForest>(params);
  ASSERT_TRUE(forest->Train(*base_).ok());
  const uint64_t version = (*service)->PublishExternal(std::move(forest));
  EXPECT_EQ(version, 2u);
  EXPECT_TRUE(
      std::isnan((*service)->registry().Current()->holdout_mae()));
  // The ops push also invalidated the cache.
  auto result = (*service)->Optimize(plan);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->cache_hit);
  EXPECT_EQ(result->optimize.model_version, 2u);
}

TEST_F(ServingE2eTest, BackgroundWorkerRetrainsOnItsOwn) {
  ServeOptions options = SmallServeOptions();
  options.background_retrain = true;
  options.worker_poll_s = 0.01;
  options.retrain_min_events = 4;
  auto service =
      OptimizerService::Create(registry_, schema_, *base_, nullptr, options);
  ASSERT_TRUE(service.ok());
  ExecuteOptimized(service->get(), 8);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while ((*service)->Stats().retrains == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_GE((*service)->Stats().retrains, 1u);
  // Destruction joins the worker cleanly (verified by TSan in CI).
  service->reset();
}

TEST_F(ServingE2eTest, CreateRejectsBadInputs) {
  MlDataset wrong(3);
  EXPECT_FALSE(
      OptimizerService::Create(registry_, schema_, wrong, nullptr).ok());
  MlDataset empty(schema_->width());
  EXPECT_FALSE(
      OptimizerService::Create(registry_, schema_, empty, nullptr).ok());
  // An empty base is fine when an initial model is supplied.
  RandomForest::Params params;
  params.num_trees = 5;
  auto forest = std::make_shared<RandomForest>(params);
  ASSERT_TRUE(forest->Train(*base_).ok());
  ServeOptions options = SmallServeOptions();
  auto service = OptimizerService::Create(registry_, schema_, empty,
                                          std::move(forest), options);
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  EXPECT_EQ((*service)->registry().current_version(), 1u);
}

TEST(ServingOptionsKeyTest, CollidingOptionHashesServeTheirOwnPlans) {
  // A and B hash to the same PlanCache::HashOptions value. B after A on the
  // same plan must be a real miss that serves B's own plan: the one a
  // direct optimizer over the pinned model picks for B.
  const PlatformRegistry registry = PlatformRegistry::Default(5);
  const FeatureSchema schema(&registry);
  MlDataset data(schema.width());
  Rng rng(5);
  std::vector<float> row(schema.width());
  for (int i = 0; i < 256; ++i) {
    for (float& cell : row) {
      cell = static_cast<float>(rng.NextUniform(0, 100));
    }
    data.Add(row, static_cast<float>(rng.NextUniform(0, 1000)));
  }
  RandomForest::Params params;
  params.num_trees = 8;
  auto forest = std::make_shared<RandomForest>(params);
  ASSERT_TRUE(forest->Train(data).ok());
  ServeOptions serve;
  serve.background_retrain = false;
  serve.num_shards = 1;
  auto service = OptimizerService::Create(
      &registry, &schema, MlDataset(schema.width()), forest, serve);
  ASSERT_TRUE(service.ok()) << service.status().ToString();

  OptimizeOptions a;
  a.allowed_platform_mask = 0b01111;
  a.excluded_platform_mask = 0b00100;
  a.single_platform = true;
  OptimizeOptions b;
  b.allowed_platform_mask = 0b11100;
  b.excluded_platform_mask = 0b00101;
  ASSERT_EQ(PlanCache::HashOptions(a), PlanCache::HashOptions(b));

  const RoboptOptimizer direct(&registry, &schema,
                               &(*service)->registry().Current()->oracle());
  for (const LogicalPlan& plan :
       {MakeWordCountPlan(2.0), MakeTpchQ3Plan(2.0)}) {
    ASSERT_TRUE((*service)->Optimize(plan, nullptr, a).ok());
    auto served = (*service)->Optimize(plan, nullptr, b);
    ASSERT_TRUE(served.ok()) << served.status().ToString();
    EXPECT_FALSE(served->cache_hit);
    auto expected = direct.Optimize(plan, nullptr, b);
    ASSERT_TRUE(expected.ok()) << expected.status().ToString();
    EXPECT_EQ(std::bit_cast<uint32_t>(served->optimize.predicted_runtime_s),
              std::bit_cast<uint32_t>(expected->predicted_runtime_s));
    for (const LogicalOperator& op : plan.operators()) {
      EXPECT_EQ(served->optimize.plan.alt_index(op.id),
                expected->plan.alt_index(op.id))
          << "operator " << op.name;
    }
  }
}

}  // namespace
}  // namespace robopt
