#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "serve/optimizer_service.h"
#include "tdgen/tdgen.h"
#include "workloads/datagen.h"
#include "workloads/queries.h"

namespace robopt {
namespace {

ExecutionPlan AllOn(const LogicalPlan& plan, const PlatformRegistry& registry,
                    PlatformId platform) {
  ExecutionPlan exec(&plan, &registry);
  for (const LogicalOperator& op : plan.operators()) {
    const auto& alts = registry.AlternativesFor(op.kind);
    for (size_t a = 0; a < alts.size(); ++a) {
      if (alts[a].platform == platform && alts[a].variant == 0) {
        exec.Assign(op.id, static_cast<int>(a));
        break;
      }
    }
  }
  return exec;
}

/// End-to-end fault recovery over the full stack: executors feed the
/// service-owned circuit breakers, a trip invalidates the affected cached
/// plans and masks the platform out of re-optimization, and a half-open
/// probe success recovers it — all on the deterministic virtual clock.
class RecoveryE2eTest : public ::testing::Test {
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

  static ServeOptions RecoveryServeOptions(int threshold, double cooldown_s) {
    ServeOptions options;
    options.background_retrain = false;
    options.forest.num_trees = 20;
    options.breaker.failure_threshold = threshold;
    options.breaker.cooldown_s = cooldown_s;
    return options;
  }

  /// Executes `assigned` (by default `plan` assigned wholly to `platform`)
  /// through an executor wired to the service (observer + breakers), under
  /// an optional permanent fault on `platform`. Returns the execution status.
  static Status ExecuteOn(OptimizerService* service, const LogicalPlan& plan,
                          PlatformId platform, bool inject_permanent_fault,
                          const ExecutionPlan* assigned = nullptr) {
    DataCatalog catalog;
    catalog.Bind(plan.SourceIds()[0], GenerateTextLines(1000, 1000, 5));
    ExecutorOptions exec_options;
    exec_options.observer = service;
    exec_options.health = service->health();
    if (inject_permanent_fault) {
      exec_options.fault_plan.profiles.push_back(
          FaultProfile{static_cast<int>(platform), kAnyOpKind,
                       /*failure_rate=*/1.0, /*fail_on_invocation=*/0,
                       /*permanent=*/true, /*slowdown=*/1.0});
    }
    Executor executor(registry_, cost_, nullptr, exec_options);
    return executor
        .Execute(assigned != nullptr ? *assigned
                                     : AllOn(plan, *registry_, platform),
                 catalog)
        .status();
  }

  static PlatformRegistry* registry_;
  static FeatureSchema* schema_;
  static VirtualCost* cost_;
  static MlDataset* base_;
};

PlatformRegistry* RecoveryE2eTest::registry_ = nullptr;
FeatureSchema* RecoveryE2eTest::schema_ = nullptr;
VirtualCost* RecoveryE2eTest::cost_ = nullptr;
MlDataset* RecoveryE2eTest::base_ = nullptr;

TEST_F(RecoveryE2eTest, PermanentOutageTripsBreakerAndReoptimizesAroundIt) {
  constexpr int kThreshold = 3;
  constexpr PlatformId kSpark = 1;  // Platform 0 hosts the driver-pinned ops.
  // Explicit shard counts: the trip must reach every shard's cache before
  // OnExecutionFailure returns, whatever the host's core count.
  for (const int num_shards : {1, 2, 8}) {
    SCOPED_TRACE("num_shards=" + std::to_string(num_shards));
    ServeOptions options = RecoveryServeOptions(kThreshold, /*cooldown_s=*/1e9);
    options.num_shards = num_shards;
    auto service =
        OptimizerService::Create(registry_, schema_, *base_, nullptr, options);
    ASSERT_TRUE(service.ok()) << service.status().ToString();
    ASSERT_EQ((*service)->num_shards(), num_shards);

    // Warm the cache with a plan that routes through Spark.
    LogicalPlan plan = MakeWordCountPlan(0.001);
    OptimizeOptions spark_only;
    spark_only.allowed_platform_mask = 1ull << kSpark;
    auto spark_plan = (*service)->Optimize(plan, nullptr, spark_only);
    ASSERT_TRUE(spark_plan.ok()) << spark_plan.status().ToString();
    bool uses_spark = false;
    for (PlatformId p : spark_plan->optimize.plan.PlatformsUsed()) {
      uses_spark |= p == kSpark;
    }
    ASSERT_TRUE(uses_spark);
    ASSERT_GE((*service)->Stats().plan_cache.insertions, 1u);

    // Spark goes permanently dark: every execution against it dies until
    // the breaker trips at the consecutive-failure threshold.
    for (int i = 0; i < kThreshold; ++i) {
      // Below the threshold the breaker is still closed.
      EXPECT_EQ((*service)->health()->state(kSpark), BreakerState::kClosed);
      const Status status = ExecuteOn(service->get(), plan, kSpark,
                                      /*inject_permanent_fault=*/true);
      EXPECT_EQ(status.code(), StatusCode::kUnavailable);
    }
    EXPECT_EQ((*service)->health()->state(kSpark), BreakerState::kOpen);

    {
      // Read with no Optimize() since the trip: the eager fan-out alone
      // must have reconciled it.
      const ServeStats stats = (*service)->Stats();
      EXPECT_EQ(stats.recovery.failures_observed,
                static_cast<uint64_t>(kThreshold));
      EXPECT_EQ(stats.feedback.failures, static_cast<uint64_t>(kThreshold));
      EXPECT_EQ(stats.recovery.breaker_trips, 1u);
      EXPECT_EQ(stats.recovery.open_platform_mask, 1ull << kSpark);
      // The trip dropped the cached plan that routed through Spark.
      EXPECT_EQ(stats.recovery.plans_invalidated_on_trip, 1u);
      EXPECT_EQ(stats.plan_cache.platform_invalidations, 1u);
    }

    // Re-optimization masks the dead platform out of enumeration: the same
    // query now gets a plan that avoids Spark entirely (a fresh optimize,
    // not a cache hit — the exclusion mask is part of the cache key).
    auto fallback = (*service)->Optimize(plan);
    ASSERT_TRUE(fallback.ok()) << fallback.status().ToString();
    EXPECT_FALSE(fallback->cache_hit);
    for (PlatformId p : fallback->optimize.plan.PlatformsUsed()) {
      EXPECT_NE(p, kSpark);
    }
    {
      const ServeStats stats = (*service)->Stats();
      EXPECT_GE(stats.recovery.masked_optimizes, 1u);
      // The lazy backstop on that shard found nothing left to drop.
      EXPECT_EQ(stats.recovery.plans_invalidated_on_trip, 1u);
    }
    // The fallback runs clean while Spark stays dark.
    EXPECT_TRUE(ExecuteOn(service->get(), plan, kSpark,
                          /*inject_permanent_fault=*/true,
                          &fallback->optimize.plan)
                    .ok());

    // A query restricted to the dead platform alone has nowhere to run.
    EXPECT_FALSE((*service)->Optimize(plan, nullptr, spark_only).ok());

    // Breaker-open fast-fail: an execution pinned to Spark is rejected up
    // front without touching its kernels.
    const Status rejected = ExecuteOn(service->get(), plan, kSpark,
                                      /*inject_permanent_fault=*/false);
    EXPECT_EQ(rejected.code(), StatusCode::kUnavailable);
    EXPECT_GE((*service)->health()->snapshot(kSpark).rejected, 1u);
  }
}

TEST_F(RecoveryE2eTest, HalfOpenProbeRecoversThePlatform) {
  constexpr int kThreshold = 2;
  constexpr double kCooldown = 50.0;
  constexpr PlatformId kSpark = 1;
  auto service = OptimizerService::Create(
      registry_, schema_, *base_, nullptr,
      RecoveryServeOptions(kThreshold, kCooldown));
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  LogicalPlan plan = MakeWordCountPlan(0.001);

  // Transient outage: trip the breaker...
  for (int i = 0; i < kThreshold; ++i) {
    EXPECT_EQ(ExecuteOn(service->get(), plan, kSpark,
                        /*inject_permanent_fault=*/true)
                  .code(),
              StatusCode::kUnavailable);
  }
  ASSERT_EQ((*service)->health()->state(kSpark), BreakerState::kOpen);
  EXPECT_EQ((*service)->Stats().recovery.open_platform_mask, 1ull << kSpark);

  // ...let the cooldown elapse on the virtual clock (no wall time)...
  service->get()->health()->AdvanceClock(kCooldown);
  EXPECT_EQ((*service)->health()->state(kSpark), BreakerState::kHalfOpen);
  // Half-open is routable: the serving layer no longer masks the platform.
  EXPECT_EQ((*service)->Stats().recovery.open_platform_mask, 0u);

  // ...and send the probe: a healthy execution closes the breaker.
  ASSERT_TRUE(ExecuteOn(service->get(), plan, kSpark,
                        /*inject_permanent_fault=*/false)
                  .ok());
  EXPECT_EQ((*service)->health()->state(kSpark), BreakerState::kClosed);
  const ServeStats stats = (*service)->Stats();
  EXPECT_EQ(stats.recovery.breaker_recoveries, 1u);
  EXPECT_EQ(stats.recovery.breaker_trips, 1u);
  EXPECT_EQ(stats.recovery.open_platform_mask, 0u);

  // Fully recovered: a Spark-only optimization works again.
  OptimizeOptions spark_only;
  spark_only.allowed_platform_mask = 1ull << kSpark;
  EXPECT_TRUE((*service)->Optimize(plan, nullptr, spark_only).ok());
}

TEST_F(RecoveryE2eTest, OomExecutionNeverReachesTraining) {
  // Regression for non-finite runtime ingestion: an OOM run reports +inf
  // virtual seconds through the observer; neither the feedback queue nor
  // the drift stats may ingest it.
  auto service = OptimizerService::Create(
      registry_, schema_, *base_, nullptr,
      RecoveryServeOptions(/*threshold=*/100, /*cooldown_s=*/1e9));
  ASSERT_TRUE(service.ok()) << service.status().ToString();

  LogicalPlan oom_plan = MakeWordCountPlan(1000.0);  // 1 TB on Java.
  DataCatalog catalog;
  catalog.Bind(oom_plan.SourceIds()[0],
               GenerateTextLines(1000.0 * 1e9 / 80, 500, 5));
  ExecutorOptions exec_options;
  exec_options.observer = service->get();
  exec_options.health = service->get()->health();
  Executor executor(registry_, cost_, nullptr, exec_options);
  auto result = executor.Execute(AllOn(oom_plan, *registry_, 0), catalog);
  ASSERT_TRUE(result.ok());
  ASSERT_TRUE(result->cost.oom);

  const ServeStats stats = (*service)->Stats();
  EXPECT_EQ(stats.feedback.accepted, 0u);
  EXPECT_EQ(stats.feedback.offered, 0u);  // The service filters before Offer.
  // The OOM still registered as a platform failure with the breaker.
  EXPECT_EQ((*service)->health()->snapshot(0).consecutive_failures, 1);
  // And the +inf runtime did not advance the virtual clock.
  EXPECT_DOUBLE_EQ((*service)->health()->now_s(), 0.0);
}

}  // namespace
}  // namespace robopt
