/// Per-query decision diagnostics on the serving path:
///   - diagnostics + SLO instrumentation change nothing observable about
///     served plans (bit-identical assignments, predictions and stats);
///   - the DecisionRecord carries the layered story: cache cold -> hit,
///     runner-up plans ordered by predicted cost, model version, masks;
///   - the recent-queries ring is bounded, ordered and JSON-exportable;
///   - concurrent serving + collection is race-free and the ring's
///     recorded/dropped accounting balances (TSan CI leg via serve_test).
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "exec/executor.h"
#include "obs/decision.h"
#include "serve/optimizer_service.h"
#include "serve/plan_cache.h"
#include "tdgen/tdgen.h"
#include "workloads/queries.h"

namespace robopt {
namespace {

bool Contains(const std::string& haystack, const std::string& needle) {
  return haystack.find(needle) != std::string::npos;
}

class DiagnosticsTest : public ::testing::Test {
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
    options.seed = 99;
    Executor plain(registry_, cost_);
    Tdgen tdgen(registry_, schema_, &plain, options);
    auto base = tdgen.Generate();
    ASSERT_TRUE(base.ok()) << base.status().ToString();
    base_ = new MlDataset(std::move(base.value()));
  }

  /// Model training is fully seeded, so two services built from the same
  /// base dataset serve the identical v1 model — the cross-service
  /// bit-identity comparisons below rely on that.
  static std::unique_ptr<OptimizerService> MakeService(ServeOptions options) {
    options.background_retrain = false;
    options.forest.num_trees = 20;
    if (options.num_shards == 0) options.num_shards = 1;
    auto service = OptimizerService::Create(registry_, schema_, *base_,
                                            /*initial=*/nullptr, options);
    EXPECT_TRUE(service.ok()) << service.status().ToString();
    return std::move(service.value());
  }

  static PlatformRegistry* registry_;
  static FeatureSchema* schema_;
  static VirtualCost* cost_;
  static MlDataset* base_;
};

PlatformRegistry* DiagnosticsTest::registry_ = nullptr;
FeatureSchema* DiagnosticsTest::schema_ = nullptr;
VirtualCost* DiagnosticsTest::cost_ = nullptr;
MlDataset* DiagnosticsTest::base_ = nullptr;

TEST_F(DiagnosticsTest, DiagnosticsAndSloAreBitIdenticalToPlainServing) {
  ServeOptions plain_options;
  auto plain = MakeService(plain_options);

  ServeOptions instrumented_options;
  instrumented_options.diagnostics.enabled = true;
  instrumented_options.slo.enabled = true;
  auto instrumented = MakeService(instrumented_options);

  const LogicalPlan plans[] = {MakeWordCountPlan(0.001),
                               MakeTpchQ3Plan(0.01)};
  for (const LogicalPlan& plan : plans) {
    auto base = plain->Optimize(plan);
    auto diag = instrumented->Optimize(plan);
    ASSERT_TRUE(base.ok()) << base.status().ToString();
    ASSERT_TRUE(diag.ok()) << diag.status().ToString();
    for (const LogicalOperator& op : plan.operators()) {
      EXPECT_EQ(diag->optimize.plan.alt_index(op.id),
                base->optimize.plan.alt_index(op.id));
    }
    EXPECT_EQ(diag->optimize.predicted_runtime_s,
              base->optimize.predicted_runtime_s);
    EXPECT_EQ(diag->optimize.model_version, base->optimize.model_version);
    EXPECT_EQ(diag->optimize.chosen_platform, base->optimize.chosen_platform);
    EXPECT_EQ(diag->optimize.stats.vectors_created,
              base->optimize.stats.vectors_created);
    EXPECT_EQ(diag->optimize.stats.vectors_pruned,
              base->optimize.stats.vectors_pruned);
    EXPECT_EQ(diag->optimize.stats.final_vectors,
              base->optimize.stats.final_vectors);
    EXPECT_EQ(diag->optimize.stats.concat_steps,
              base->optimize.stats.concat_steps);
    EXPECT_EQ(diag->optimize.stats.oracle_rows,
              base->optimize.stats.oracle_rows);
    EXPECT_EQ(diag->optimize.stats.oracle_batches,
              base->optimize.stats.oracle_batches);
  }
  // The plain service paid nothing for diagnostics it never asked for.
  EXPECT_TRUE(plain->RecentDecisions().empty());
  EXPECT_EQ(plain->ExportDecisionsJson(), "[\n\n]\n");
  // And the instrumented one saw every call.
  EXPECT_EQ(instrumented->RecentDecisions().size(), 2u);
}

TEST_F(DiagnosticsTest, RecordsTellTheCacheAndRunnerUpStory) {
  ServeOptions options;
  options.diagnostics.enabled = true;
  // The stale-version part below exercises the shards' *lazy*
  // invalidation (a promotion never drops cache entries eagerly).
  options.num_shards = 2;
  auto service = MakeService(options);

  const LogicalPlan plan = MakeWordCountPlan(0.001);
  RequestContext ctx;
  ctx.tenant = 42;
  auto first = service->Optimize(plan, nullptr, options.optimize, ctx);
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(first->cache_hit);
  auto second = service->Optimize(plan, nullptr, options.optimize, ctx);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->cache_hit);

  const std::vector<DecisionRecord> records = service->RecentDecisions();
  ASSERT_EQ(records.size(), 2u);

  const DecisionRecord& miss = records[0];
  const DecisionRecord& hit = records[1];
  // Oldest first, sequenced in request order, same query identity.
  EXPECT_LT(miss.seq, hit.seq);
  EXPECT_LE(miss.wall_us, hit.wall_us);
  EXPECT_EQ(miss.tenant, 42u);
  EXPECT_NE(miss.fp_lo | miss.fp_hi, 0u);
  EXPECT_EQ(miss.fp_lo, hit.fp_lo);
  EXPECT_EQ(miss.fp_hi, hit.fp_hi);
  EXPECT_EQ(miss.options_hash, hit.options_hash);
  // Same (tenant, fingerprint) -> same shard, which is why the repeat
  // lands on the warm cache slice.
  EXPECT_EQ(miss.shard, hit.shard);

  // First call: a cold miss that really optimized.
  EXPECT_EQ(miss.status, StatusCode::kOk);
  EXPECT_EQ(miss.shed, ShedReason::kNone);
  EXPECT_EQ(miss.cache, DecisionCacheResult::kMissCold);
  EXPECT_EQ(miss.model_version, first->optimize.model_version);
  EXPECT_EQ(miss.predicted_runtime_s, first->optimize.predicted_runtime_s);
  EXPECT_EQ(miss.vectors_created, first->optimize.stats.vectors_created);
  EXPECT_GT(miss.vectors_created, 0u);
  EXPECT_GT(miss.oracle_rows, 0u);
  EXPECT_GT(miss.latency_us, 0.0);
  EXPECT_EQ(miss.excluded_platform_mask, 0u);
  EXPECT_EQ(miss.open_breaker_mask, 0u);

  // Runner-ups: predicted costs no better than the served plan, ascending,
  // each identified by a non-zero assignment hash distinct from the others.
  ASSERT_GT(miss.num_runners, 0u);
  ASSERT_LE(miss.num_runners, kDecisionRunners);
  float prev = miss.predicted_runtime_s;
  for (uint32_t i = 0; i < miss.num_runners; ++i) {
    EXPECT_GE(miss.runners[i].predicted_runtime_s, prev) << i;
    EXPECT_NE(miss.runners[i].assignment_hash, 0u) << i;
    prev = miss.runners[i].predicted_runtime_s;
  }

  // Second call: a hit — served from the cache, so no enumeration stats
  // and no runner-ups, but the same plan identity and model version.
  EXPECT_EQ(hit.cache, DecisionCacheResult::kHit);
  EXPECT_EQ(hit.model_version, miss.model_version);
  EXPECT_EQ(hit.vectors_created, 0u);
  EXPECT_EQ(hit.num_runners, 0u);

  // A promotion invalidates the entry: the next call is a stale-version
  // miss, pinned to the new model.
  const uint64_t v2 = service->PublishExternal(
      std::make_shared<RandomForest>(service->registry().Current()->forest()));
  auto third = service->Optimize(plan, nullptr, options.optimize, ctx);
  ASSERT_TRUE(third.ok());
  EXPECT_FALSE(third->cache_hit);
  const std::vector<DecisionRecord> after = service->RecentDecisions();
  ASSERT_EQ(after.size(), 3u);
  EXPECT_EQ(after[2].cache, DecisionCacheResult::kMissStaleVersion);
  EXPECT_EQ(after[2].model_version, v2);
}

TEST_F(DiagnosticsTest, CacheDisabledRecordsSayDisabled) {
  ServeOptions options;
  options.diagnostics.enabled = true;
  options.plan_cache_capacity = 0;
  auto service = MakeService(options);
  const LogicalPlan plan = MakeWordCountPlan(0.001);
  ASSERT_TRUE(service->Optimize(plan).ok());
  ASSERT_TRUE(service->Optimize(plan).ok());
  const std::vector<DecisionRecord> records = service->RecentDecisions();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].cache, DecisionCacheResult::kDisabled);
  EXPECT_EQ(records[1].cache, DecisionCacheResult::kDisabled);
  // No cache key was ever computed; diagnostics fingerprinted on its own.
  EXPECT_NE(records[0].fp_lo | records[0].fp_hi, 0u);
  // Without a cache the repeat query re-enumerates and finds runner-ups.
  EXPECT_GT(records[1].num_runners, 0u);
}

TEST_F(DiagnosticsTest, RingIsBoundedOldestRecordsFallOff) {
  ServeOptions options;
  options.diagnostics.enabled = true;
  options.diagnostics.ring_capacity = 4;
  options.plan_cache_capacity = 0;
  auto service = MakeService(options);
  const LogicalPlan plan = MakeWordCountPlan(0.001);
  for (int i = 0; i < 10; ++i) {
    RequestContext ctx;
    ctx.tenant = static_cast<uint64_t>(i);
    ASSERT_TRUE(service->Optimize(plan, nullptr, options.optimize, ctx).ok());
  }
  const std::vector<DecisionRecord> records = service->RecentDecisions();
  ASSERT_EQ(records.size(), 4u);  // Capacity, not history.
  // The retained window is the most recent 4, oldest first.
  EXPECT_EQ(records[0].tenant, 6u);
  EXPECT_EQ(records[3].tenant, 9u);
  for (size_t i = 1; i < records.size(); ++i) {
    EXPECT_LT(records[i - 1].seq, records[i].seq);
  }
  // max_records trims from the old end.
  const std::vector<DecisionRecord> last_two = service->RecentDecisions(2);
  ASSERT_EQ(last_two.size(), 2u);
  EXPECT_EQ(last_two[0].tenant, 8u);
  EXPECT_EQ(last_two[1].tenant, 9u);
}

TEST_F(DiagnosticsTest, JsonExportIsWellFormedAndNamed) {
  ServeOptions options;
  options.diagnostics.enabled = true;
  auto service = MakeService(options);
  const LogicalPlan plan = MakeWordCountPlan(0.001);
  ASSERT_TRUE(service->Optimize(plan).ok());
  ASSERT_TRUE(service->Optimize(plan).ok());

  const std::string json = service->ExportDecisionsJson();
  EXPECT_TRUE(Contains(json, "\"seq\": 0"));
  EXPECT_TRUE(Contains(json, "\"cache\": \"miss_cold\""));
  EXPECT_TRUE(Contains(json, "\"cache\": \"hit\""));
  EXPECT_TRUE(Contains(json, "\"shed\": \"none\""));
  EXPECT_TRUE(Contains(json, "\"status\": \"ok\""));
  EXPECT_TRUE(Contains(json, "\"runners_up\": ["));
  EXPECT_TRUE(Contains(json, "\"assignment_hash\""));
  EXPECT_TRUE(Contains(json, "\"model_version\": 1"));

  // Ring health gauges ride the metrics snapshot.
  const MetricsSnapshot snap = service->SnapshotMetrics();
  EXPECT_DOUBLE_EQ(snap.Value("robopt_decisions_recorded_total", -1.0), 2.0);
  EXPECT_DOUBLE_EQ(snap.Value("robopt_decisions_dropped_total", -1.0), 0.0);
}

/// N threads serve through one diagnostics-enabled sharded service while a
/// collector thread drains the ring and exports JSON. The ring must account
/// for every request exactly once (recorded + dropped == calls) and the
/// sequence numbers must stay unique.
TEST_F(DiagnosticsTest, ConcurrentServingAndCollectionIsRaceFree) {
  ServeOptions options;
  options.diagnostics.enabled = true;
  options.diagnostics.ring_capacity = 64;
  options.slo.enabled = true;
  options.num_shards = 2;
  auto service = MakeService(options);

  constexpr int kThreads = 4;
  constexpr int kCallsPerThread = 50;
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> ok_calls{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const LogicalPlan plan = MakeWordCountPlan(0.001);
      for (int i = 0; i < kCallsPerThread; ++i) {
        RequestContext ctx;
        ctx.tenant = static_cast<uint64_t>(t);
        auto result =
            service->Optimize(plan, nullptr, options.optimize, ctx);
        if (result.ok()) ok_calls.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  std::thread collector([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      const std::vector<DecisionRecord> records = service->RecentDecisions();
      for (size_t i = 1; i < records.size(); ++i) {
        EXPECT_LT(records[i - 1].seq, records[i].seq);
      }
      (void)service->ExportDecisionsJson(8);
      service->EvaluateSloNow();
    }
  });
  for (std::thread& thread : threads) thread.join();
  stop.store(true, std::memory_order_relaxed);
  collector.join();

  EXPECT_EQ(ok_calls.load(), static_cast<uint64_t>(kThreads) *
                                 kCallsPerThread);
  const MetricsSnapshot snap = service->SnapshotMetrics();
  const double recorded = snap.Value("robopt_decisions_recorded_total", -1.0);
  const double dropped = snap.Value("robopt_decisions_dropped_total", -1.0);
  EXPECT_DOUBLE_EQ(recorded + dropped,
                   static_cast<double>(kThreads) * kCallsPerThread);
}

}  // namespace
}  // namespace robopt
