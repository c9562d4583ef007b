#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "serve/optimizer_service.h"
#include "tdgen/tdgen.h"
#include "workloads/datagen.h"
#include "workloads/queries.h"

namespace robopt {
namespace {

/// Soak coverage of the sharded serving path (run under TSan in CI):
/// concurrent Optimize() across shards while model promotions, breaker
/// trips/recoveries and plan-cache invalidations fire — plans must stay
/// bit-identical to a direct optimize on the same forest at every shard
/// count, and no invalidation may be lost on any shard. Worker threads record mismatches into atomics and the
/// main thread asserts after joining (gtest failure recording is not
/// thread-safe).
class ShardSoakTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    RegisterWorkloadKernels();
    registry_ = new PlatformRegistry(PlatformRegistry::Default(2));
    schema_ = new FeatureSchema(registry_);
    TdgenOptions options;
    options.plans_per_shape = 4;
    options.max_operators = 10;
    options.max_structures_per_plan = 16;
    options.seed = 321;
    VirtualCost cost(registry_);
    Executor plain(registry_, &cost);
    Tdgen tdgen(registry_, schema_, &plain, options);
    auto base = tdgen.Generate();
    ASSERT_TRUE(base.ok()) << base.status().ToString();
    base_ = new MlDataset(std::move(base.value()));
    RandomForest::Params params;
    params.num_trees = 10;
    forest_ = new std::shared_ptr<RandomForest>(
        std::make_shared<RandomForest>(params));
    ASSERT_TRUE((*forest_)->Train(*base_).ok());
  }

  static ServeOptions ShardedServeOptions(int num_shards) {
    ServeOptions options;
    options.background_retrain = false;
    options.forest.num_trees = 20;
    options.num_shards = num_shards;
    options.shard_queue_capacity = 256;
    return options;
  }

  static PlatformRegistry* registry_;
  static FeatureSchema* schema_;
  static MlDataset* base_;
  /// One deterministic forest shared by every service and every chaos
  /// publish: all versions predict identically, so served plans are
  /// bit-identical no matter which promotion a request races with.
  static std::shared_ptr<RandomForest>* forest_;
};

PlatformRegistry* ShardSoakTest::registry_ = nullptr;
FeatureSchema* ShardSoakTest::schema_ = nullptr;
MlDataset* ShardSoakTest::base_ = nullptr;
std::shared_ptr<RandomForest>* ShardSoakTest::forest_ = nullptr;

constexpr PlatformId kSpark = 1;  // Platform 0 hosts the driver-pinned ops.

TEST_F(ShardSoakTest, PlansStayBitIdenticalToSingleShardUnderChaos) {
  const std::vector<double> sizes = {0.001, 0.002, 0.004,
                                     0.008, 0.016, 0.032};
  // Requests stay on the driver platform, so the chaos thread's Spark
  // breaker flaps change the cache key (exclusion mask) but never the
  // effective search space — plans must not move.
  OptimizeOptions java_only;
  java_only.allowed_platform_mask = 1ull << 0;

  // Ground truth: a direct optimize over the shared forest, no service.
  const MlCostOracle oracle(forest_->get());
  const RoboptOptimizer direct(registry_, schema_, &oracle);
  struct RefPlan {
    uint32_t predicted_bits = 0;
    std::vector<std::pair<OperatorId, int>> alts;
  };
  std::vector<RefPlan> refs;
  for (double size : sizes) {
    LogicalPlan plan = MakeWordCountPlan(size);
    auto result = direct.Optimize(plan, nullptr, java_only);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    RefPlan ref;
    ref.predicted_bits = std::bit_cast<uint32_t>(result->predicted_runtime_s);
    for (const LogicalOperator& op : plan.operators()) {
      ref.alts.emplace_back(op.id, result->plan.alt_index(op.id));
    }
    refs.push_back(std::move(ref));
  }

  for (const int num_shards : {1, 4}) {
    SCOPED_TRACE("num_shards=" + std::to_string(num_shards));
    ServeOptions options = ShardedServeOptions(num_shards);
    options.breaker.failure_threshold = 3;
    options.breaker.cooldown_s = 1.0;
    auto made = OptimizerService::Create(registry_, schema_, *base_,
                                         *forest_, options);
    ASSERT_TRUE(made.ok()) << made.status().ToString();
    ASSERT_EQ((*made)->num_shards(), num_shards);
    OptimizerService* service = made->get();

    constexpr int kWorkers = 4;
    constexpr int kIters = 20;
    constexpr int kChaosRounds = 6;
    std::atomic<uint64_t> mismatches{0};
    std::atomic<uint64_t> failures{0};

    // Chaos: promotions (identical model), no-op retrain cycles, and full
    // breaker trip/recover flaps on Spark — all racing the serving threads.
    std::thread chaos([&] {
      PlatformHealth* health = service->health();
      for (int round = 0; round < kChaosRounds; ++round) {
        service->PublishExternal(*forest_);
        (void)service->RetrainNow(/*force=*/false);
        for (int i = 0; i < options.breaker.failure_threshold; ++i) {
          health->RecordFailure(kSpark);
        }
        health->AdvanceClock(options.breaker.cooldown_s);
        (void)health->state(kSpark);  // Applies open -> half-open.
        health->RecordSuccess(kSpark);
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });

    std::vector<std::thread> workers;
    workers.reserve(kWorkers);
    for (int w = 0; w < kWorkers; ++w) {
      workers.emplace_back([&, w] {
        RequestContext ctx;
        ctx.tenant = static_cast<uint64_t>(w);
        ctx.deadline_s = -1.0;  // Never shed: every plan must be served.
        for (int iter = 0; iter < kIters; ++iter) {
          for (size_t p = 0; p < sizes.size(); ++p) {
            LogicalPlan plan = MakeWordCountPlan(sizes[p]);
            auto result = service->Optimize(plan, nullptr, java_only, ctx);
            if (!result.ok()) {
              failures.fetch_add(1);
              continue;
            }
            if (std::bit_cast<uint32_t>(
                    result->optimize.predicted_runtime_s) !=
                refs[p].predicted_bits) {
              mismatches.fetch_add(1);
            }
            for (const auto& [op_id, alt] : refs[p].alts) {
              if (result->optimize.plan.alt_index(op_id) != alt) {
                mismatches.fetch_add(1);
              }
            }
          }
        }
      });
    }
    for (auto& worker : workers) worker.join();
    chaos.join();

    EXPECT_EQ(failures.load(), 0u);
    EXPECT_EQ(mismatches.load(), 0u);

    const ServeStats stats = service->Stats();
    constexpr uint64_t kTotal =
        static_cast<uint64_t>(kWorkers) * kIters * 6 /* sizes */;
    EXPECT_EQ(stats.num_shards, num_shards);
    ASSERT_EQ(stats.shards.size(), static_cast<size_t>(num_shards));
    EXPECT_EQ(stats.shard_processed, kTotal);
    EXPECT_EQ(stats.shard_shed_queue_full, 0u);
    EXPECT_EQ(stats.shard_shed_deadline, 0u);
    EXPECT_EQ(stats.shard_queue_depth, 0u);
    uint64_t routed = 0;
    for (const ShardStats& shard : stats.shards) {
      routed += shard.routed;
      EXPECT_EQ(shard.queue_depth, 0u);
    }
    EXPECT_EQ(routed, kTotal);
    // Every chaos publish landed (v1 + kChaosRounds external pushes).
    EXPECT_EQ(stats.current_version, 1u + kChaosRounds);
    // The chaos trips were observed by the breaker plane.
    EXPECT_EQ(stats.recovery.breaker_trips,
              static_cast<uint64_t>(kChaosRounds));
    EXPECT_EQ(stats.recovery.breaker_recoveries,
              static_cast<uint64_t>(kChaosRounds));
  }
}

TEST_F(ShardSoakTest, BreakerTripInvalidatesEveryShardWithoutLoss) {
  const std::vector<double> sizes = {0.001, 0.002, 0.004, 0.008,
                                     0.016, 0.032, 0.064, 0.128};
  ServeOptions options = ShardedServeOptions(4);
  options.breaker.failure_threshold = 3;
  options.breaker.cooldown_s = 1e9;
  auto service = OptimizerService::Create(registry_, schema_, *base_,
                                          *forest_, options);
  ASSERT_TRUE(service.ok()) << service.status().ToString();

  // Warm every shard's cache with plans that route through Spark.
  OptimizeOptions spark_only;
  spark_only.allowed_platform_mask = 1ull << kSpark;
  for (double size : sizes) {
    LogicalPlan plan = MakeWordCountPlan(size);
    auto result = (*service)->Optimize(plan, nullptr, spark_only);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    bool uses_spark = false;
    for (PlatformId p : result->optimize.plan.PlatformsUsed()) {
      uses_spark |= p == kSpark;
    }
    ASSERT_TRUE(uses_spark);
  }
  ASSERT_EQ((*service)->Stats().plan_cache.insertions, sizes.size());

  // Spark goes dark through health() directly, with no OnExecutionFailure
  // to fan the trip out eagerly: each shard reconciles the trip epoch on
  // its next request entry (the lazy backstop).
  for (int i = 0; i < options.breaker.failure_threshold; ++i) {
    (*service)->health()->RecordFailure(kSpark);
  }
  ASSERT_EQ((*service)->health()->state(kSpark), BreakerState::kOpen);

  // Re-optimize every query unrestricted: each result must avoid Spark,
  // and touching each owning shard must drop its cached Spark plans.
  for (double size : sizes) {
    LogicalPlan plan = MakeWordCountPlan(size);
    auto result = (*service)->Optimize(plan);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_FALSE(result->cache_hit);
    for (PlatformId p : result->optimize.plan.PlatformsUsed()) {
      EXPECT_NE(p, kSpark);
    }
  }

  const ServeStats stats = (*service)->Stats();
  EXPECT_EQ(stats.recovery.open_platform_mask, 1ull << kSpark);
  // Zero lost invalidations: every warmed Spark plan was dropped, across
  // all shards.
  EXPECT_EQ(stats.recovery.plans_invalidated_on_trip, sizes.size());
  EXPECT_EQ(stats.plan_cache.platform_invalidations, sizes.size());
  EXPECT_GE(stats.recovery.masked_optimizes, sizes.size());
}

TEST_F(ShardSoakTest, EstimatedDelayPastDeadlineShedsDeterministically) {
  ServeOptions options = ShardedServeOptions(2);
  // Impossibly tight default deadline: once the shard has any service-time
  // EWMA, (depth + 1) * ewma exceeds it and admission must shed.
  options.default_deadline_s = 1e-12;
  auto service = OptimizerService::Create(registry_, schema_, *base_,
                                          *forest_, options);
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  LogicalPlan plan = MakeWordCountPlan(0.001);

  // First request: deadline explicitly disabled, establishes the EWMA.
  RequestContext no_deadline;
  no_deadline.deadline_s = -1.0;
  auto first =
      (*service)->Optimize(plan, nullptr, options.optimize, no_deadline);
  ASSERT_TRUE(first.ok()) << first.status().ToString();

  // Second request: defaults to the tiny deadline and sheds up front.
  auto shed = (*service)->Optimize(plan);
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.status().code(), StatusCode::kResourceExhausted);

  // Explicitly opting out of the deadline bypasses shedding (and hits the
  // cache warmed by the first request).
  auto served =
      (*service)->Optimize(plan, nullptr, options.optimize, no_deadline);
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  EXPECT_TRUE(served->cache_hit);

  const ServeStats stats = (*service)->Stats();
  EXPECT_EQ(stats.shard_shed_deadline, 1u);
  EXPECT_EQ(stats.shard_shed_queue_full, 0u);
  EXPECT_EQ(stats.shard_processed, 2u);
}

TEST_F(ShardSoakTest, FullAdmissionQueueShedsUnderConcurrency) {
  ServeOptions options = ShardedServeOptions(2);
  options.shard_queue_capacity = 1;  // One outstanding request per shard.
  auto service = OptimizerService::Create(registry_, schema_, *base_,
                                          *forest_, options);
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  OptimizerService* svc = service->get();

  constexpr int kThreads = 6;
  constexpr int kMaxAttempts = 500;
  std::atomic<uint64_t> served{0};
  std::atomic<uint64_t> shed{0};
  std::atomic<uint64_t> other_errors{0};
  std::atomic<uint64_t> next_plan{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      // Every attempt uses a fresh plan, so each Optimize is a full (slow)
      // cold enumeration — long enough a window that concurrent attempts
      // overlap it even on one core. Stop once a shed was observed.
      for (int i = 0; i < kMaxAttempts && shed.load() == 0; ++i) {
        const uint64_t n = next_plan.fetch_add(1);
        LogicalPlan plan = MakeWordCountPlan(0.001 + 1e-6 * n);
        auto result = svc->Optimize(plan);
        if (result.ok()) {
          served.fetch_add(1);
        } else if (result.status().code() == StatusCode::kResourceExhausted) {
          shed.fetch_add(1);
        } else {
          other_errors.fetch_add(1);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();

  EXPECT_EQ(other_errors.load(), 0u);
  EXPECT_GT(served.load(), 0u);
  EXPECT_GT(shed.load(), 0u) << "capacity-1 queue never filled";
  const ServeStats stats = svc->Stats();
  EXPECT_EQ(stats.shard_processed, served.load());
  EXPECT_EQ(stats.shard_shed_queue_full, shed.load());
  EXPECT_EQ(stats.shard_shed_deadline, 0u);
  EXPECT_EQ(stats.shard_queue_depth, 0u);
}

TEST_F(ShardSoakTest, SustainedImbalanceMigratesCacheEntriesIntact) {
  ServeOptions options = ShardedServeOptions(2);
  options.rebalance_min_checks = 1;
  options.rebalance_imbalance_factor = 1.5;
  auto service = OptimizerService::Create(registry_, schema_, *base_,
                                          *forest_, options);
  ASSERT_TRUE(service.ok()) << service.status().ToString();

  // Collect plans that all route to one shard (the soon-to-be-hot one).
  const uint32_t hot = (*service)->ShardFor(0, MakeWordCountPlan(0.001));
  std::vector<double> hot_sizes;
  for (double size = 0.001; hot_sizes.size() < 6 && size < 1.0;
       size *= 1.25) {
    if ((*service)->ShardFor(0, MakeWordCountPlan(size)) == hot) {
      hot_sizes.push_back(size);
    }
  }
  ASSERT_EQ(hot_sizes.size(), 6u) << "could not find enough same-shard plans";

  std::vector<float> predicted;
  for (double size : hot_sizes) {
    LogicalPlan plan = MakeWordCountPlan(size);
    auto result = (*service)->Optimize(plan);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    predicted.push_back(result->optimize.predicted_runtime_s);
  }

  // One observation window, all load on one shard: the next check must
  // migrate hot slots (and their cache entries) to the cold shard.
  const size_t migrated = (*service)->RebalanceNow();
  EXPECT_GT(migrated, 0u);
  {
    const ServeStats stats = (*service)->Stats();
    EXPECT_EQ(stats.router_rebalances, 1u);
    EXPECT_GE(stats.router_slots_moved, 1u);
    EXPECT_EQ(stats.plan_cache.migrated_in, migrated);
    EXPECT_EQ(stats.plan_cache.migrated_out, migrated);
  }

  // Migrated entries serve from their new shard: still hits, identical
  // predictions.
  size_t hits = 0;
  for (size_t i = 0; i < hot_sizes.size(); ++i) {
    LogicalPlan plan = MakeWordCountPlan(hot_sizes[i]);
    auto result = (*service)->Optimize(plan);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->optimize.predicted_runtime_s, predicted[i]);
    hits += result->cache_hit ? 1 : 0;
  }
  EXPECT_EQ(hits, hot_sizes.size());
  // A rebalanced key routes to the destination shard now.
  size_t moved_keys = 0;
  for (double size : hot_sizes) {
    moved_keys +=
        (*service)->ShardFor(0, MakeWordCountPlan(size)) != hot ? 1 : 0;
  }
  EXPECT_GT(moved_keys, 0u);
}

TEST_F(ShardSoakTest, StatsAndExportSurfaceShardDimensions) {
  auto sharded = OptimizerService::Create(registry_, schema_, *base_,
                                          *forest_, ShardedServeOptions(4));
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
  LogicalPlan plan = MakeWordCountPlan(0.001);
  ASSERT_TRUE((*sharded)->Optimize(plan).ok());
  const ServeStats stats = (*sharded)->Stats();
  EXPECT_EQ(stats.num_shards, 4);
  ASSERT_EQ(stats.shards.size(), 4u);
  // The feedback collector stripes its drop counters per shard.
  EXPECT_EQ(stats.feedback.stripe_dropped.size(), 4u);
  const std::string prom = (*sharded)->ExportPrometheus();
  EXPECT_NE(prom.find("robopt_shard_count 4"), std::string::npos);
  EXPECT_NE(prom.find("robopt_shard_processed_total 1"), std::string::npos);
  EXPECT_NE(prom.find("robopt_shard_routed{shard=\"0\"}"), std::string::npos);

  // One shard is the same path with N = 1: the same dimensions, one entry.
  auto single = OptimizerService::Create(registry_, schema_, *base_,
                                         *forest_, ShardedServeOptions(1));
  ASSERT_TRUE(single.ok());
  const ServeStats single_stats = (*single)->Stats();
  EXPECT_EQ(single_stats.num_shards, 1);
  EXPECT_EQ(single_stats.shards.size(), 1u);
  const std::string single_prom = (*single)->ExportPrometheus();
  EXPECT_NE(single_prom.find("robopt_shard_count 1"), std::string::npos);
  EXPECT_NE(single_prom.find("robopt_shard_routed{shard=\"0\"}"),
            std::string::npos);
  EXPECT_EQ(single_prom.find("robopt_shard_routed{shard=\"1\"}"),
            std::string::npos);
}

}  // namespace
}  // namespace robopt
