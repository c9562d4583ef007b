/// End-to-end observability coverage over the real stack:
///   - span-tree well-formedness for an optimize + execute round trip on a
///     multi-platform registry, exported to a loadable Chrome trace;
///   - the optimize profile's phases, Algorithm 1's queue included, fit in
///     the call's total;
///   - bit-identical results with observability on vs. off, for a linear
///     and a forest oracle, model training (TDGEN + forest fit spans and
///     metrics) included;
///   - snapshot-vs-struct equality for every stats struct with an
///     ExportTo() hook (serve, feedback, plan cache, drift, recovery,
///     breakers);
///   - the raced shared-Executor regression: FaultStats aggregation from
///     concurrent Execute() calls goes through registry atomics and loses
///     nothing (runs under the TSan CI leg via obs_test).
#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/cost_oracle.h"
#include "core/linear_oracle.h"
#include "core/optimizer.h"
#include "exec/executor.h"
#include "ml/random_forest.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/optimizer_service.h"
#include "tdgen/tdgen.h"
#include "workload/driver.h"
#include "workload/generators.h"
#include "workload/trace_recorder.h"
#include "workload/trace_replay.h"
#include "workloads/datagen.h"
#include "workloads/queries.h"
#include "workloads/synthetic.h"

namespace robopt {
namespace {

bool Contains(const std::string& haystack, const std::string& needle) {
  return haystack.find(needle) != std::string::npos;
}

class ObsRoundTripTest : public ::testing::Test {
 protected:
  ObsRoundTripTest()
      : registry_(PlatformRegistry::Default(3)),
        schema_(&registry_),
        oracle_(schema_, 5),
        optimizer_(&registry_, &schema_, &oracle_),
        cost_(&registry_) {
    RegisterWorkloadKernels();
    plan_ = MakeWordCountPlan(0.001);
    catalog_.Bind(plan_.SourceIds()[0], GenerateTextLines(1000, 1000, 5));
  }

  PlatformRegistry registry_;
  FeatureSchema schema_;
  LinearFeatureOracle oracle_;
  RoboptOptimizer optimizer_;
  VirtualCost cost_;
  LogicalPlan plan_ = MakeWordCountPlan(0.001);
  DataCatalog catalog_;
};

TEST_F(ObsRoundTripTest, SpanTreeIsWellFormedAcrossOptimizeAndExecute) {
  MetricsRegistry metrics;
  Tracer tracer(4096);

  OptimizeOptions opt;
  opt.obs.metrics = &metrics;
  opt.obs.tracer = &tracer;
  opt.obs.profile = true;
  auto optimized = optimizer_.Optimize(plan_, nullptr, opt);
  ASSERT_TRUE(optimized.ok()) << optimized.status().ToString();

  const OptimizeProfile& oprof = optimized->profile;
  EXPECT_TRUE(oprof.enabled);
  ASSERT_NE(oprof.trace_id, 0u);
  EXPECT_GT(oprof.phase.total_us, 0.0);
  EXPECT_EQ(oprof.plans_enumerated, optimized->stats.vectors_created);
  EXPECT_EQ(oprof.oracle_rows, optimized->stats.oracle_rows);
  EXPECT_EQ(oprof.oracle_batches, optimized->stats.oracle_batches);

  // Execute the chosen plan into the *same* trace, so one Collect yields
  // the full query lifecycle.
  ExecutorOptions eo;
  eo.obs.metrics = &metrics;
  eo.obs.tracer = &tracer;
  eo.obs.profile = true;
  eo.obs.trace_id = oprof.trace_id;
  Executor executor(&registry_, &cost_, nullptr, eo);
  auto executed = executor.Execute(optimized->plan, catalog_);
  ASSERT_TRUE(executed.ok()) << executed.status().ToString();

  const ExecProfile& eprof = executed->profile;
  EXPECT_TRUE(eprof.enabled);
  EXPECT_EQ(eprof.trace_id, oprof.trace_id);
  ASSERT_EQ(eprof.ops.size(), plan_.num_operators());
  EXPECT_GT(eprof.total_wall_us, 0.0);
  double virt_sum = 0.0;
  for (const OpProfile& op : eprof.ops) {
    EXPECT_GE(op.attempts, 1);
    EXPECT_GE(op.wall_us, 0.0);
    EXPECT_GE(op.virt_s, 0.0);
    virt_sum += op.virt_s;
  }
  EXPECT_LE(virt_sum, executed->cost.total_s + 1e-9);

  // --- Span-tree well-formedness over the whole round trip. ---
  const std::vector<SpanRecord> spans = tracer.Collect(oprof.trace_id);
  ASSERT_FALSE(spans.empty());
  std::map<uint64_t, const SpanRecord*> by_id;
  for (const SpanRecord& span : spans) {
    EXPECT_EQ(span.trace_id, oprof.trace_id);
    EXPECT_TRUE(by_id.emplace(span.span_id, &span).second)
        << "duplicate span id " << span.span_id;
  }
  uint64_t optimize_root = 0, execute_root = 0;
  std::set<std::string> names;
  for (const SpanRecord& span : spans) {
    names.insert(std::string(span.name));
    // Every parent resolves inside the collected tree (or is a root).
    if (span.parent_id != 0) {
      EXPECT_TRUE(by_id.count(span.parent_id))
          << span.name << " has dangling parent " << span.parent_id;
    } else if (span.name == "optimize") {
      optimize_root = span.span_id;
    } else if (span.name == "execute") {
      execute_root = span.span_id;
    }
    EXPECT_GE(span.dur_us, 0.0);
  }
  ASSERT_NE(optimize_root, 0u);
  ASSERT_NE(execute_root, 0u);
  // The optimize tree carries Algorithm 1's phases.
  for (const char* phase :
       {"vectorize", "enumerate", "predict-batch", "unvectorize"}) {
    EXPECT_TRUE(names.count(phase)) << "missing phase span: " << phase;
  }
  // The execute tree carries one span per operator, each stamped with a
  // virtual-clock interval, plus the root's whole-plan interval.
  size_t op_spans = 0;
  for (const SpanRecord& span : spans) {
    if (span.parent_id != execute_root) continue;
    if (span.name == "convert") continue;
    ++op_spans;
    EXPECT_GE(span.virt_start_s, 0.0) << span.name;
    EXPECT_GE(span.virt_dur_s, 0.0) << span.name;
  }
  EXPECT_EQ(op_spans, plan_.num_operators());
  const SpanRecord& exec_span = *by_id.at(execute_root);
  EXPECT_DOUBLE_EQ(exec_span.virt_start_s, 0.0);
  EXPECT_NEAR(exec_span.virt_dur_s, executed->cost.total_s, 1e-9);

  // The round trip exports to a Chrome-loadable trace with both clock
  // timelines populated.
  const std::string json = ExportChromeTrace(spans);
  EXPECT_TRUE(Contains(json, "\"traceEvents\""));
  EXPECT_TRUE(Contains(json, "\"name\": \"optimize\""));
  EXPECT_TRUE(Contains(json, "\"name\": \"execute\""));
  EXPECT_TRUE(Contains(json, "\"pid\": 1"));
  EXPECT_TRUE(Contains(json, "\"pid\": 2"));

  // --- Hot-path counters landed in the shared registry. ---
  const MetricsSnapshot snap = metrics.Snapshot();
  EXPECT_DOUBLE_EQ(snap.Value("robopt_optimize_calls_total"), 1.0);
  EXPECT_DOUBLE_EQ(snap.Value("robopt_exec_calls_total"), 1.0);
  EXPECT_DOUBLE_EQ(snap.Value("robopt_exec_ops_total"),
                   static_cast<double>(plan_.num_operators()));
  EXPECT_DOUBLE_EQ(
      snap.Value("robopt_optimize_vectors_created_total"),
      static_cast<double>(optimized->stats.vectors_created));
}

TEST_F(ObsRoundTripTest, OptimizeProfilePhasesFitInTotal) {
  // A multi-operator plan: Algorithm 1's queue does real work, and the
  // phases (each timed disjointly) account for no more than the call.
  const LogicalPlan plan = MakeSyntheticPipeline(40, 1e7, 3);
  OptimizeOptions opt;
  opt.obs.profile = true;
  auto optimized = optimizer_.Optimize(plan, nullptr, opt);
  ASSERT_TRUE(optimized.ok()) << optimized.status().ToString();
  const OptimizePhaseMicros& phase = optimized->profile.phase;
  EXPECT_GT(phase.schedule_us, 0.0);
  EXPECT_GT(phase.concat_us, 0.0);
  const double phases = phase.vectorize_us + phase.schedule_us +
                        phase.concat_us + phase.prune_us + phase.predict_us +
                        phase.unvectorize_us;
  EXPECT_LE(phases, phase.total_us);
}

TEST_F(ObsRoundTripTest, ObservabilityOnAndOffAreBitIdentical) {
  // Two inputs: the linear oracle on WordCount, and a forest oracle on an
  // enumeration-heavy 16-operator pipeline (the paper's optimizer in its
  // real configuration; the forest's fit on random rows is irrelevant).
  MlDataset data(schema_.width());
  Rng rng(17);
  std::vector<float> feature_row(schema_.width());
  for (int i = 0; i < 512; ++i) {
    for (float& cell : feature_row) {
      cell = static_cast<float>(rng.NextUniform(0, 100));
    }
    data.Add(feature_row, static_cast<float>(rng.NextUniform(0, 1000)));
  }
  RandomForest::Params params;
  params.num_trees = 10;
  params.num_threads = 1;
  RandomForest forest(params);
  ASSERT_TRUE(forest.Train(data).ok());
  const MlCostOracle forest_oracle(&forest);
  const RoboptOptimizer forest_optimizer(&registry_, &schema_,
                                         &forest_oracle);
  const LogicalPlan heavy = MakeSyntheticPipeline(16, 1e7, 3);

  MetricsRegistry metrics;
  Tracer tracer(1024);
  OptimizeOptions opt;
  opt.obs.metrics = &metrics;
  opt.obs.tracer = &tracer;
  opt.obs.profile = true;
  const std::pair<const RoboptOptimizer*, const LogicalPlan*> inputs[] = {
      {&optimizer_, &plan_}, {&forest_optimizer, &heavy}};
  for (const auto& [optimizer, plan] : inputs) {
    SCOPED_TRACE(plan->num_operators());
    auto base = optimizer->Optimize(*plan);
    ASSERT_TRUE(base.ok());
    auto observed = optimizer->Optimize(*plan, nullptr, opt);
    ASSERT_TRUE(observed.ok());

    for (const LogicalOperator& op : plan->operators()) {
      EXPECT_EQ(observed->plan.alt_index(op.id), base->plan.alt_index(op.id));
    }
    EXPECT_EQ(observed->predicted_runtime_s, base->predicted_runtime_s);
    EXPECT_EQ(observed->stats.vectors_created, base->stats.vectors_created);
    EXPECT_EQ(observed->stats.vectors_pruned, base->stats.vectors_pruned);
    EXPECT_EQ(observed->stats.final_vectors, base->stats.final_vectors);
    EXPECT_EQ(observed->stats.concat_steps, base->stats.concat_steps);
    EXPECT_EQ(observed->stats.oracle_rows, base->stats.oracle_rows);
    EXPECT_EQ(observed->stats.oracle_batches, base->stats.oracle_batches);
  }
  auto base = optimizer_.Optimize(plan_);
  ASSERT_TRUE(base.ok());

  // Same contract on the executor, fault layer included.
  ExecutorOptions plain;
  plain.fault_plan.profiles.push_back(
      FaultProfile{/*platform=*/kAnyPlatform, kAnyOpKind,
                   /*failure_rate=*/0.0, /*fail_on_invocation=*/2,
                   /*permanent=*/false, /*slowdown=*/1.0});
  ExecutorOptions instrumented = plain;
  instrumented.obs.metrics = &metrics;
  instrumented.obs.tracer = &tracer;
  instrumented.obs.profile = true;

  Executor plain_exec(&registry_, &cost_, nullptr, plain);
  Executor obs_exec(&registry_, &cost_, nullptr, instrumented);
  auto plain_result = plain_exec.Execute(base->plan, catalog_);
  auto obs_result = obs_exec.Execute(base->plan, catalog_);
  ASSERT_TRUE(plain_result.ok());
  ASSERT_TRUE(obs_result.ok());
  EXPECT_EQ(obs_result->cost.total_s, plain_result->cost.total_s);
  EXPECT_EQ(obs_result->cost.oom, plain_result->cost.oom);
  EXPECT_EQ(obs_result->output.rows.size(), plain_result->output.rows.size());
  EXPECT_EQ(obs_result->faults.attempts, plain_result->faults.attempts);
  EXPECT_EQ(obs_result->faults.retries, plain_result->faults.retries);
  EXPECT_EQ(obs_result->faults.backoff_s, plain_result->faults.backoff_s);
  // The plain run must not have paid for a profile.
  EXPECT_FALSE(plain_result->profile.enabled);
  EXPECT_TRUE(plain_result->profile.ops.empty());
}

// Model training is observable: TrainRuntimeModel records a
// "tdgen_generate" and a "forest_train" span in one trace and publishes the
// fit's duration and node count, while the forest stays bit-identical to
// an uninstrumented build.
TEST_F(ObsRoundTripTest, ModelTrainingEmitsSpansAndMetricsWithSameBits) {
  Executor executor(&registry_, &cost_);
  TdgenOptions options;
  options.plans_per_shape = 2;
  options.max_operators = 8;
  options.max_structures_per_plan = 8;
  options.seed = 17;
  RegressionMetrics plain_holdout;
  auto plain = TrainRuntimeModel(&registry_, &schema_, &executor, options,
                                 &plain_holdout);
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();

  MetricsRegistry metrics;
  Tracer tracer(1024);
  options.obs.metrics = &metrics;
  options.obs.tracer = &tracer;
  RegressionMetrics observed_holdout;
  auto observed = TrainRuntimeModel(&registry_, &schema_, &executor, options,
                                    &observed_holdout);
  ASSERT_TRUE(observed.ok()) << observed.status().ToString();

  std::ostringstream plain_bytes;
  std::ostringstream observed_bytes;
  size_t nodes = 0;
  for (const DecisionTree& tree : (*plain)->trees()) {
    tree.Serialize(plain_bytes);
  }
  for (const DecisionTree& tree : (*observed)->trees()) {
    tree.Serialize(observed_bytes);
    nodes += tree.num_nodes();
  }
  EXPECT_EQ(observed_bytes.str(), plain_bytes.str());
  EXPECT_EQ(observed_holdout.r2, plain_holdout.r2);
  EXPECT_EQ(observed_holdout.spearman, plain_holdout.spearman);

  const std::vector<SpanRecord> spans = tracer.Collect();
  std::map<std::string, SpanRecord> by_name;
  for (const SpanRecord& span : spans) by_name[std::string(span.name)] = span;
  ASSERT_EQ(by_name.count("tdgen_generate"), 1u);
  ASSERT_EQ(by_name.count("forest_train"), 1u);
  const SpanRecord& generate = by_name["tdgen_generate"];
  const SpanRecord& train = by_name["forest_train"];
  EXPECT_NE(generate.trace_id, 0u);
  EXPECT_EQ(train.trace_id, generate.trace_id);
  EXPECT_LE(generate.start_us + generate.dur_us, train.start_us);
  EXPECT_GT(generate.arg_a, 0);  // Rows generated.
  EXPECT_EQ(train.arg_b, static_cast<int64_t>(nodes));

  const MetricsSnapshot snap = metrics.Snapshot();
  EXPECT_DOUBLE_EQ(snap.Value("robopt_forest_nodes_total"),
                   static_cast<double>(nodes));
  bool found_fit = false;
  for (const MetricPoint& point : snap.points) {
    if (point.name != "robopt_forest_fit_seconds") continue;
    found_fit = true;
    EXPECT_EQ(point.type, MetricPoint::Type::kHistogram);
    EXPECT_EQ(point.count, 1u);
    EXPECT_GT(point.value, 0.0);
  }
  EXPECT_TRUE(found_fit);
}

// The regression this pins down: ExecResult/FaultStats are per-call structs;
// the only sanctioned way to sum them across threads sharing one Executor is
// MetricsRegistry's sharded atomics. N threads hammer one Executor with a
// deterministic one-retry fault plan and export each call's FaultStats; the
// registry must land on the exact per-thread sums, and no call may observe
// another call's accounting.
TEST_F(ObsRoundTripTest, SharedExecutorFaultStatsAggregateThroughRegistry) {
  constexpr int kThreads = 8;
  constexpr int kCallsPerThread = 20;
  MetricsRegistry metrics;

  ExecutorOptions options;
  options.obs.metrics = &metrics;  // Shared by every concurrent call.
  options.fault_plan.profiles.push_back(
      FaultProfile{/*platform=*/kAnyPlatform, kAnyOpKind,
                   /*failure_rate=*/0.0, /*fail_on_invocation=*/2,
                   /*permanent=*/false, /*slowdown=*/1.0});
  Executor executor(&registry_, &cost_, nullptr, options);
  const ExecutionPlan exec_plan = [&] {
    auto optimized = optimizer_.Optimize(plan_);
    EXPECT_TRUE(optimized.ok());
    return optimized->plan;
  }();

  // Per-thread ground truth, summed after the join.
  std::vector<FaultStats> per_thread(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kCallsPerThread; ++i) {
        auto result = executor.Execute(exec_plan, catalog_);
        ASSERT_TRUE(result.ok()) << result.status().ToString();
        // Deterministic scenario: every call sees exactly this accounting.
        ASSERT_EQ(result->faults.faults_injected, 1);
        ASSERT_EQ(result->faults.retries, 1);
        result->faults.ExportTo(&metrics);
        per_thread[t].attempts += result->faults.attempts;
        per_thread[t].retries += result->faults.retries;
        per_thread[t].faults_injected += result->faults.faults_injected;
        per_thread[t].backoff_s += result->faults.backoff_s;
        per_thread[t].retry_s += result->faults.retry_s;
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  FaultStats expected;
  for (const FaultStats& s : per_thread) {
    expected.attempts += s.attempts;
    expected.retries += s.retries;
    expected.faults_injected += s.faults_injected;
    expected.backoff_s += s.backoff_s;
    expected.retry_s += s.retry_s;
  }
  const MetricsSnapshot snap = metrics.Snapshot();
  const double calls = static_cast<double>(kThreads) * kCallsPerThread;
  EXPECT_DOUBLE_EQ(snap.Value("robopt_exec_calls_total"), calls);
  EXPECT_DOUBLE_EQ(snap.Value("robopt_fault_attempts_total"),
                   static_cast<double>(expected.attempts));
  EXPECT_DOUBLE_EQ(snap.Value("robopt_fault_retries_total"),
                   static_cast<double>(expected.retries));
  EXPECT_DOUBLE_EQ(snap.Value("robopt_fault_injected_total"),
                   static_cast<double>(expected.faults_injected));
  EXPECT_NEAR(snap.Value("robopt_fault_backoff_virtual_seconds"),
              expected.backoff_s, 1e-6);
  EXPECT_NEAR(snap.Value("robopt_fault_retry_virtual_seconds"),
              expected.retry_s, 1e-6);
  // The executor's own per-call counters aggregated identically.
  EXPECT_DOUBLE_EQ(snap.Value("robopt_exec_retries_total"),
                   static_cast<double>(expected.retries));
}

/// Serving-layer half: snapshot-vs-struct equality and the Prometheus
/// endpoint carrying the complete DESIGN.md metric table.
class ObsServeTest : public ::testing::Test {
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

  static std::unique_ptr<OptimizerService> MakeService(
      RequestObserver* observer = nullptr) {
    ServeOptions options;
    options.background_retrain = false;
    options.retrain_min_events = 8;
    options.promote_tolerance = 0.5;
    options.forest.num_trees = 20;
    options.observability = true;
    options.request_observer = observer;
    // The second observability layer rides along: decision diagnostics and
    // the SLO engine, so their metric families join the exposition below.
    options.diagnostics.enabled = true;
    options.slo.enabled = true;
    auto service = OptimizerService::Create(registry_, schema_, *base_,
                                            /*initial=*/nullptr, options);
    EXPECT_TRUE(service.ok()) << service.status().ToString();
    return std::move(service.value());
  }

  /// Drives real traffic through every instrumented subsystem: optimizes
  /// (cache miss + hit + a second miss), executions with retries and
  /// slowdowns feeding the service observer, one fault-layer failure, and a
  /// forced retrain cycle.
  static void DriveTraffic(OptimizerService* service) {
    LogicalPlan plan = MakeWordCountPlan(0.001);
    auto first = service->Optimize(plan);
    ASSERT_TRUE(first.ok()) << first.status().ToString();
    auto second = service->Optimize(plan);  // Plan-cache hit.
    ASSERT_TRUE(second.ok());
    EXPECT_TRUE(second->cache_hit);
    // A different query: a plan-cache miss, so the optimizer really runs.
    LogicalPlan q3 = MakeTpchQ3Plan(0.01);
    auto third = service->Optimize(q3);
    ASSERT_TRUE(third.ok());
    EXPECT_FALSE(third->cache_hit);

    DataCatalog catalog;
    catalog.Bind(plan.SourceIds()[0], GenerateTextLines(1000, 1000, 5));

    // Successful executions with one injected retry and a slowdown rule;
    // each call's FaultStats goes through the sanctioned registry path.
    ExecutorOptions eo;
    eo.observer = service;
    eo.health = service->health();
    eo.obs = service->obs();
    eo.fault_plan.profiles.push_back(
        FaultProfile{/*platform=*/kAnyPlatform, kAnyOpKind,
                     /*failure_rate=*/0.0, /*fail_on_invocation=*/2,
                     /*permanent=*/false, /*slowdown=*/1.0});
    eo.fault_plan.profiles.push_back(
        FaultProfile{/*platform=*/kAnyPlatform, kAnyOpKind,
                     /*failure_rate=*/0.0, /*fail_on_invocation=*/0,
                     /*permanent=*/false, /*slowdown=*/1.5});
    Executor executor(registry_, cost_, nullptr, eo);
    for (int i = 0; i < 10; ++i) {
      auto result = executor.Execute(first->optimize.plan, catalog);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      result->faults.ExportTo(service->metrics());
    }

    // One fault-layer failure: permanent fault, retries can't help. Lands
    // in RecoveryStats via OnExecutionFailure and in the breaker books.
    ExecutorOptions failing = eo;
    failing.fault_plan.profiles.clear();
    failing.fault_plan.profiles.push_back(
        FaultProfile{/*platform=*/kAnyPlatform, kAnyOpKind,
                     /*failure_rate=*/1.0, /*fail_on_invocation=*/0,
                     /*permanent=*/true, /*slowdown=*/1.0});
    Executor bad(registry_, cost_, nullptr, failing);
    FailureReport report;
    auto failed = bad.Execute(first->optimize.plan, catalog, &report);
    EXPECT_FALSE(failed.ok());
    EXPECT_TRUE(report.failed);

    auto retrain = service->RetrainNow(/*force=*/true);
    ASSERT_TRUE(retrain.ok()) << retrain.status().ToString();
  }

  static PlatformRegistry* registry_;
  static FeatureSchema* schema_;
  static VirtualCost* cost_;
  static MlDataset* base_;
};

PlatformRegistry* ObsServeTest::registry_ = nullptr;
FeatureSchema* ObsServeTest::schema_ = nullptr;
VirtualCost* ObsServeTest::cost_ = nullptr;
MlDataset* ObsServeTest::base_ = nullptr;

TEST_F(ObsServeTest, SnapshotMirrorsEveryExportedStatsStruct) {
  auto service = MakeService();
  DriveTraffic(service.get());

  const MetricsSnapshot snap = service->SnapshotMetrics();
  const ServeStats stats = service->Stats();

  auto expect = [&](const char* name, double want) {
    EXPECT_DOUBLE_EQ(snap.Value(name, -1.0), want) << name;
  };
  // ServeStats.
  expect("robopt_serve_current_version",
         static_cast<double>(stats.current_version));
  expect("robopt_serve_versions_published",
         static_cast<double>(stats.versions_published));
  expect("robopt_serve_retrains", static_cast<double>(stats.retrains));
  expect("robopt_serve_promotions", static_cast<double>(stats.promotions));
  expect("robopt_serve_rejections", static_cast<double>(stats.rejections));
  expect("robopt_serve_experience_rows",
         static_cast<double>(stats.experience_rows));
  expect("robopt_serve_holdout_rows",
         static_cast<double>(stats.holdout_rows));
  // FeedbackStats.
  expect("robopt_feedback_offered", static_cast<double>(stats.feedback.offered));
  expect("robopt_feedback_accepted",
         static_cast<double>(stats.feedback.accepted));
  expect("robopt_feedback_dropped",
         static_cast<double>(stats.feedback.dropped));
  expect("robopt_feedback_rejected_nonfinite",
         static_cast<double>(stats.feedback.rejected_nonfinite));
  expect("robopt_feedback_drained",
         static_cast<double>(stats.feedback.drained));
  expect("robopt_feedback_failures",
         static_cast<double>(stats.feedback.failures));
  // PlanCacheStats.
  expect("robopt_plan_cache_hits", static_cast<double>(stats.plan_cache.hits));
  expect("robopt_plan_cache_misses",
         static_cast<double>(stats.plan_cache.misses));
  expect("robopt_plan_cache_insertions",
         static_cast<double>(stats.plan_cache.insertions));
  expect("robopt_plan_cache_evictions",
         static_cast<double>(stats.plan_cache.evictions));
  expect("robopt_plan_cache_invalidations",
         static_cast<double>(stats.plan_cache.invalidations));
  expect("robopt_plan_cache_platform_invalidations",
         static_cast<double>(stats.plan_cache.platform_invalidations));
  expect("robopt_plan_cache_migrated_in",
         static_cast<double>(stats.plan_cache.migrated_in));
  expect("robopt_plan_cache_migrated_out",
         static_cast<double>(stats.plan_cache.migrated_out));
  // Per-stripe feedback drop counters (stripe 0 always exists; one stripe
  // per resolved shard).
  ASSERT_FALSE(stats.feedback.stripe_dropped.empty());
  EXPECT_EQ(stats.feedback.stripe_dropped.size(),
            static_cast<size_t>(stats.num_shards));
  for (size_t i = 0; i < stats.feedback.stripe_dropped.size(); ++i) {
    expect(("robopt_feedback_stripe_dropped{stripe=\"" + std::to_string(i) +
            "\"}")
               .c_str(),
           static_cast<double>(stats.feedback.stripe_dropped[i]));
  }
  // Sharded-serving aggregates (exported at every shard count, so the
  // metric table is stable across them).
  expect("robopt_shard_count", static_cast<double>(stats.num_shards));
  expect("robopt_shard_processed_total",
         static_cast<double>(stats.shard_processed));
  expect("robopt_shard_shed_queue_full_total",
         static_cast<double>(stats.shard_shed_queue_full));
  expect("robopt_shard_shed_deadline_total",
         static_cast<double>(stats.shard_shed_deadline));
  expect("robopt_shard_queue_depth",
         static_cast<double>(stats.shard_queue_depth));
  expect("robopt_router_rebalances_total",
         static_cast<double>(stats.router_rebalances));
  expect("robopt_router_slots_moved_total",
         static_cast<double>(stats.router_slots_moved));
  // DriftStats.
  expect("robopt_drift_error_ewma", stats.current_drift.error_ewma);
  expect("robopt_drift_observations",
         static_cast<double>(stats.current_drift.observations));
  // RecoveryStats.
  expect("robopt_recovery_failures_observed",
         static_cast<double>(stats.recovery.failures_observed));
  expect("robopt_recovery_breaker_trips",
         static_cast<double>(stats.recovery.breaker_trips));
  expect("robopt_recovery_breaker_recoveries",
         static_cast<double>(stats.recovery.breaker_recoveries));
  expect("robopt_recovery_masked_optimizes",
         static_cast<double>(stats.recovery.masked_optimizes));
  expect("robopt_recovery_plans_invalidated_on_trip",
         static_cast<double>(stats.recovery.plans_invalidated_on_trip));
  expect("robopt_recovery_open_platform_mask",
         static_cast<double>(stats.recovery.open_platform_mask));
  // Breaker views, per platform.
  for (int i = 0; i < registry_->num_platforms(); ++i) {
    const BreakerSnapshot breaker =
        service->health()->snapshot(static_cast<PlatformId>(i));
    const std::string label = "{platform=\"" + std::to_string(i) + "\"}";
    expect(("robopt_breaker_state" + label).c_str(),
           static_cast<double>(static_cast<int>(breaker.state)));
    expect(("robopt_breaker_consecutive_failures" + label).c_str(),
           static_cast<double>(breaker.consecutive_failures));
    expect(("robopt_breaker_trips" + label).c_str(),
           static_cast<double>(breaker.trips));
    expect(("robopt_breaker_recoveries" + label).c_str(),
           static_cast<double>(breaker.recoveries));
    expect(("robopt_breaker_rejected" + label).c_str(),
           static_cast<double>(breaker.rejected));
  }
  // Sanity: the traffic actually moved the interesting books.
  EXPECT_GT(stats.plan_cache.hits, 0u);
  EXPECT_GT(stats.feedback.offered, 0u);
  EXPECT_GT(stats.recovery.failures_observed, 0u);
  EXPECT_GE(stats.retrains, 1u);
}

// Every metric in DESIGN.md's observability table must appear in the
// Prometheus exposition after real traffic. Names here are the table,
// verbatim; a rename on either side fails this test.
TEST_F(ObsServeTest, PrometheusEndpointCoversTheWholeMetricTable) {
  // The service records its own traffic so the trace/replay/workload metric
  // families materialize in the same exposition as everything else.
  const std::string trace_path =
      ::testing::TempDir() + "robopt_obs_e2e.trace";
  auto recorder = TraceRecorder::Open(trace_path);
  ASSERT_TRUE(recorder.ok()) << recorder.status().ToString();
  auto service = MakeService(recorder->get());
  DriveTraffic(service.get());

  // Workload-API traffic: a seeded open-loop stream into the recording
  // service, then the closed trace replayed back through it.
  GeneratorOptions gen;
  gen.base.seed = 5;
  gen.base.max_ops = 8;
  gen.base.metrics = service->metrics();
  OpenLoopSource source(PlanPool::kSynthetic, gen);
  ASSERT_TRUE(source.Load().ok());
  DriveOptions drive;
  drive.registry = registry_;
  drive.metrics = service->metrics();
  DriveWorkload(service.get(), &source, drive);
  ASSERT_TRUE(recorder->get()->Close().ok());
  WorkloadOptions replay_options;
  replay_options.metrics = service->metrics();
  TraceReplaySource replay(trace_path, replay_options);
  ASSERT_TRUE(replay.Load().ok());
  DriveWorkload(service.get(), &replay, drive);
  std::remove(trace_path.c_str());

  const std::string text = service->ExportPrometheus();
  const char* kTable[] = {
      // Optimizer (src/core).
      "robopt_optimize_calls_total",
      "robopt_optimize_vectors_created_total",
      "robopt_optimize_vectors_pruned_total",
      "robopt_optimize_oracle_rows_total",
      "robopt_optimize_oracle_batches_total",
      "robopt_optimize_latency_us",
      // Executor + fault layer (src/exec).
      "robopt_exec_calls_total",
      "robopt_exec_ops_total",
      "robopt_exec_attempts_total",
      "robopt_exec_retries_total",
      "robopt_exec_faults_injected_total",
      "robopt_exec_failures_total",
      "robopt_exec_breaker_rejections_total",
      "robopt_exec_oom_total",
      "robopt_exec_wall_us",
      "robopt_fault_attempts_total",
      "robopt_fault_retries_total",
      "robopt_fault_injected_total",
      "robopt_fault_backoff_virtual_seconds",
      "robopt_fault_retry_virtual_seconds",
      "robopt_fault_slowdown_virtual_seconds",
      // Circuit breakers.
      "robopt_breaker_virtual_clock_seconds",
      "robopt_breaker_state",
      "robopt_breaker_consecutive_failures",
      "robopt_breaker_trips",
      "robopt_breaker_recoveries",
      "robopt_breaker_rejected",
      // Serving layer.
      "robopt_serve_optimize_calls_total",
      "robopt_serve_plan_cache_hits_total",
      "robopt_serve_current_version",
      "robopt_serve_versions_published",
      "robopt_serve_retrains",
      "robopt_serve_promotions",
      "robopt_serve_rejections",
      "robopt_serve_experience_rows",
      "robopt_serve_holdout_rows",
      "robopt_feedback_offered",
      "robopt_feedback_accepted",
      "robopt_feedback_dropped",
      "robopt_feedback_rejected_nonfinite",
      "robopt_feedback_drained",
      "robopt_feedback_failures",
      "robopt_feedback_stripe_dropped",
      "robopt_plan_cache_hits",
      "robopt_plan_cache_misses",
      "robopt_plan_cache_insertions",
      "robopt_plan_cache_evictions",
      "robopt_plan_cache_invalidations",
      "robopt_plan_cache_platform_invalidations",
      "robopt_plan_cache_migrated_in",
      "robopt_plan_cache_migrated_out",
      // Sharded serving (aggregates exist at every shard count).
      "robopt_shard_count",
      "robopt_shard_processed_total",
      "robopt_shard_shed_queue_full_total",
      "robopt_shard_shed_deadline_total",
      "robopt_shard_queue_depth",
      "robopt_router_rebalances_total",
      "robopt_router_slots_moved_total",
      "robopt_drift_error_ewma",
      "robopt_drift_observations",
      "robopt_recovery_failures_observed",
      "robopt_recovery_breaker_trips",
      "robopt_recovery_breaker_recoveries",
      "robopt_recovery_masked_optimizes",
      "robopt_recovery_plans_invalidated_on_trip",
      "robopt_recovery_open_platform_mask",
      // ML inference telemetry.
      "robopt_ml_forest_rows_scored_total",
      "robopt_ml_forest_batches_total",
      // Model training (src/ml, via the service's own fits).
      "robopt_forest_fit_seconds",
      "robopt_forest_nodes_total",
      // Workload API + trace record/replay (src/workload).
      "robopt_workload_ops_total",
      "robopt_trace_records_written_total",
      "robopt_trace_records_dropped_total",
      "robopt_trace_plan_defs_total",
      "robopt_trace_bytes_written_total",
      "robopt_replay_ops_total",
      "robopt_replay_lag_us",
      "robopt_replay_mismatches_total",
      // Decision diagnostics, sketches & SLOs (src/obs second layer).
      "robopt_decisions_recorded_total",
      "robopt_decisions_dropped_total",
      "robopt_optimize_latency_p50_us",
      "robopt_optimize_latency_p95_us",
      "robopt_optimize_latency_p99_us",
      "robopt_slo_health",
      "robopt_slo_burn_fast",
      "robopt_slo_burn_slow",
      "robopt_slo_bad_fraction",
      "robopt_slo_evaluations_total",
      "robopt_shard_shed_slo_total",
      // Trace-ring health + process identity.
      "robopt_trace_spans_total",
      "robopt_trace_dropped_total",
      "robopt_trace_ring_utilization",
      "robopt_build_info",
      "robopt_uptime_seconds",
  };
  for (const char* name : kTable) {
    EXPECT_TRUE(Contains(text, name)) << "metric missing from /metrics: "
                                      << name;
  }
  // And the trace endpoint produces a loadable Chrome trace of the traffic.
  const std::string trace = service->ExportTraceJson();
  EXPECT_TRUE(Contains(trace, "\"traceEvents\""));
  EXPECT_TRUE(Contains(trace, "\"name\": \"optimize\""));
}

}  // namespace
}  // namespace robopt
