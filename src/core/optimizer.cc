#include "core/optimizer.h"

#include <algorithm>
#include <limits>

#include "common/stopwatch.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace robopt {

namespace {

/// Publishes one finished call's counters into the registry. Counter
/// creation is name-keyed (mutex-guarded, first call only); the updates
/// are sharded relaxed atomic adds. Null metric (type clash) is skipped —
/// observability must never take down the query path.
void PublishOptimizeMetrics(MetricsRegistry* metrics,
                            const OptimizeResult& result) {
  // Every series is created on the first instrumented call — zero values
  // included — so a scrape can tell "ran, saw none" from "never ran".
  auto add = [metrics](const char* name, size_t n) {
    if (Counter* counter = metrics->GetCounter(name)) counter->Add(n);
  };
  add("robopt_optimize_calls_total", 1);
  add("robopt_optimize_vectors_created_total", result.stats.vectors_created);
  add("robopt_optimize_vectors_pruned_total", result.stats.vectors_pruned);
  add("robopt_optimize_oracle_rows_total", result.stats.oracle_rows);
  add("robopt_optimize_oracle_batches_total", result.stats.oracle_batches);
  if (Histogram* latency = metrics->GetHistogram(
          "robopt_optimize_latency_us", Histogram::LatencyBucketsUs())) {
    latency->Observe(result.latency_ms * 1000.0);
  }
}

/// FNV-1a over an assignment row — a stable plan identity for diagnostics.
uint64_t HashAssignment(const uint8_t* bytes, size_t n) {
  uint64_t hash = 1469598103934665603ull;
  for (size_t i = 0; i < n; ++i) {
    hash ^= bytes[i];
    hash *= 1099511628211ull;
  }
  return hash;
}

}  // namespace

StatusOr<OptimizeResult> RoboptOptimizer::Optimize(
    const LogicalPlan& plan, const Cardinalities* cards,
    const OptimizeOptions& options) const {
  Stopwatch stopwatch;

  // Observability for this call: a root "optimize" span (children are the
  // enumerator's phases), an optional profile accumulator, and end-of-call
  // counters. Everything below is skipped when options.obs is unset, and
  // results are bit-identical either way.
  const bool obs_on = ROBOPT_OBS_ON(options.obs);
  Tracer* const tracer = obs_on ? options.obs.tracer : nullptr;
  uint64_t trace_id = 0;
  if (tracer != nullptr) {
    trace_id = options.obs.trace_id != 0 ? options.obs.trace_id
                                         : tracer->NewTrace();
  }
  SpanScope root_span(tracer, trace_id, options.obs.parent_span, "optimize");
  OptimizeProfile profile;
  OptimizeProfile* const prof =
      obs_on && options.obs.profile ? &profile : nullptr;
  if (prof != nullptr) {
    profile.enabled = true;
    profile.trace_id = trace_id;
  }

  // Pin the model for the whole call: with a provider, every prune and the
  // final getOptimal below share one version even if a newer model is
  // published concurrently (the shared_ptr keeps it alive, RCU-style).
  PinnedOracle pinned;
  const CostOracle* oracle = oracle_;
  if (provider_ != nullptr) {
    pinned = provider_->Acquire();
    if (pinned.oracle == nullptr) {
      return Status::Internal("oracle provider has no model published");
    }
    oracle = pinned.oracle.get();
  }

  // Common tail of both search modes: stamp version/latency, fill the
  // profile, close the root span and publish the call's metrics.
  auto finalize = [&](OptimizeResult& result) {
    result.model_version = pinned.version;
    result.latency_ms = stopwatch.ElapsedMillis();
    if (prof != nullptr) {
      profile.plans_enumerated = result.stats.vectors_created;
      profile.oracle_rows = result.stats.oracle_rows;
      profile.oracle_batches = result.stats.oracle_batches;
      profile.rows_unscored = result.stats.rows_unscored;
      profile.phase.total_us = result.latency_ms * 1000.0;
      result.profile = profile;
    }
    if (tracer != nullptr) {
      root_span.SetArgA("oracle_rows",
                        static_cast<int64_t>(result.stats.oracle_rows));
      root_span.SetArgB("vectors",
                        static_cast<int64_t>(result.stats.vectors_created));
      root_span.End();
    }
    if (obs_on && options.obs.metrics != nullptr) {
      PublishOptimizeMetrics(options.obs.metrics, result);
    }
  };

  EnumeratorOptions enum_options;
  enum_options.priority = options.priority;
  enum_options.prune = options.prune;
  enum_options.num_threads = options.num_threads;
  enum_options.obs.tracer = tracer;
  enum_options.obs.trace_id = trace_id;
  enum_options.obs.parent_span = root_span.id();
  enum_options.profile = prof;
  enum_options.top_k_runners = options.top_k_runners;

  // Effective platform set: the caller's allowance minus the exclusions the
  // fault-recovery path injected (dead platforms' breakers).
  const uint64_t allowed_mask =
      options.allowed_platform_mask & ~options.excluded_platform_mask;

  if (options.single_platform) {
    // Try each allowed platform that can run the whole query; keep the one
    // whose best plan the model predicts fastest. The per-platform search
    // still enumerates same-platform variants (e.g. Spark's two samplers).
    OptimizeResult best;
    best.predicted_runtime_s = std::numeric_limits<float>::infinity();
    bool found = false;
    // In single-platform mode the natural runner-ups are the *other*
    // platforms' per-platform bests, not same-platform variants.
    std::vector<std::pair<PlatformId, PlanRunnerUp>> per_platform;
    for (const Platform& platform : registry_->platforms()) {
      if (!((allowed_mask >> platform.id) & 1ull)) continue;
      const uint64_t mask = 1ull << platform.id;
      auto ctx = EnumerationContext::Make(&plan, registry_, schema_, cards,
                                          mask);
      if (!ctx.ok()) continue;  // Platform cannot run some operator.
      PriorityEnumerator enumerator(&ctx.value(), oracle, enum_options);
      auto run = enumerator.Run();
      if (!run.ok()) return run.status();
      found = true;
      best.stats.vectors_created += run->stats.vectors_created;
      best.stats.oracle_rows += run->stats.oracle_rows;
      best.stats.rows_unscored += run->stats.rows_unscored;
      if (options.top_k_runners > 0) {
        PlanRunnerUp entry;
        entry.predicted_runtime_s = run->predicted_runtime_s;
        entry.assignment_hash = HashAssignment(
            run->final_enumeration.assignment(run->best_row),
            run->final_enumeration.num_ops());
        per_platform.emplace_back(platform.id, entry);
      }
      if (run->predicted_runtime_s < best.predicted_runtime_s) {
        best.plan = std::move(run->plan);
        best.predicted_runtime_s = run->predicted_runtime_s;
        best.chosen_platform = platform.id;
      }
    }
    if (!found) {
      return Status::InvalidArgument(
          "no single platform can execute the whole plan");
    }
    if (options.top_k_runners > 0) {
      std::stable_sort(per_platform.begin(), per_platform.end(),
                       [](const auto& a, const auto& b) {
                         return a.second.predicted_runtime_s <
                                b.second.predicted_runtime_s;
                       });
      for (const auto& [platform_id, entry] : per_platform) {
        if (platform_id == best.chosen_platform) continue;
        if (best.runners_up.size() >= options.top_k_runners) break;
        best.runners_up.push_back(entry);
      }
    }
    finalize(best);
    return best;
  }

  auto ctx = EnumerationContext::Make(&plan, registry_, schema_, cards,
                                      allowed_mask);
  if (!ctx.ok()) return ctx.status();
  PriorityEnumerator enumerator(&ctx.value(), oracle, enum_options);
  auto run = enumerator.Run();
  if (!run.ok()) return run.status();

  OptimizeResult result;
  result.plan = std::move(run->plan);
  result.predicted_runtime_s = run->predicted_runtime_s;
  result.stats = run->stats;
  result.runners_up.reserve(run->runner_ups.size());
  for (const auto& [assignment, cost] : run->runner_ups) {
    PlanRunnerUp entry;
    entry.predicted_runtime_s = cost;
    entry.assignment_hash =
        HashAssignment(assignment.data(), assignment.size());
    result.runners_up.push_back(entry);
  }
  finalize(result);
  return result;
}

}  // namespace robopt
