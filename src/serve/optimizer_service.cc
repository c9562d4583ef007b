#include "serve/optimizer_service.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/ticket_queue.h"
#include "ml/forest_kernel.h"
#include "ml/simd_dispatch.h"
#include "obs/build_info.h"
#include "obs/export.h"
#include "plan/fingerprint.h"

namespace robopt {
namespace {

/// MAE in log1p space — the space the forest fits in, so validation and
/// training optimize the same quantity. An empty set has no error to
/// measure: NaN (the "unvalidated" marker PublishExternal also records),
/// never 0.0 — a zero would make any comparison against it vacuously pass.
double LogSpaceMae(const RuntimeModel& model, const MlDataset& data) {
  if (data.size() == 0) return std::numeric_limits<double>::quiet_NaN();
  std::vector<float> pred(data.size());
  model.PredictBatch(data.features().data(), data.size(), data.dim(),
                     pred.data());
  double sum = 0.0;
  for (size_t i = 0; i < data.size(); ++i) {
    const double p = std::log1p(std::max(0.0, static_cast<double>(pred[i])));
    const double a =
        std::log1p(std::max(0.0, static_cast<double>(data.label(i))));
    sum += std::fabs(p - a);
  }
  return sum / static_cast<double>(data.size());
}

double AbsLogError(float predicted_s, double actual_s) {
  const double p = std::log1p(std::max(0.0, static_cast<double>(predicted_s)));
  const double a = std::log1p(std::max(0.0, actual_s));
  return std::fabs(p - a);
}

/// Replays a cache hit onto the caller's plan, never by raw id: Lookup
/// verified the hash sequences match positionally, so the i-th cached alt
/// belongs to operator canonical.ids[i]. The alt range could still disagree
/// on a same-hash collision across operator kinds — checked per operator,
/// returning false for a full re-optimize rather than tripping the
/// ROBOPT_CHECK in ExecutionPlan::Assign.
bool TransferCached(const PlanCache::Entry& cached,
                    const CanonicalOrder& canonical, const LogicalPlan& plan,
                    const PlatformRegistry* registry,
                    std::chrono::steady_clock::time_point start,
                    OptimizerService::Result* result) {
  result->cache_hit = true;
  result->optimize.plan = ExecutionPlan(&plan, registry);
  bool transferable = cached.assignment.size() == canonical.ids.size();
  for (size_t i = 0; i < canonical.ids.size() && transferable; ++i) {
    const OperatorId id = canonical.ids[i];
    const int alt = cached.assignment[i].second;
    if (alt < 0) continue;
    const auto& alts = registry->AlternativesFor(plan.op(id).kind);
    if (alt >= static_cast<int>(alts.size())) {
      transferable = false;
    } else {
      result->optimize.plan.Assign(id, alt);
    }
  }
  if (!transferable) return false;
  result->optimize.predicted_runtime_s = cached.predicted_runtime_s;
  result->optimize.chosen_platform = cached.chosen_platform;
  result->optimize.model_version = cached.model_version;
  result->optimize.latency_ms = std::chrono::duration<double, std::milli>(
                                    std::chrono::steady_clock::now() - start)
                                    .count();
  return true;
}

PlanCache::Entry MakeCacheEntry(const OptimizerService::Result& result,
                                const CanonicalOrder& canonical,
                                uint32_t slot) {
  PlanCache::Entry entry;
  entry.assignment.reserve(canonical.ids.size());
  for (size_t i = 0; i < canonical.ids.size(); ++i) {
    const int alt = result.optimize.plan.alt_index(canonical.ids[i]);
    entry.assignment.emplace_back(canonical.hashes[i],
                                  static_cast<int16_t>(alt));
  }
  // Canonical form sorts ties by alt as well, so equal-hash operators
  // store and replay their alts in one deterministic order.
  std::sort(entry.assignment.begin(), entry.assignment.end());
  entry.predicted_runtime_s = result.optimize.predicted_runtime_s;
  entry.chosen_platform = result.optimize.chosen_platform;
  entry.model_version = result.optimize.model_version;
  for (PlatformId platform : result.optimize.plan.PlatformsUsed()) {
    entry.platform_mask |= 1ull << platform;
  }
  entry.slot = slot;
  return entry;
}

/// Maps the cache layer's self-contained miss vocabulary onto the decision
/// record's (which adds hit/disabled/untransferable — states the cache
/// itself never sees).
DecisionCacheResult MapCacheResult(bool enabled, bool hit,
                                   bool untransferable,
                                   PlanCacheMissCause cause) {
  if (!enabled) return DecisionCacheResult::kDisabled;
  if (hit) return DecisionCacheResult::kHit;
  if (untransferable) return DecisionCacheResult::kMissUntransferable;
  switch (cause) {
    case PlanCacheMissCause::kStaleVersion:
      return DecisionCacheResult::kMissStaleVersion;
    case PlanCacheMissCause::kHashMismatch:
      return DecisionCacheResult::kMissHashMismatch;
    case PlanCacheMissCause::kCold:
    case PlanCacheMissCause::kNone:
      return DecisionCacheResult::kMissCold;
  }
  return DecisionCacheResult::kMissCold;
}

}  // namespace

/// One serving shard: a bounded FIFO admission queue whose admitted caller
/// *becomes* the shard's executor (no cross-thread handoff), a PlanCache
/// slice, and a pinned model handle. Everything under "shard-local" is
/// touched only while holding the queue's serving turn — the ticket chain's
/// release/acquire ordering makes plain state safe without further locks.
struct OptimizerService::Shard {
  Shard(const PlatformRegistry* registry, const FeatureSchema* schema,
        uint64_t queue_capacity, size_t cache_capacity)
      : queue(queue_capacity),
        cache(cache_capacity),
        optimizer(registry, schema, &provider) {}

  /// Hands the shard's pinned oracle to its optimizer. Acquire() is called
  /// once per optimize call, always inside the serving turn, so the plain
  /// `pinned` member needs no synchronization.
  struct PinnedProvider final : public OracleProvider {
    PinnedOracle pinned;
    PinnedOracle Acquire() const override { return pinned; }
  };

  TicketQueue queue;
  PlanCache cache;
  PinnedProvider provider;
  RoboptOptimizer optimizer;

  // --- Shard-local (serving-turn only) ---
  /// Trip epoch this shard's serving turn last reconciled at.
  uint64_t seen_trip_epoch = 0;

  // --- Breaker fan-out (under trip_mu) ---
  /// Orders a reconcile (eager, from any failure thread) against the
  /// serving turn's cache insert; see RunOnShard.
  std::mutex trip_mu;
  /// Per-platform trip counts already reconciled against `cache`.
  std::array<uint64_t, kMaxPlatforms> last_trips{};

  // --- Read concurrently by producers at admission ---
  std::atomic<double> ewma_service_s{0.0};
  std::atomic<uint64_t> processed{0};
  std::atomic<uint64_t> shed_queue_full{0};
  std::atomic<uint64_t> shed_deadline{0};
  std::atomic<uint64_t> shed_slo{0};
};

void RecoveryStats::ExportTo(MetricsRegistry* registry) const {
  if (registry == nullptr) return;
  registry->Set("robopt_recovery_failures_observed",
                static_cast<double>(failures_observed));
  registry->Set("robopt_recovery_breaker_trips",
                static_cast<double>(breaker_trips));
  registry->Set("robopt_recovery_breaker_recoveries",
                static_cast<double>(breaker_recoveries));
  registry->Set("robopt_recovery_masked_optimizes",
                static_cast<double>(masked_optimizes));
  registry->Set("robopt_recovery_plans_invalidated_on_trip",
                static_cast<double>(plans_invalidated_on_trip));
  registry->Set("robopt_recovery_open_platform_mask",
                static_cast<double>(open_platform_mask));
}

void ServeStats::ExportTo(MetricsRegistry* registry) const {
  if (registry == nullptr) return;
  registry->Set("robopt_serve_current_version",
                static_cast<double>(current_version));
  registry->Set("robopt_serve_versions_published",
                static_cast<double>(versions_published));
  registry->Set("robopt_serve_retrains", static_cast<double>(retrains));
  registry->Set("robopt_serve_promotions", static_cast<double>(promotions));
  registry->Set("robopt_serve_rejections", static_cast<double>(rejections));
  registry->Set("robopt_serve_experience_rows",
                static_cast<double>(experience_rows));
  registry->Set("robopt_serve_holdout_rows",
                static_cast<double>(holdout_rows));
  // Sharded-serving aggregates and the per-shard breakdown (label style
  // matches the breaker and feedback-stripe gauges).
  registry->Set("robopt_shard_count", static_cast<double>(num_shards));
  registry->Set("robopt_shard_processed_total",
                static_cast<double>(shard_processed));
  registry->Set("robopt_shard_shed_queue_full_total",
                static_cast<double>(shard_shed_queue_full));
  registry->Set("robopt_shard_shed_deadline_total",
                static_cast<double>(shard_shed_deadline));
  registry->Set("robopt_shard_shed_slo_total",
                static_cast<double>(shard_shed_slo));
  registry->Set("robopt_shard_queue_depth",
                static_cast<double>(shard_queue_depth));
  registry->Set("robopt_router_rebalances_total",
                static_cast<double>(router_rebalances));
  registry->Set("robopt_router_slots_moved_total",
                static_cast<double>(router_slots_moved));
  for (size_t i = 0; i < shards.size(); ++i) {
    const ShardStats& shard = shards[i];
    const std::string label = "{shard=\"" + std::to_string(i) + "\"}";
    registry->Set("robopt_shard_processed" + label,
                  static_cast<double>(shard.processed));
    registry->Set("robopt_shard_shed_queue_full" + label,
                  static_cast<double>(shard.shed_queue_full));
    registry->Set("robopt_shard_shed_deadline" + label,
                  static_cast<double>(shard.shed_deadline));
    registry->Set("robopt_shard_shed_slo" + label,
                  static_cast<double>(shard.shed_slo));
    registry->Set("robopt_shard_queue_depth" + label,
                  static_cast<double>(shard.queue_depth));
    registry->Set("robopt_shard_routed" + label,
                  static_cast<double>(shard.routed));
    registry->Set("robopt_shard_cache_hits" + label,
                  static_cast<double>(shard.plan_cache.hits));
  }
  feedback.ExportTo(registry);
  plan_cache.ExportTo(registry);
  current_drift.ExportTo(registry);
  recovery.ExportTo(registry);
}

StatusOr<std::unique_ptr<OptimizerService>> OptimizerService::Create(
    const PlatformRegistry* registry, const FeatureSchema* schema,
    MlDataset base, std::shared_ptr<RandomForest> initial,
    ServeOptions options) {
  if (registry == nullptr || schema == nullptr) {
    return Status::InvalidArgument("registry and schema are required");
  }
  if (base.dim() != schema->width()) {
    return Status::InvalidArgument(
        "base dataset width does not match the feature schema");
  }
  std::unique_ptr<OptimizerService> service(
      new OptimizerService(registry, schema, std::move(options)));
  if (base.size() > 0 && service->options_.holdout_fraction > 0.0) {
    base.Split(1.0 - service->options_.holdout_fraction,
               service->options_.holdout_seed, &service->base_train_,
               &service->holdout_);
  } else {
    service->base_train_ = std::move(base);
  }
  if (initial == nullptr) {
    if (service->base_train_.size() == 0) {
      return Status::InvalidArgument(
          "no initial model was given and the base dataset is empty");
    }
    auto forest = std::make_shared<RandomForest>(service->ForestParams());
    ROBOPT_RETURN_IF_ERROR(forest->Train(service->base_train_));
    initial = std::move(forest);
  }
  const double mae = LogSpaceMae(*initial, service->holdout_);
  service->models_.Publish(std::move(initial), mae);
  if (service->options_.background_retrain) {
    service->worker_ = std::thread([s = service.get()] { s->WorkerLoop(); });
  }
  return service;
}

OptimizerService::OptimizerService(const PlatformRegistry* registry,
                                   const FeatureSchema* schema,
                                   ServeOptions options)
    : registry_(registry),
      schema_(schema),
      options_(std::move(options)),
      models_(options_.model_history),
      // Feedback stripes match the shard count, so per-stripe drop counters
      // read as per-shard feedback loss next to the shed counters.
      collector_(options_.feedback_capacity,
                 static_cast<size_t>(
                     ShardRouter::ResolveShardCount(options_.num_shards))),
      experience_(schema),
      base_train_(schema->width()),
      holdout_(schema->width()),
      last_train_(std::chrono::steady_clock::now()),
      service_epoch_(std::chrono::steady_clock::now()),
      health_(options_.breaker),
      tracer_(options_.trace_capacity) {
  if (options_.diagnostics.enabled) {
    decisions_ =
        std::make_unique<DecisionRing>(options_.diagnostics.ring_capacity);
  }
  if (options_.slo.enabled) {
    WindowedSketch::Options sketch;
    sketch.alpha = options_.slo.sketch_alpha;
    sketch.window_s = options_.slo.sketch_window_s;
    sketch.windows = options_.slo.sketch_windows;
    sketch.exemplars_per_window = options_.slo.exemplars_per_window;
    latency_sketch_ = std::make_unique<WindowedSketch>(sketch);
    slo_ = std::make_unique<SloEngine>(options_.slo.objectives,
                                       latency_sketch_.get());
  }
  const int num_shards = ShardRouter::ResolveShardCount(options_.num_shards);
  router_ = std::make_unique<ShardRouter>(num_shards, options_.router_slots);
  // The configured capacity is a service-wide budget, split evenly; each
  // shard keeps at least one entry so warm routing still pays off at tiny
  // capacities. 0 stays 0 (cache disabled everywhere).
  const size_t per_shard_cache =
      options_.plan_cache_capacity == 0
          ? 0
          : std::max<size_t>(1, options_.plan_cache_capacity /
                                    static_cast<size_t>(num_shards));
  const uint64_t queue_capacity =
      options_.shard_queue_capacity == 0 ? 1 : options_.shard_queue_capacity;
  shards_.reserve(static_cast<size_t>(num_shards));
  for (int i = 0; i < num_shards; ++i) {
    shards_.push_back(std::make_unique<Shard>(registry, schema,
                                              queue_capacity,
                                              per_shard_cache));
  }
}

OptimizerService::~OptimizerService() {
  {
    std::lock_guard<std::mutex> lock(worker_mu_);
    stop_ = true;
  }
  worker_cv_.notify_all();
  if (worker_.joinable()) worker_.join();
}

StatusOr<OptimizerService::Result> OptimizerService::Optimize(
    const LogicalPlan& plan, const Cardinalities* cards) {
  return Optimize(plan, cards, options_.optimize);
}

StatusOr<OptimizerService::Result> OptimizerService::Optimize(
    const LogicalPlan& plan, const Cardinalities* cards,
    const OptimizeOptions& options) {
  return Optimize(plan, cards, options, RequestContext{});
}

StatusOr<OptimizerService::Result> OptimizerService::Optimize(
    const LogicalPlan& plan, const Cardinalities* cards,
    const OptimizeOptions& options, const RequestContext& ctx) {
  // Choke point: every overload funnels here, so one stopwatch measures
  // true end-to-end service latency (queue wait included) and one scratch
  // collects the serving path's decision breadcrumbs.
  const auto start = std::chrono::steady_clock::now();
  RequestObserver* observer = options_.request_observer;
  const bool diag_on = decisions_ != nullptr;
  const bool slo_on = slo_ != nullptr;
  // Diagnostics ask for runner-up plans; the selection reuses the final
  // cost batch and is excluded from the cache key, so served plans stay
  // bit-identical and cache entries stay shared with diagnostics off.
  OptimizeOptions with_runners;
  if (diag_on) {
    with_runners = options;
    with_runners.top_k_runners =
        std::max(with_runners.top_k_runners,
                 std::min(options_.diagnostics.top_k_runners,
                          kDecisionRunners));
  }
  DecisionScratch scratch;
  auto result = OptimizeSharded(plan, cards, diag_on ? with_runners : options,
                                ctx, start, &scratch);
  if (observer == nullptr && !diag_on && !slo_on) return result;

  const PlanFingerprint& fp = scratch.fp;
  const double latency_us =
      std::chrono::duration<double, std::micro>(
          std::chrono::steady_clock::now() - start)
          .count();

  if (observer != nullptr) {
    ServedRequest served;
    served.tenant = ctx.tenant;
    served.plan = &plan;
    served.cards = cards;
    served.options_hash = PlanCache::HashOptions(options);
    served.fp_lo = fp.lo;
    served.fp_hi = fp.hi;
    if (result.ok()) {
      served.cache_hit = result->cache_hit;
      served.predicted_runtime_s = result->optimize.predicted_runtime_s;
      served.model_version = result->optimize.model_version;
      served.chosen_platform =
          static_cast<uint8_t>(result->optimize.chosen_platform);
      served.optimized = &result->optimize.plan;
    } else {
      served.status = result.status().code();
    }
    observer->OnRequest(served);
  }

  if (slo_on) {
    const double now_s = SloNow();
    if (result.ok()) {
      // The chaos/test hook pads only what the sketch *observes* — the
      // served request itself is untouched.
      const double recorded_us =
          latency_us +
          slo_inject_latency_us_.load(std::memory_order_relaxed);
      SketchExemplar exemplar;
      exemplar.value = recorded_us;
      exemplar.fp_lo = fp.lo;
      exemplar.fp_hi = fp.hi;
      latency_sketch_->Record(now_s, recorded_us, &exemplar);
    } else if (scratch.shed != ShedReason::kNone) {
      // Sheds carry no latency; they land as bad events, which only an
      // objective with count_sheds_as_bad opts into (counting the sheds
      // the SLO reaction itself causes would latch critical forever).
      latency_sketch_->RecordBad(now_s);
    }
  }

  if (diag_on) {
    DecisionRecord record;
    record.wall_us = std::chrono::duration<double, std::micro>(
                         start - service_epoch_)
                         .count();
    record.tenant = ctx.tenant;
    record.fp_lo = fp.lo;
    record.fp_hi = fp.hi;
    record.options_hash = PlanCache::HashOptions(options);
    record.shard = scratch.shard;
    record.shed = scratch.shed;
    record.slo_health = static_cast<uint8_t>(slo_health());
    record.open_breaker_mask = scratch.open_mask;
    record.excluded_platform_mask = scratch.excluded_mask;
    record.latency_us = latency_us;
    if (result.ok()) {
      const OptimizeResult& opt = result->optimize;
      record.cache =
          MapCacheResult(scratch.cache_enabled, result->cache_hit,
                         scratch.cache_untransferable, scratch.cache_cause);
      record.chosen_platform = static_cast<uint8_t>(opt.chosen_platform);
      record.model_version = opt.model_version;
      record.predicted_runtime_s = opt.predicted_runtime_s;
      record.vectors_created = opt.stats.vectors_created;
      record.vectors_pruned = opt.stats.vectors_pruned;
      record.final_vectors = opt.stats.final_vectors;
      record.oracle_rows = opt.stats.oracle_rows;
      record.num_runners = static_cast<uint32_t>(
          std::min(opt.runners_up.size(), kDecisionRunners));
      for (uint32_t i = 0; i < record.num_runners; ++i) {
        record.runners[i].predicted_runtime_s =
            opt.runners_up[i].predicted_runtime_s;
        record.runners[i].assignment_hash = opt.runners_up[i].assignment_hash;
      }
    } else {
      record.status = result.status().code();
      // A shed never reached the cache; a failed optimize records its
      // preceding miss cause.
      record.cache =
          scratch.shed != ShedReason::kNone
              ? DecisionCacheResult::kDisabled
              : MapCacheResult(scratch.cache_enabled, false,
                               scratch.cache_untransferable,
                               scratch.cache_cause);
    }
    decisions_->Record(record);
  }
  return result;
}

StatusOr<OptimizerService::Result> OptimizerService::OptimizeSharded(
    const LogicalPlan& plan, const Cardinalities* cards,
    const OptimizeOptions& caller_options, const RequestContext& ctx,
    std::chrono::steady_clock::time_point start, DecisionScratch* scratch) {
  // Fingerprint before admission: the canonical fingerprint is the routing
  // key (and double-duties as the cache key inside the shard); its canonical
  // order maps cached alts onto this plan's ids.
  CanonicalOrder canonical;
  PlanCacheKey key;
  key.plan = FingerprintPlan(plan, &canonical);
  scratch->fp = key.plan;
  key.cards_hash = cards == nullptr ? 0 : FingerprintCards(*cards);
  uint32_t slot = 0;
  const uint32_t shard_index = router_->Route(ctx.tenant, key.plan, &slot);
  Shard& shard = *shards_[shard_index];
  scratch->shard = shard_index;

  // SLO feedback into admission: one relaxed load of the engine's cached
  // health. Under critical burn the service prefers shedding early over
  // serving doomed tail requests — the deadline and the queue bound both
  // tighten by their configured factors.
  const bool slo_critical =
      slo_ != nullptr && slo_->health() == SloHealth::kCritical;

  // Admission control. Deadline shedding first: estimated queue delay is
  // (depth + 1) waiting-plus-own service times at the shard's smoothed
  // rate. A request that cannot make its deadline is rejected *now*, while
  // the caller can still fall back, rather than after queueing through the
  // very delay that dooms it.
  double deadline_s = ctx.deadline_s;
  if (deadline_s == 0.0) deadline_s = options_.default_deadline_s;
  double effective_deadline_s = deadline_s;
  if (slo_critical && deadline_s > 0.0) {
    effective_deadline_s = deadline_s * options_.slo.critical_deadline_factor;
  }
  if (effective_deadline_s > 0.0) {
    const double ewma =
        shard.ewma_service_s.load(std::memory_order_relaxed);
    const uint64_t depth = shard.queue.depth();
    const double estimated_s = static_cast<double>(depth + 1) * ewma;
    if (ewma > 0.0 && estimated_s > effective_deadline_s) {
      // Attribution: a request the *untightened* deadline would also have
      // rejected is an ordinary deadline shed; only one rejected purely by
      // the SLO tightening counts as an SLO shed.
      const bool slo_only = estimated_s <= deadline_s;
      if (slo_only) {
        shard.shed_slo.fetch_add(1, std::memory_order_relaxed);
      } else {
        shard.shed_deadline.fetch_add(1, std::memory_order_relaxed);
      }
      scratch->shed =
          slo_only ? ShedReason::kSloDeadline : ShedReason::kDeadline;
      // Decay the estimate on every rejection. The EWMA is otherwise
      // only updated by served requests, so a single preemption-inflated
      // sample above every caller's deadline would lock admission out
      // permanently (nothing serves, nothing re-estimates). Shrinking it
      // multiplicatively makes rejected traffic a slow probe: after
      // enough sheds the estimate drops back under the deadline and a
      // real request refreshes it. Racy multi-writer store is fine — the
      // value is a heuristic and every writer moves it toward zero.
      shard.ewma_service_s.store(ewma * 0.98, std::memory_order_relaxed);
      return Status::ResourceExhausted(
          slo_only
              ? "estimated shard queue delay exceeds the SLO-tightened "
                "deadline"
              : "estimated shard queue delay exceeds the request deadline");
    }
  }
  if (slo_critical) {
    // Tightened queue bound: pre-check depth against the reduced capacity.
    // Racy reads are fine — at worst one extra request slips through to
    // the hard TryEnter bound below.
    const uint64_t cap = std::max<uint64_t>(
        1, static_cast<uint64_t>(
               static_cast<double>(options_.shard_queue_capacity) *
               options_.slo.critical_queue_factor));
    if (shard.queue.depth() >= cap) {
      shard.shed_slo.fetch_add(1, std::memory_order_relaxed);
      scratch->shed = ShedReason::kSloQueue;
      return Status::ResourceExhausted(
          "shard queue past the SLO-tightened bound");
    }
  }
  uint64_t ticket = 0;
  if (!shard.queue.TryEnter(&ticket)) {
    shard.shed_queue_full.fetch_add(1, std::memory_order_relaxed);
    scratch->shed = ShedReason::kQueueFull;
    return Status::ResourceExhausted("shard admission queue is full");
  }
  shard.queue.WaitTurn(ticket);
  // ---- Serving turn: this thread is the shard's executor until Leave().
  const auto serve_start = std::chrono::steady_clock::now();
  auto result =
      RunOnShard(shard, slot, plan, cards, caller_options, key, canonical,
                 start, scratch);
  const double service_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    serve_start)
          .count();
  // Single writer (the turn holder); admission reads it relaxed.
  const double prev = shard.ewma_service_s.load(std::memory_order_relaxed);
  shard.ewma_service_s.store(
      prev == 0.0 ? service_s : 0.8 * prev + 0.2 * service_s,
      std::memory_order_relaxed);
  shard.processed.fetch_add(1, std::memory_order_relaxed);
  shard.queue.Leave();
  return result;
}

StatusOr<OptimizerService::Result> OptimizerService::RunOnShard(
    Shard& shard, uint32_t slot, const LogicalPlan& plan,
    const Cardinalities* cards, const OptimizeOptions& caller_options,
    const PlanCacheKey& route_key, const CanonicalOrder& canonical,
    std::chrono::steady_clock::time_point start, DecisionScratch* scratch) {
  // Promotion fan-out: one relaxed uint64 compare against the registry's
  // publish counter. A promotion anywhere is picked up on the next entry
  // into each shard — stale cache entries then die by their version tag
  // (PlanCache's lazy invalidation), so no shard ever stops the world.
  // The shard keeps the version it actually pinned, not the publish
  // counter: if the counter ran ahead of the snapshot load, the mismatch
  // re-pins on the next entry until they agree.
  if (shard.provider.pinned.version != models_.published_version()) {
    shard.provider.pinned = models_.Acquire();
  }
  // Breaker backstop: one epoch compare. OnExecutionFailure already
  // reconciled every shard eagerly; this catches trips fed straight into
  // health() (executors without this service as observer, chaos hooks).
  const uint64_t trip_epoch = health_.trip_epoch();
  if (trip_epoch != shard.seen_trip_epoch) {
    ReconcileTrips(shard);
    shard.seen_trip_epoch = trip_epoch;
  }

  // Re-optimize-on-failure: mask every open-breaker platform out of the
  // enumeration on top of whatever the caller excluded. Half-open breakers
  // stay routable — the next query through them is the recovery probe. The
  // mask is part of the cache key (PlanSearchOptions), so plans cached
  // while a platform was dead never serve after it recovers, and vice
  // versa.
  const uint64_t open_mask = health_.OpenMask();
  OptimizeOptions options = caller_options;
  options.excluded_platform_mask |= open_mask;
  // Service observability: route this call's metrics and span tree into the
  // service-owned sinks, unless the caller brought their own (theirs win —
  // a call-level override must not be silently redirected). obs is not part
  // of the cache key (PlanSearchOptions skips it), matching its bit-identical
  // contract.
  if (options_.observability && !options.obs.enabled()) {
    options.obs.metrics = &metrics_;
    options.obs.tracer = &tracer_;
  }
  auto bump = [&options](const char* name) {
    if (!ROBOPT_OBS_ON(options.obs) || options.obs.metrics == nullptr) return;
    if (Counter* counter = options.obs.metrics->GetCounter(name)) {
      counter->Add(1);
    }
  };
  bump("robopt_serve_optimize_calls_total");
  if (open_mask & options.allowed_platform_mask &
      ~caller_options.excluded_platform_mask) {
    std::lock_guard<std::mutex> lock(recovery_mu_);
    ++masked_optimizes_;
  }
  scratch->open_mask = open_mask;
  scratch->excluded_mask = options.excluded_platform_mask;
  const bool cache_on = shard.cache.enabled();
  scratch->cache_enabled = cache_on;
  PlanCacheKey key = route_key;
  if (cache_on) {
    key.options = PlanSearchOptions::Of(options);
    PlanCache::Entry cached;
    PlanCacheMissCause cause = PlanCacheMissCause::kNone;
    if (shard.cache.Lookup(key, shard.provider.pinned.version,
                           canonical.hashes, &cached, &cause)) {
      Result result;
      if (TransferCached(cached, canonical, plan, registry_, start,
                         &result)) {
        bump("robopt_serve_plan_cache_hits_total");
        return result;
      }
      scratch->cache_untransferable = true;
    }
    scratch->cache_cause = cause;
  }

  auto optimized = shard.optimizer.Optimize(plan, cards, options);
  if (!optimized.ok()) return optimized.status();
  Result result;
  result.optimize = std::move(optimized.value());
  if (cache_on) {
    // A trip during this call may already have been reconciled eagerly;
    // the plan was chosen against the older breaker view, so it is served
    // but not cached. trip_mu orders this check against that reconcile.
    std::lock_guard<std::mutex> lock(shard.trip_mu);
    if (health_.trip_epoch() == trip_epoch) {
      shard.cache.Insert(key, MakeCacheEntry(result, canonical, slot));
    }
  }
  return result;
}

void OptimizerService::ReconcileTrips(Shard& shard) {
  uint64_t dropped = 0;
  {
    std::lock_guard<std::mutex> lock(shard.trip_mu);
    for (PlatformId p = 0; p < registry_->num_platforms(); ++p) {
      const uint64_t trips = health_.snapshot(p).trips;
      if (trips > shard.last_trips[p]) {
        shard.last_trips[p] = trips;
        dropped += shard.cache.InvalidatePlatform(p);
      }
    }
  }
  if (dropped > 0) {
    std::lock_guard<std::mutex> lock(recovery_mu_);
    plans_invalidated_on_trip_ += dropped;
  }
}

size_t OptimizerService::RebalanceNow() {
  if (shards_.size() < 2) return 0;
  std::lock_guard<std::mutex> lock(rebalance_mu_);
  ShardRouter::MigrationPlan plan;
  if (!router_->DetectImbalance(options_.rebalance_imbalance_factor,
                                options_.rebalance_min_checks, &plan)) {
    return 0;
  }
  Shard& from = *shards_[plan.from];
  Shard& to = *shards_[plan.to];
  // Phase 1 (count): how much payload the move carries. Whether or not any
  // cache entries exist, the slots themselves are retargeted — the load
  // imbalance is real either way.
  const size_t pending = from.cache.CountSlots(plan.slot_set);
  // Retarget routing first: requests for these slots start landing on the
  // destination immediately (cold at worst — a racing in-flight request on
  // the source still serves correctly from its own cache).
  for (uint32_t moved_slot : plan.slots) {
    router_->MoveSlot(moved_slot, plan.to);
  }
  // Phase 2 (payload): hand the entries over, MRU-first, compacted into
  // the destination's cold end. Both caches are internally locked, so this
  // runs concurrently with serving on either shard.
  size_t moved = 0;
  if (pending > 0) {
    moved = to.cache.InsertMigrated(from.cache.ExtractSlots(plan.slot_set));
  }
  return moved;
}

uint32_t OptimizerService::ShardFor(uint64_t tenant,
                                    const LogicalPlan& plan) const {
  return router_->ShardOf(
      router_->SlotOf(ShardRouter::RouteHash(tenant, FingerprintPlan(plan))));
}

void OptimizerService::OnExecution(const ExecutionPlan& plan,
                                   const ExecResult& result) {
  // No logs for failed plans (the paper's executors simply die on OOM);
  // TDGEN's failure penalty covers those synthetically.
  if (!std::isfinite(result.cost.total_s)) return;
  const LogicalPlan& logical = plan.logical_plan();
  std::vector<uint8_t> assignment(logical.num_operators(), 0);
  for (const LogicalOperator& op : logical.operators()) {
    const int alt = plan.alt_index(op.id);
    if (alt < 0) return;  // Incomplete plan; nothing to learn from.
    assignment[op.id] = static_cast<uint8_t>(alt + 1);
  }
  // Encode under the *observed* cardinalities: the training point should
  // describe the work the plan actually did.
  auto ctx = EnumerationContext::Make(&logical, registry_, schema_,
                                      &result.observed);
  if (!ctx.ok()) return;
  FeedbackEvent event;
  event.features = EncodeAssignment(ctx.value(), assignment.data());
  event.actual_s = result.cost.total_s;
  if (const auto snapshot = models_.Current(); snapshot != nullptr) {
    event.model_version = snapshot->version();
    float predicted = 0.0f;
    snapshot->oracle().EstimateBatch(event.features.data(), 1,
                                     event.features.size(), &predicted);
    event.predicted_s = predicted;
  }
  collector_.Offer(std::move(event));
  // Past the screening above, so the trace records exactly the feedback the
  // retrain loop accepted.
  if (options_.request_observer != nullptr) {
    options_.request_observer->OnFeedback(plan, result);
  }
}

void OptimizerService::OnExecutionFailure(const ExecutionPlan& plan,
                                          const FailureReport& report) {
  (void)plan;
  (void)report;
  collector_.RecordFailure();
  {
    std::lock_guard<std::mutex> lock(recovery_mu_);
    ++failures_observed_;
  }
  // The failure may just have tripped a breaker: reconcile every shard now,
  // so stale cached plans through the dead platform are gone (and counted
  // in Stats()) before this returns, not merely keyed away by the
  // exclusion mask until each shard's next request.
  for (const auto& shard : shards_) ReconcileTrips(*shard);
}

void OptimizerService::DrainFeedbackLocked() {
  std::vector<FeedbackEvent> events = collector_.Drain();
  for (FeedbackEvent& event : events) {
    // Fold the prediction error into the version that made the prediction —
    // a promotion mid-stream must not pollute the old version's curve.
    if (event.model_version != 0) {
      if (const auto snapshot = models_.Get(event.model_version);
          snapshot != nullptr) {
        snapshot->ObserveError(AbsLogError(event.predicted_s, event.actual_s),
                               options_.drift_alpha);
      }
    }
    ++drain_seq_;
    if (options_.holdout_every > 0 &&
        drain_seq_ % options_.holdout_every == 0) {
      std::lock_guard<std::mutex> lock(holdout_mu_);
      if (event.features.size() == holdout_.dim()) {
        holdout_.Add(event.features, static_cast<float>(event.actual_s));
      }
      continue;
    }
    if (experience_.RecordRow(event.features, event.actual_s).ok()) {
      ++events_since_train_;
    }
  }
}

MlDataset OptimizerService::HoldoutSnapshot() const {
  std::lock_guard<std::mutex> lock(holdout_mu_);
  return holdout_;
}

StatusOr<RetrainOutcome> OptimizerService::RetrainNow(bool force) {
  std::lock_guard<std::mutex> lock(retrain_mu_);
  DrainFeedbackLocked();

  RetrainOutcome outcome;
  const auto now = std::chrono::steady_clock::now();
  const double since_s =
      std::chrono::duration<double>(now - last_train_).count();
  const bool size_trigger = options_.retrain_min_events > 0 &&
                            events_since_train_ >= options_.retrain_min_events;
  const bool time_trigger = options_.retrain_interval_s > 0.0 &&
                            since_s >= options_.retrain_interval_s &&
                            events_since_train_ > 0;
  if (!force && !size_trigger && !time_trigger) return outcome;

  outcome.triggered = true;
  outcome.experience_rows = experience_.size();
  auto candidate = experience_.Retrain(base_train_, options_.experience_weight,
                                       ForestParams());
  if (!candidate.ok()) return candidate.status();
  last_train_ = now;
  events_since_train_ = 0;
  {
    std::lock_guard<std::mutex> counter_lock(counter_mu_);
    ++retrains_;
  }

  const MlDataset holdout = HoldoutSnapshot();
  outcome.holdout_rows = holdout.size();
  outcome.validated = holdout.size() > 0;
  outcome.candidate_mae = LogSpaceMae(*candidate.value(), holdout);
  const auto incumbent = models_.Current();
  outcome.incumbent_mae =
      incumbent == nullptr ? std::numeric_limits<double>::infinity()
                           : LogSpaceMae(incumbent->forest(), holdout);

  // An empty holdout makes the MAE comparison meaningless (both sides NaN);
  // never let it pass vacuously — the candidate is rejected unless the
  // operator explicitly opted into unvalidated promotion.
  const bool promote =
      outcome.validated
          ? outcome.candidate_mae <=
                outcome.incumbent_mae * (1.0 + options_.promote_tolerance)
          : options_.promote_unvalidated;
  if (promote) {
    outcome.version = models_.Publish(std::move(candidate.value()),
                                      outcome.candidate_mae);
    outcome.promoted = true;
    // No cache invalidation: every entry is version-tagged, each shard
    // re-pins on its next request entry, and stale entries die lazily on
    // lookup — promotion never stops the world.
    std::lock_guard<std::mutex> counter_lock(counter_mu_);
    ++promotions_;
  } else {
    std::lock_guard<std::mutex> counter_lock(counter_mu_);
    ++rejections_;
  }
  return outcome;
}

uint64_t OptimizerService::PublishExternal(std::shared_ptr<RandomForest> forest) {
  // Cached plans invalidate lazily via version tags (see RetrainNow).
  return models_.Publish(std::move(forest),
                         std::numeric_limits<double>::quiet_NaN());
}

ServeStats OptimizerService::Stats() const {
  ServeStats stats;
  stats.current_version = models_.current_version();
  stats.versions_published = models_.num_published();
  {
    std::lock_guard<std::mutex> lock(counter_mu_);
    stats.retrains = retrains_;
    stats.promotions = promotions_;
    stats.rejections = rejections_;
  }
  stats.experience_rows = experience_.size();
  {
    std::lock_guard<std::mutex> lock(holdout_mu_);
    stats.holdout_rows = holdout_.size();
  }
  stats.feedback = collector_.stats();
  stats.num_shards = num_shards();
  const RouterStats router = router_->stats();
  stats.router_rebalances = router.rebalances;
  stats.router_slots_moved = router.slots_moved;
  stats.shards.reserve(shards_.size());
  for (size_t i = 0; i < shards_.size(); ++i) {
    const Shard& shard = *shards_[i];
    ShardStats per_shard;
    per_shard.processed = shard.processed.load(std::memory_order_relaxed);
    per_shard.shed_queue_full =
        shard.shed_queue_full.load(std::memory_order_relaxed);
    per_shard.shed_deadline =
        shard.shed_deadline.load(std::memory_order_relaxed);
    per_shard.shed_slo = shard.shed_slo.load(std::memory_order_relaxed);
    per_shard.queue_depth = shard.queue.depth();
    per_shard.routed = i < router.routed.size() ? router.routed[i] : 0;
    per_shard.ewma_service_s =
        shard.ewma_service_s.load(std::memory_order_relaxed);
    per_shard.plan_cache = shard.cache.stats();
    stats.shard_processed += per_shard.processed;
    stats.shard_shed_queue_full += per_shard.shed_queue_full;
    stats.shard_shed_deadline += per_shard.shed_deadline;
    stats.shard_shed_slo += per_shard.shed_slo;
    stats.shard_queue_depth += per_shard.queue_depth;
    // The service-wide cache view is the sum of the slices.
    stats.plan_cache.Accumulate(per_shard.plan_cache);
    stats.shards.push_back(std::move(per_shard));
  }
  if (const auto snapshot = models_.Current(); snapshot != nullptr) {
    stats.current_drift = snapshot->drift();
  }
  stats.recovery.open_platform_mask = health_.OpenMask();
  stats.recovery.breaker_trips = health_.total_trips();
  stats.recovery.breaker_recoveries = health_.total_recoveries();
  {
    std::lock_guard<std::mutex> lock(recovery_mu_);
    stats.recovery.failures_observed = failures_observed_;
    stats.recovery.masked_optimizes = masked_optimizes_;
    stats.recovery.plans_invalidated_on_trip = plans_invalidated_on_trip_;
  }
  return stats;
}

RandomForest::Params OptimizerService::ForestParams() {
  RandomForest::Params params = options_.forest;
  if (!params.obs.enabled()) params.obs = obs();
  return params;
}

ObsOptions OptimizerService::obs() {
  ObsOptions options;
  if (options_.observability) {
    options.metrics = &metrics_;
    options.tracer = &tracer_;
  }
  return options;
}

MetricsSnapshot OptimizerService::SnapshotMetrics() const {
  // Refresh every derived-gauge mirror from its source-of-truth struct,
  // then freeze. Counters/histograms written on the hot paths are already
  // live in metrics_ and need no sync.
  Stats().ExportTo(&metrics_);
  health_.ExportTo(&metrics_, registry_->num_platforms());
  if (options_.request_observer != nullptr) {
    options_.request_observer->ExportTo(&metrics_);
  }
  // Process-wide inference telemetry (always on; see ForestKernel). Set
  // mirrors of monotone counters — idempotent like the other gauges.
  metrics_.Set("robopt_ml_forest_rows_scored_total",
               static_cast<double>(ForestKernel::TotalRowsScored()));
  metrics_.Set("robopt_ml_forest_batches_total",
               static_cast<double>(ForestKernel::TotalBatches()));
  // Diagnostics & SLO plane: ring health, sliding-window latency
  // quantiles, burn rates. Each export re-evaluates the objectives first,
  // so a scrape always reads current burn.
  if (decisions_ != nullptr) decisions_->ExportTo(&metrics_);
  if (slo_ != nullptr) {
    const double now_s = SloNow();
    slo_->Evaluate(now_s);
    slo_->ExportTo(&metrics_);
    metrics_.Set("robopt_optimize_latency_p50_us",
                 latency_sketch_->Quantile(0.5, 0.0, now_s));
    metrics_.Set("robopt_optimize_latency_p95_us",
                 latency_sketch_->Quantile(0.95, 0.0, now_s));
    metrics_.Set("robopt_optimize_latency_p99_us",
                 latency_sketch_->Quantile(0.99, 0.0, now_s));
  }
  // Tracer ring health and the build-info/uptime process gauges (the lane
  // string comes from the ml dispatcher — obs stays lane-agnostic).
  tracer_.ExportTo(&metrics_);
  ExportBuildInfo(&metrics_, simd::LaneName(simd::ActiveLane()));
  return metrics_.Snapshot();
}

std::vector<DecisionRecord> OptimizerService::RecentDecisions(
    size_t max_records) const {
  if (decisions_ == nullptr) return {};
  return decisions_->Collect(max_records);
}

std::string OptimizerService::ExportDecisionsJson(size_t max_records) const {
  return ::robopt::ExportDecisionsJson(RecentDecisions(max_records));
}

double OptimizerService::SloNow() const {
  if (options_.slo.clock) return options_.slo.clock();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       service_epoch_)
      .count();
}

void OptimizerService::EvaluateSloNow() {
  if (slo_ != nullptr) slo_->Evaluate(SloNow());
}

SloHealth OptimizerService::slo_health() const {
  return slo_ == nullptr ? SloHealth::kOk : slo_->health();
}

SloStatus OptimizerService::slo_status() const {
  return slo_ == nullptr ? SloStatus{} : slo_->status();
}

std::string OptimizerService::ExportPrometheus() const {
  return robopt::ExportPrometheus(SnapshotMetrics());
}

std::string OptimizerService::ExportTraceJson(uint64_t trace_id) const {
  return ExportChromeTrace(tracer_.Collect(trace_id));
}

void OptimizerService::WorkerLoop() {
  std::unique_lock<std::mutex> lock(worker_mu_);
  while (!stop_) {
    worker_cv_.wait_for(lock,
                        std::chrono::duration<double>(options_.worker_poll_s),
                        [this] { return stop_; });
    if (stop_) break;
    lock.unlock();
    // Trigger evaluation + (maybe) a retrain cycle; failures surface only
    // through Stats() — the worker must keep running.
    (void)RetrainNow(false);
    // Burn-rate evaluation each poll: the cached health the admission path
    // reads is at most one poll period stale.
    EvaluateSloNow();
    // Each poll closes one router load window; sustained imbalance across
    // rebalance_min_checks windows migrates cache entries between shards.
    (void)RebalanceNow();
    lock.lock();
  }
}

}  // namespace robopt
