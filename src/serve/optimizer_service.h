#ifndef ROBOPT_SERVE_OPTIMIZER_SERVICE_H_
#define ROBOPT_SERVE_OPTIMIZER_SERVICE_H_

#include <chrono>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "core/optimizer.h"
#include "exec/executor.h"
#include "exec/platform_health.h"
#include "obs/decision.h"
#include "obs/metrics.h"
#include "obs/sketch.h"
#include "obs/slo.h"
#include "obs/trace.h"
#include "serve/feedback.h"
#include "serve/model_registry.h"
#include "serve/plan_cache.h"
#include "serve/shard_router.h"
#include "tdgen/experience.h"

namespace robopt {

/// One served Optimize() call, as seen by a RequestObserver: the request
/// (tenant, plan, injected cardinalities, the hash of the caller's
/// options) and its outcome (shed/failed status, cache hit, prediction,
/// serving model version, per-operator assignment). Pointers borrow the
/// caller's arguments and are valid only for the duration of the
/// OnRequest() call; `optimized` is null when the call did not produce a
/// plan (shed or failed).
struct ServedRequest {
  uint64_t tenant = 0;
  const LogicalPlan* plan = nullptr;
  const Cardinalities* cards = nullptr;
  /// PlanCache::HashOptions of the options the caller passed (pre
  /// breaker-masking) — what a faithful re-drive would hash too.
  uint64_t options_hash = 0;
  /// Canonical plan fingerprint (the routing and cache key). Always set:
  /// every call is routed, so observers never re-fingerprint.
  uint64_t fp_lo = 0;
  uint64_t fp_hi = 0;
  StatusCode status = StatusCode::kOk;
  bool cache_hit = false;
  float predicted_runtime_s = 0.0f;
  uint64_t model_version = 0;
  uint8_t chosen_platform = 0;
  const ExecutionPlan* optimized = nullptr;
};

/// Hook into the serving hot paths: every Optimize() reports a
/// ServedRequest, every accepted execution feedback reports the executed
/// plan and its measured result. The workload layer's TraceRecorder
/// implements this to capture production traffic for later replay
/// (mirroring how ExecutionObserver feeds the retrain loop). Observers are
/// called concurrently from every serving thread and must be thread-safe;
/// they run inline on the request path, so implementations buffer and get
/// out of the way.
class RequestObserver {
 public:
  virtual ~RequestObserver() = default;

  virtual void OnRequest(const ServedRequest& request) = 0;

  /// One accepted feedback event (after the service's own finite /
  /// fully-assigned screening — the trace sees exactly what the retrain
  /// loop saw).
  virtual void OnFeedback(const ExecutionPlan& plan,
                          const ExecResult& result) {
    (void)plan;
    (void)result;
  }

  /// Mirrors the observer's counters into the service registry; called
  /// from SnapshotMetrics() like the other derived-gauge sources.
  virtual void ExportTo(MetricsRegistry* registry) { (void)registry; }
};

/// Per-query decision diagnostics ("query explain"): every served call
/// assembles a DecisionRecord — shard routed, cache hit/miss cause, shed
/// reason, breaker/exclusion masks, model version, enumeration/prune
/// counts, predicted cost and the top-k runner-up plans — into a bounded
/// lock-free recent-queries ring, exportable as JSON.
/// Served plans and every stat are bit-identical with diagnostics on or
/// off (the runner-up selection reuses the final getOptimal cost batch).
struct DiagnosticsOptions {
  bool enabled = false;
  /// Recent-queries ring capacity (rounded up to a power of two).
  size_t ring_capacity = 1024;
  /// Runner-up plans recorded per decision (capped at kDecisionRunners).
  size_t top_k_runners = kDecisionRunners;
};

/// SLO burn-rate engine over served Optimize() latencies: a sliding-window
/// DDSketch tracks end-to-end latency (queue included), declarative
/// objectives evaluate fast/slow multi-window burn rates, and the cached
/// health state feeds back into sharded admission — under critical burn
/// the service tightens request deadlines and the effective queue bound,
/// preferring early shedding over serving doomed tail requests.
struct ServeSloOptions {
  bool enabled = false;
  /// Objectives to evaluate; empty gets the default SloObjective.
  std::vector<SloObjective> objectives;
  /// Latency sketch shape (see WindowedSketch::Options).
  double sketch_window_s = 60.0;
  size_t sketch_windows = 64;
  double sketch_alpha = 0.01;
  size_t exemplars_per_window = 4;
  /// Under critical burn, the effective admission deadline becomes
  /// deadline * this factor (only meaningful with a deadline configured).
  double critical_deadline_factor = 0.5;
  /// Under critical burn, the effective shard queue bound becomes
  /// max(1, floor(capacity * this factor)).
  double critical_queue_factor = 0.5;
  /// Injectable clock (seconds, any monotone origin) driving sketch
  /// rotation and burn evaluation. Null (default) uses the service's
  /// steady clock. Tests and replays pin this for determinism.
  std::function<double()> clock;
};

/// Configuration of the serving layer.
struct ServeOptions {
  /// Bounded feedback queue between executors and the retrain worker.
  size_t feedback_capacity = 4096;
  /// Size trigger: a retrain fires once this many new events reached the
  /// experience log since the last training run.
  size_t retrain_min_events = 64;
  /// Time trigger in seconds (0 = size trigger only): retrain whenever this
  /// much time passed since the last run and at least one new event landed.
  double retrain_interval_s = 0.0;
  /// Promotion rule: the candidate's holdout MAE (log-space) must satisfy
  /// candidate <= incumbent * (1 + promote_tolerance). Negative values
  /// demand strict improvement.
  double promote_tolerance = 0.10;
  /// What a retrain cycle does when the holdout is empty (holdout_fraction
  /// and holdout_every both zero, or no feedback routed yet) and the MAE
  /// comparison is therefore meaningless: false (default) rejects the
  /// candidate, true publishes it *unvalidated* with NaN MAE recorded —
  /// the same contract as PublishExternal. Either way the cycle reports
  /// validated = false instead of silently passing a vacuous 0 <= 0 check.
  bool promote_unvalidated = false;
  /// Fraction of the base (TDGEN) dataset carved off as the holdout split.
  double holdout_fraction = 0.1;
  uint64_t holdout_seed = 17;
  /// Every holdout_every-th drained feedback event joins the holdout set
  /// instead of the training log, so validation tracks the live workload
  /// too (0 = base-only holdout).
  size_t holdout_every = 5;
  /// Duplication weight of experience rows in retraining
  /// (ExperienceLog::Retrain).
  int experience_weight = 4;
  /// Hyper-parameters of retrained candidate forests (also used when the
  /// service trains v1 itself).
  RandomForest::Params forest;
  /// Plan-cache entries (0 disables the cache).
  size_t plan_cache_capacity = 256;
  /// EWMA smoothing factor of the per-version drift stats.
  double drift_alpha = 0.1;
  /// Model versions kept addressable after replacement.
  size_t model_history = 8;
  /// Spawn the background RetrainWorker thread. Tests that want
  /// deterministic cycles set this false and call RetrainNow().
  bool background_retrain = true;
  /// Worker poll period between trigger checks, in seconds.
  double worker_poll_s = 0.05;
  /// Circuit-breaker thresholds of the service-owned PlatformHealth
  /// registry (consecutive-failure trip threshold, cooldown in virtual
  /// seconds). Executors that should feed the breakers set
  /// ExecutorOptions::health = service->health().
  BreakerOptions breaker;
  /// Turn on the service-owned observability plane: every Optimize() call
  /// records metrics into metrics() and a span tree into tracer() (unless
  /// the caller's OptimizeOptions already carry obs sinks, which win).
  /// Export through ExportPrometheus() / ExportTraceJson(). Off by default;
  /// served plans and stats are bit-identical either way.
  bool observability = false;
  /// Span-ring capacity of the service-owned Tracer (rounded up to a power
  /// of two; oldest spans are overwritten when it wraps).
  size_t trace_capacity = 8192;

  // --- Sharded serving (thread-per-core) ---

  /// Number of independent serving shards, mirroring the num_threads
  /// convention: 0 (the default) resolves to one shard per hardware core,
  /// n is exactly n shards. There is one serving path for every n: each
  /// shard owns its own PlanCache slice, pinned-model handle and bounded
  /// admission queue, and a lock-free router hashes
  /// (tenant, canonical plan fingerprint) to a shard so repeat queries land
  /// on their warm cache. n = 1 is that path with one shard: one serving
  /// executor, so concurrent callers queue and may be shed past
  /// shard_queue_capacity. Served plans are bit-identical across every
  /// shard count.
  int num_shards = 0;
  /// Bound of each shard's admission queue: at most this many requests may
  /// be outstanding (waiting + executing) per shard. Beyond it, Optimize()
  /// sheds with kResourceExhausted instead of queueing unboundedly.
  size_t shard_queue_capacity = 64;
  /// Default request deadline in seconds, used when the caller's
  /// RequestContext carries none (0 = no deadline: requests shed only on a
  /// full queue). A request is shed with kResourceExhausted when its
  /// estimated queue delay — (queue depth + 1) times the shard's EWMA
  /// service time — exceeds the deadline.
  double default_deadline_s = 0.0;
  /// Router slot-table size (rounded up to a power of two). More slots =
  /// finer-grained migration; each slot is one atomic word.
  size_t router_slots = 256;
  /// Sustained-imbalance trigger of slot migration: the hottest shard must
  /// exceed rebalance_imbalance_factor times the per-shard average load for
  /// rebalance_min_checks consecutive observation windows (one window per
  /// worker poll / RebalanceNow call) before cache entries move.
  double rebalance_imbalance_factor = 2.0;
  int rebalance_min_checks = 3;

  /// Request/feedback tap (trace recording). Not owned; must outlive the
  /// service. Null (the default) costs the hot paths nothing.
  RequestObserver* request_observer = nullptr;

  /// Per-query decision diagnostics (recent-queries ring). Off by default.
  DiagnosticsOptions diagnostics;
  /// Latency SLO engine wired into admission control. Off by default.
  ServeSloOptions slo;

  /// Default per-call optimize options.
  OptimizeOptions optimize;
};

/// Per-request serving context. The tenant joins the plan fingerprint in
/// the routing hash, so one tenant's repeat queries stay on one warm shard
/// without interleaving with another tenant's identical plans.
struct RequestContext {
  uint64_t tenant = 0;
  /// Deadline budget in seconds for admission control: 0 defers to
  /// ServeOptions::default_deadline_s, negative means explicitly no
  /// deadline.
  double deadline_s = 0.0;
};

/// What one RetrainNow()/worker cycle did.
struct RetrainOutcome {
  bool triggered = false;  ///< A candidate was trained this cycle.
  bool promoted = false;
  /// True when the candidate was scored against a non-empty holdout. False
  /// means the MAE fields are NaN and the promote decision followed
  /// ServeOptions::promote_unvalidated, not the tolerance rule.
  bool validated = false;
  uint64_t version = 0;        ///< The promoted version (when promoted).
  double candidate_mae = 0.0;  ///< Holdout MAE (log-space) of the candidate.
  double incumbent_mae = 0.0;  ///< Same holdout, current model.
  size_t holdout_rows = 0;
  size_t experience_rows = 0;  ///< Training log size at candidate time.
};

/// Fault-recovery counters (the re-optimize-on-failure path).
struct RecoveryStats {
  /// OnExecutionFailure calls observed (injected faults, breaker fast-fails,
  /// retries-exhausted — one per failed Execute).
  uint64_t failures_observed = 0;
  uint64_t breaker_trips = 0;       ///< Closed/half-open -> open transitions.
  uint64_t breaker_recoveries = 0;  ///< Half-open -> closed transitions.
  /// Optimize calls that ran with at least one platform masked out because
  /// its breaker was open (the fallback re-optimizations).
  uint64_t masked_optimizes = 0;
  /// Plan-cache entries dropped because their plan routed through a platform
  /// whose breaker tripped.
  uint64_t plans_invalidated_on_trip = 0;
  /// Platforms whose breaker is open right now (bit i = platform id i).
  uint64_t open_platform_mask = 0;

  /// Mirrors this struct into robopt_recovery_* gauges (Set — idempotent;
  /// the struct stays the source of truth).
  void ExportTo(MetricsRegistry* registry) const;
};

/// Counters of one serving shard.
struct ShardStats {
  uint64_t processed = 0;        ///< Requests served through the shard.
  uint64_t shed_queue_full = 0;  ///< Rejected: admission queue at capacity.
  uint64_t shed_deadline = 0;    ///< Rejected: estimated delay > deadline.
  /// Rejected only because critical SLO burn tightened the deadline or the
  /// queue bound (the request would have been admitted untightened).
  uint64_t shed_slo = 0;
  uint64_t queue_depth = 0;      ///< Outstanding admitted requests, now.
  uint64_t routed = 0;           ///< Requests the router sent here.
  double ewma_service_s = 0.0;   ///< Smoothed in-shard service time.
  PlanCacheStats plan_cache;     ///< This shard's cache slice.
};

/// Aggregate serving counters.
struct ServeStats {
  uint64_t current_version = 0;
  size_t versions_published = 0;
  size_t retrains = 0;    ///< Candidates trained.
  size_t promotions = 0;  ///< Candidates published.
  size_t rejections = 0;  ///< Candidates that failed validation.
  size_t experience_rows = 0;
  size_t holdout_rows = 0;
  /// Resolved shard count (ServeOptions::num_shards, 0 resolved).
  int num_shards = 1;
  /// Per-shard counters, one entry per shard (also at num_shards 1).
  std::vector<ShardStats> shards;
  /// Totals across shards.
  uint64_t shard_processed = 0;
  uint64_t shard_shed_queue_full = 0;
  uint64_t shard_shed_deadline = 0;
  uint64_t shard_shed_slo = 0;
  uint64_t shard_queue_depth = 0;
  uint64_t router_rebalances = 0;   ///< Migration decisions applied.
  uint64_t router_slots_moved = 0;  ///< Slot reassignments applied.
  FeedbackStats feedback;
  /// Sum of every shard's cache slice (the migrated_in/out fields carry
  /// the cache-entry migration counters).
  PlanCacheStats plan_cache;
  DriftStats current_drift;  ///< Drift of the current version.
  RecoveryStats recovery;

  /// Mirrors the whole aggregate — robopt_serve_* gauges plus the nested
  /// feedback / plan-cache / drift / recovery structs' hooks — into the
  /// registry. The structs stay the source of truth; every gauge is Set
  /// (derived, idempotent), so exporters may call this at any cadence.
  void ExportTo(MetricsRegistry* registry) const;
};

/// The optimizer as a long-lived concurrent service with a model lifecycle:
///
///   - a versioned ModelRegistry serves Optimize() calls through an
///     RCU-style atomic hot swap — in-flight calls keep their pinned model
///     version while a new one is published;
///   - a FeedbackCollector (bounded MPSC queue) absorbs Executor results
///     (plan vector + measured runtime) via the ExecutionObserver hook;
///   - a background RetrainWorker drains feedback into the thread-safe
///     ExperienceLog and, on a size/time trigger, retrains via
///     ExperienceLog::Retrain, validates the candidate on a holdout split,
///     promotes only if MAE does not regress beyond the tolerance, and
///     records per-version drift (predicted-vs-actual error EWMA);
///   - the service runs thread-per-core style over N shards (N = resolved
///     num_shards; a single shard is the same path with N = 1): a
///     lock-free ShardRouter hashes (tenant, canonical plan fingerprint) to
///     one shard, which owns a PlanCache slice serving repeat queries in
///     O(plan size), a pinned-model handle and a bounded admission queue
///     with deadline-based shedding. Model promotions fan out through
///     per-shard version checks on request entry (stale cache entries die
///     by their version tag) — no stop-the-world. Breaker trips
///     reach every shard's cache eagerly from OnExecutionFailure, with a
///     per-shard trip-epoch check on request entry as the backstop. See
///     DESIGN.md, "Sharded serving & load shedding".
///
/// Thread-safe throughout: any number of threads may call Optimize() and
/// Execute() (with this service as the executor's observer) concurrently
/// with the retrain worker.
class OptimizerService : public ExecutionObserver {
 public:
  /// Builds a service over `base` (the TDGEN bootstrap set). `initial`
  /// becomes version 1; when null, the service trains v1 itself on the
  /// non-holdout part of `base` with `options.forest`. Fails if there is
  /// nothing to train on and no initial model was given.
  static StatusOr<std::unique_ptr<OptimizerService>> Create(
      const PlatformRegistry* registry, const FeatureSchema* schema,
      MlDataset base, std::shared_ptr<RandomForest> initial = nullptr,
      ServeOptions options = {});

  ~OptimizerService() override;

  OptimizerService(const OptimizerService&) = delete;
  OptimizerService& operator=(const OptimizerService&) = delete;

  /// One served optimization.
  struct Result {
    OptimizeResult optimize;  ///< model_version is always set.
    bool cache_hit = false;
  };

  /// Optimizes `plan` on the current model version. Safe to call from any
  /// number of threads, including while a promotion is in flight — the
  /// whole call sees one consistent model. A call may be shed with
  /// kResourceExhausted (full shard queue, or estimated queue delay past
  /// the request deadline); plans that are served are bit-identical across
  /// shard counts.
  StatusOr<Result> Optimize(const LogicalPlan& plan,
                            const Cardinalities* cards = nullptr);
  StatusOr<Result> Optimize(const LogicalPlan& plan,
                            const Cardinalities* cards,
                            const OptimizeOptions& options);
  StatusOr<Result> Optimize(const LogicalPlan& plan,
                            const Cardinalities* cards,
                            const OptimizeOptions& options,
                            const RequestContext& ctx);

  /// ExecutionObserver: encodes the executed plan under its observed
  /// cardinalities and offers (features, predicted, actual) to the
  /// feedback queue. Non-finite runtimes (OOM) are skipped — mirroring the
  /// paper, which has no logs for failed plans (TDGEN's failure penalty
  /// covers them synthetically).
  void OnExecution(const ExecutionPlan& plan,
                   const ExecResult& result) override;

  /// ExecutionObserver: counts the failure in the feedback stats and, when
  /// the failure tripped a circuit breaker, drops every cached plan that
  /// routes through the now-dead platform from every shard before
  /// returning — Stats() counts the invalidation at once, and the next
  /// Optimize() of those queries re-plans with the platform masked out of
  /// enumeration.
  void OnExecutionFailure(const ExecutionPlan& plan,
                          const FailureReport& report) override;

  /// Runs one synchronous drain / retrain / validate / publish cycle (the
  /// worker's body). `force` trains even if no trigger fired (tests).
  StatusOr<RetrainOutcome> RetrainNow(bool force = false);

  /// Publishes an externally trained model out-of-band (ops push). Skips
  /// holdout validation — the snapshot records NaN MAE. Cached plans of
  /// older versions stop serving (version-tagged). Returns the new version.
  uint64_t PublishExternal(std::shared_ptr<RandomForest> forest);

  /// One imbalance check + (when warranted) one slot migration: closes the
  /// router's load window, and on sustained imbalance retargets the chosen
  /// slots to the coldest shard and moves their cache entries over in two
  /// phases (count, then payload exchange). Called periodically by the
  /// background worker; public so tests and benches without a worker can
  /// drive it. Returns the number of cache entries migrated (0 when
  /// balanced or with one shard). Safe to call concurrently with serving.
  size_t RebalanceNow();

  /// The shard (tenant, plan) routes to right now.
  /// Fingerprints the plan; touches no load counters. Benches use this to
  /// build shard-affine workloads.
  uint32_t ShardFor(uint64_t tenant, const LogicalPlan& plan) const;

  /// Resolved shard count (ServeOptions::num_shards, 0 resolved).
  int num_shards() const { return static_cast<int>(shards_.size()); }

  const ModelRegistry& registry() const { return models_; }
  const FeatureSchema& schema() const { return *schema_; }
  ServeStats Stats() const;

  /// The service-owned circuit-breaker registry. Wire it into executors via
  /// ExecutorOptions::health so their successes/failures drive the breaker
  /// state that Optimize() masks on.
  PlatformHealth* health() { return &health_; }

  /// The service-owned metrics registry / span tracer. Always constructed;
  /// the hot paths only write into them when ServeOptions::observability is
  /// set (or when a caller passes them explicitly via ObsOptions).
  MetricsRegistry* metrics() { return &metrics_; }
  Tracer* tracer() { return &tracer_; }

  /// Prefilled per-call observability sinks (empty when observability is
  /// off). Hand this to ExecutorOptions::obs so executions land in the same
  /// metrics registry and trace ring as the optimizer's spans.
  ObsOptions obs();

  /// Point-in-time snapshot of every metric, with the derived-gauge mirrors
  /// (ServeStats / breaker state / SLO burn / sketch quantiles) refreshed
  /// first.
  MetricsSnapshot SnapshotMetrics() const;
  /// Prometheus text exposition (0.0.4) of SnapshotMetrics().
  std::string ExportPrometheus() const;
  /// Chrome trace_event JSON of the span ring (chrome://tracing / Perfetto);
  /// `trace_id` filters to one query's tree (0 = everything retained).
  std::string ExportTraceJson(uint64_t trace_id = 0) const;

  // --- Diagnostics & SLO (ServeOptions::diagnostics / ::slo) ---

  /// The most recent decision records, oldest first (empty with
  /// diagnostics off). `max_records` 0 = everything retained.
  std::vector<DecisionRecord> RecentDecisions(size_t max_records = 0) const;
  /// JSON array of RecentDecisions() — the "explain recent queries" wire
  /// shape.
  std::string ExportDecisionsJson(size_t max_records = 0) const;

  /// Re-evaluates every SLO objective now (no-op with the SLO off). The
  /// background worker calls this each poll; tests and replay drivers call
  /// it explicitly between batches.
  void EvaluateSloNow();
  /// Cached aggregate SLO health (kOk with the SLO off) — what sharded
  /// admission reads.
  SloHealth slo_health() const;
  /// Full per-objective status from the last evaluation.
  SloStatus slo_status() const;
  /// Latency padding in micros added to every *recorded* latency (sketch
  /// only — served requests are unaffected). Test/chaos hook: degrades the
  /// observed distribution to trip burn rates deterministically.
  void set_slo_inject_latency_us(double us) {
    slo_inject_latency_us_.store(us, std::memory_order_relaxed);
  }
  /// The latency sketch behind the SLO engine (null when the SLO is off).
  const WindowedSketch* latency_sketch() const {
    return latency_sketch_.get();
  }

 private:
  struct Shard;

  /// Decision breadcrumbs the serving path deposits for the choke point's
  /// observer, SLO and decision-record assembly.
  struct DecisionScratch {
    PlanFingerprint fp;
    uint32_t shard = 0;
    ShedReason shed = ShedReason::kNone;
    bool cache_enabled = false;
    PlanCacheMissCause cache_cause = PlanCacheMissCause::kNone;
    bool cache_untransferable = false;
    uint64_t open_mask = 0;
    uint64_t excluded_mask = 0;
  };

  OptimizerService(const PlatformRegistry* registry,
                   const FeatureSchema* schema, ServeOptions options);

  /// The serving path: fingerprint, route, admit/shed, then run
  /// serialized on the shard. `start` is the call's arrival time.
  StatusOr<Result> OptimizeSharded(const LogicalPlan& plan,
                                   const Cardinalities* cards,
                                   const OptimizeOptions& caller_options,
                                   const RequestContext& ctx,
                                   std::chrono::steady_clock::time_point start,
                                   DecisionScratch* scratch);
  /// The in-window shard body (caller holds the shard's ticket turn):
  /// epoch checks, cache lookup, optimize, insert.
  StatusOr<Result> RunOnShard(Shard& shard, uint32_t slot,
                              const LogicalPlan& plan,
                              const Cardinalities* cards,
                              const OptimizeOptions& caller_options,
                              const PlanCacheKey& route_key,
                              const CanonicalOrder& canonical,
                              std::chrono::steady_clock::time_point start,
                              DecisionScratch* scratch);
  /// Seconds on the SLO clock (ServeSloOptions::clock, or the service's
  /// steady clock since construction).
  double SloNow() const;

  /// Moves queued feedback into drift stats, the holdout set and the
  /// experience log. Caller holds retrain_mu_.
  void DrainFeedbackLocked();
  /// Reconciles breaker trips with one shard's cache slice: any platform
  /// whose trip count grew since the shard last reconciled has its cached
  /// plans invalidated. Called for every shard from OnExecutionFailure
  /// (eager) and for its own shard on request entry when the trip epoch
  /// moved (lazy backstop for trips fed straight into health()).
  void ReconcileTrips(Shard& shard);
  /// Consistent copy of the holdout set.
  MlDataset HoldoutSnapshot() const;
  /// options_.forest, training into the service's own metrics and trace
  /// ring when observability is on and the caller set no sinks of its own.
  RandomForest::Params ForestParams();
  void WorkerLoop();

  const PlatformRegistry* registry_;
  const FeatureSchema* schema_;
  const ServeOptions options_;

  ModelRegistry models_;
  FeedbackCollector collector_;
  ExperienceLog experience_;

  /// Serving state: one router and the resolved number of shards (>= 1).
  std::unique_ptr<ShardRouter> router_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::mutex rebalance_mu_;  ///< Serializes RebalanceNow (single consumer).

  MlDataset base_train_;  ///< Immutable after Create().
  mutable std::mutex holdout_mu_;
  MlDataset holdout_;

  std::mutex retrain_mu_;  ///< Serializes retrain cycles + drain state.
  size_t events_since_train_ = 0;
  size_t drain_seq_ = 0;
  std::chrono::steady_clock::time_point last_train_;

  mutable std::mutex counter_mu_;
  size_t retrains_ = 0;
  size_t promotions_ = 0;
  size_t rejections_ = 0;

  /// Diagnostics & SLO plane (null unless the respective option is on).
  /// The ring and sketch are internally synchronized; mutable because the
  /// const snapshot/export paths rotate windows and re-evaluate burn.
  mutable std::unique_ptr<DecisionRing> decisions_;
  mutable std::unique_ptr<WindowedSketch> latency_sketch_;
  mutable std::unique_ptr<SloEngine> slo_;
  std::atomic<double> slo_inject_latency_us_{0.0};
  std::chrono::steady_clock::time_point service_epoch_;

  /// Internally synchronized; mutable because even read paths (Stats) may
  /// apply the lazy open -> half-open transition.
  mutable PlatformHealth health_;
  /// Service-owned observability plane. Mutable: snapshot/export paths
  /// refresh derived gauges; both types are internally synchronized.
  mutable MetricsRegistry metrics_;
  mutable Tracer tracer_;
  mutable std::mutex recovery_mu_;  ///< Guards the recovery counters below.
  uint64_t failures_observed_ = 0;
  uint64_t masked_optimizes_ = 0;
  uint64_t plans_invalidated_on_trip_ = 0;

  std::mutex worker_mu_;
  std::condition_variable worker_cv_;
  bool stop_ = false;
  std::thread worker_;
};

}  // namespace robopt

#endif  // ROBOPT_SERVE_OPTIMIZER_SERVICE_H_
