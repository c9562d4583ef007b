// serve_mix: a multi-tenant OpenLoopSource stream (the Table-II plan pool,
// Zipf tenants, tenant affinity, ~30% feedback ops) driven through
// OptimizerService by kServeClients closed-loop clients on kServeShards
// shards.
//
// The stream runs in phases of kRetrainEvery ops — a fixed op-count
// cadence, not the wall-clock worker. In a phase the clients serve its
// optimize ops concurrently, client c the requests that route to shard c,
// each in stream order. At the phase end its feedback ops are applied in
// stream order, each to its tenant's last served plan, and RetrainNow
// drains, retrains, validates and publishes (invalidating cached plans).
// Applying feedback in stream order makes every model version, and so
// every served plan, a function of the seed alone: the read path and the
// write path are both exercised, while only their timing varies from run
// to run.
//
// A run repeats the stream in episodes, each on a fresh service over the
// set-up model, so the experience log — and the retrain cost — is the same
// in every episode. Sampled served plans, cache hits included, are
// re-optimized after each episode with a plain RoboptOptimizer over the
// snapshot of the model version that served them; plan and predicted cost
// must match bit for bit.

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <thread>
#include <unordered_map>

#include "common.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "plan/cardinality.h"
#include "plan/fingerprint.h"
#include "serve/optimizer_service.h"
#include "workload/generators.h"

namespace perfbench {

using namespace robopt;

namespace {

/// Ops in the stream (optimize and feedback together).
constexpr size_t kStreamOps = 2000;
/// Ops per phase; RetrainNow runs after each.
constexpr size_t kRetrainEvery = 500;
/// Every kVerifyEvery-th optimize of each client is verified.
constexpr size_t kVerifyEvery = 20;
/// Trees of the forests RetrainNow fits, and the duplication weight of
/// experience rows: small, so a retrain costs a fraction of a phase.
constexpr int kRetrainTrees = 3;
constexpr int kExperienceWeight = 1;
constexpr size_t kPlanCacheCapacity = 256;
/// Share of optimize ops that inject (noisy, so never repeating)
/// cardinalities. With the repeats of the rest it puts the plan-cache hit
/// ratio near 0.7: the median request is a cache hit, and the 99th
/// percentile falls well inside the misses on the largest plans rather
/// than at the edge between hits and misses.
constexpr double kCardsFraction = 0.3;
constexpr uint64_t kStreamSeed = 1;
constexpr int kTenants = 16;

ServeOptions MakeServeOptions(const FeatureSchema& schema) {
  ServeOptions options;
  options.num_shards = kServeShards;
  options.background_retrain = false;
  options.plan_cache_capacity = kPlanCacheCapacity;
  options.experience_weight = kExperienceWeight;
  options.forest.num_trees = kRetrainTrees;
  options.forest.num_threads = kForestThreads;
  options.forest.seed = kSetupModelSeed;
  options.forest.tree.max_features = static_cast<int>(schema.width() / 3);
  options.optimize.num_threads = kOptimizeThreads;
  return options;
}

/// The stream: an OpenLoopSource over the Table-II pool with a fixed
/// generator seed, so that every run serves the same plans, the same cache
/// hits and misses and the same feedback. The workload seed relabels the
/// tenants, which moves them between clients and shards, and scales the
/// inputs of the pool's plans by up to 5%. (Streams drawn
/// from the workload seed itself moved throughput and the tail by a third
/// from seed to seed: a few more misses on the largest plans dominate both.
/// The mixed pool, whose synthetic half is drawn from the stream seed,
/// moved them by a quarter.)
Status LoadStream(uint64_t seed, std::vector<WorkloadOp>* stream) {
  GeneratorOptions generator;
  generator.base.seed = kStreamSeed;
  generator.base.max_ops = kStreamOps;
  generator.base.num_tenants = kTenants;
  generator.base.tenant_zipf_s = 1.2;
  generator.feedback_fraction = 0.3;
  generator.tenant_affinity = 0.8;
  generator.cards_fraction = kCardsFraction;
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + 4);
  generator.paper_scale_gb *= 1.0 + rng.NextUniform(-0.05, 0.05);
  OpenLoopSource source(PlanPool::kPaper, generator);
  ROBOPT_RETURN_IF_ERROR(source.Load());
  std::vector<uint64_t> label(kTenants);
  for (int t = 0; t < kTenants; ++t) label[t] = static_cast<uint64_t>(t);
  for (size_t i = label.size(); i > 1; --i) {
    std::swap(label[i - 1], label[rng.NextBounded(i)]);
  }
  stream->clear();
  WorkloadOp op;
  while (source.GetNext(&op)) {
    op.tenant = label[op.tenant];
    stream->push_back(op);
  }
  if (stream->size() != kStreamOps) {
    return Status::Internal("workload stream is short");
  }
  return Status::OK();
}

std::vector<int16_t> AssignmentOf(const ExecutionPlan& plan) {
  const int n = plan.logical_plan().num_operators();
  std::vector<int16_t> assignment(static_cast<size_t>(n), -1);
  for (int id = 0; id < n; ++id) {
    assignment[static_cast<size_t>(id)] =
        static_cast<int16_t>(plan.alt_index(static_cast<OperatorId>(id)));
  }
  return assignment;
}

ExecutionPlan PlanOf(const LogicalPlan& logical,
                     const std::vector<int16_t>& assignment,
                     const PlatformRegistry& registry) {
  ExecutionPlan plan(&logical, &registry);
  for (size_t id = 0; id < assignment.size(); ++id) {
    plan.Assign(static_cast<OperatorId>(id), assignment[id]);
  }
  return plan;
}

/// One served plan kept for verification after the episode.
struct Sample {
  const WorkloadOp* op = nullptr;
  std::vector<int16_t> assignment;
  float predicted = 0.0f;
  std::shared_ptr<const ModelSnapshot> snapshot;
};

/// Everything one episode measured.
struct Episode {
  std::vector<double> ms;           ///< Client latency of each optimize.
  std::vector<double> hit_ms;
  std::vector<double> miss_ms;
  std::vector<double> overhead_us;  ///< Miss latency minus optimize time.
  std::vector<double> fingerprint_us;  ///< Traced runs only.
  std::vector<double> feedback_us;
  std::vector<double> retrain_s;
  std::vector<Sample> samples;
  /// Virtual runtime of the plans the set-up model (version 1) served.
  std::vector<double> v1_runtimes;
  uint64_t ops = 0;
  uint64_t failures = 0;
  /// Summed over clients: seconds each was busy serving its requests.
  double client_busy_s = 0.0;
  ServeStats stats;
};

/// What one client records in one phase.
struct ClientLog {
  std::vector<double> ms, hit_ms, miss_ms, overhead_us, fingerprint_us;
  std::vector<Sample> samples;
  /// Ops the set-up model (version 1) served.
  std::vector<const WorkloadOp*> served_v1;
  uint64_t failures = 0;
  uint64_t optimizes = 0;
  double busy_s = 0.0;  ///< From the phase start to the client's last reply.
};

/// Serves `ops` (optimize ops only) and records the assignment each got.
void RunClient(OptimizerService* service,
               const std::vector<const WorkloadOp*>& ops, bool trace,
               std::unordered_map<const WorkloadOp*, std::vector<int16_t>>*
                   served,
               ClientLog* log) {
  OptimizeOptions options;
  options.num_threads = kOptimizeThreads;
  Stopwatch busy;
  for (const WorkloadOp* op : ops) {
    if (trace) {
      Stopwatch fingerprint;
      const PlanFingerprint fp = FingerprintPlan(op->plan);
      log->fingerprint_us.push_back(fingerprint.ElapsedMicros());
      if (fp == PlanFingerprint()) ++log->failures;
    }
    RequestContext ctx;
    ctx.tenant = op->tenant;
    Stopwatch watch;
    auto result = service->Optimize(
        op->plan, op->has_cards ? &op->cards : nullptr, options, ctx);
    const double ms = watch.ElapsedMillis();
    ++log->optimizes;
    if (!result.ok()) {
      ++log->failures;
      continue;
    }
    log->ms.push_back(ms);
    if (result->cache_hit) {
      log->hit_ms.push_back(ms);
    } else {
      log->miss_ms.push_back(ms);
      log->overhead_us.push_back((ms - result->optimize.latency_ms) * 1000.0);
    }
    std::vector<int16_t>& assignment = (*served)[op];
    assignment = AssignmentOf(result->optimize.plan);
    if (result->optimize.model_version == 1) log->served_v1.push_back(op);
    if (log->optimizes % kVerifyEvery == 0) {
      Sample sample;
      sample.op = op;
      sample.assignment = assignment;
      sample.predicted = result->optimize.predicted_runtime_s;
      sample.snapshot =
          service->registry().Get(result->optimize.model_version);
      log->samples.push_back(std::move(sample));
    }
  }
  log->busy_s = busy.ElapsedSeconds();
}

template <typename T>
void Append(const std::vector<T>& from, std::vector<T>* to) {
  to->insert(to->end(), from.begin(), from.end());
}

StatusOr<Episode> RunEpisode(const Cluster& cluster, const MlDataset& base,
                             const std::shared_ptr<RandomForest>& model,
                             const ServeOptions& options,
                             const std::vector<WorkloadOp>& stream,
                             bool trace) {
  auto created = OptimizerService::Create(&cluster.registry, &cluster.schema,
                                          base, model, options);
  if (!created.ok()) return created.status();
  OptimizerService* service = created->get();

  Episode episode;
  // Client c issues the requests that route to shard c, so the clients
  // never queue behind each other and every request's cache history is
  // that of its own client.
  std::vector<uint32_t> client_of(stream.size(), 0);
  for (size_t i = 0; i < stream.size(); ++i) {
    if (stream[i].kind == WorkloadOpKind::kOptimize) {
      client_of[i] = service->ShardFor(stream[i].tenant, stream[i].plan);
    }
  }
  // Per tenant: the logical plan and assignment it was last served.
  std::unordered_map<uint64_t,
                     std::pair<const LogicalPlan*, std::vector<int16_t>>>
      last_served;
  for (size_t begin = 0; begin < stream.size(); begin += kRetrainEvery) {
    const size_t end = std::min(stream.size(), begin + kRetrainEvery);
    std::vector<std::vector<const WorkloadOp*>> client_ops(kServeClients);
    for (size_t i = begin; i < end; ++i) {
      if (stream[i].kind == WorkloadOpKind::kOptimize) {
        client_ops[client_of[i]].push_back(&stream[i]);
      }
    }
    // Serve: the clients run concurrently (one map each, no sharing).
    std::vector<ClientLog> logs(kServeClients);
    std::vector<std::unordered_map<const WorkloadOp*, std::vector<int16_t>>>
        served(kServeClients);
    {
      std::vector<std::thread> clients;
      for (int c = 0; c < kServeClients; ++c) {
        clients.emplace_back([&, c] {
          RunClient(service, client_ops[c], trace, &served[c], &logs[c]);
        });
      }
      for (std::thread& client : clients) client.join();
    }
    for (const ClientLog& log : logs) {
      Append(log.ms, &episode.ms);
      Append(log.hit_ms, &episode.hit_ms);
      Append(log.miss_ms, &episode.miss_ms);
      Append(log.overhead_us, &episode.overhead_us);
      Append(log.fingerprint_us, &episode.fingerprint_us);
      Append(log.samples, &episode.samples);
      episode.failures += log.failures;
      episode.client_busy_s += log.busy_s;
    }
    for (int c = 0; c < kServeClients; ++c) {
      for (const WorkloadOp* op : logs[c].served_v1) {
        const Cardinalities cards =
            op->has_cards ? op->cards
                          : CardinalityEstimator(&op->plan).Estimate();
        episode.v1_runtimes.push_back(
            cluster.cost
                .PlanCost(PlanOf(op->plan, served[c].at(op), cluster.registry),
                          cards)
                .total_s);
      }
    }
    // Feedback in stream order, to each tenant's last served plan (as
    // DriveWorkload applies generated feedback), then one retrain cycle.
    for (size_t i = begin; i < end; ++i) {
      const WorkloadOp& op = stream[i];
      ++episode.ops;
      if (op.kind == WorkloadOpKind::kOptimize) {
        const auto& in = served[client_of[i]];
        const auto it = in.find(&op);
        if (it != in.end()) last_served[op.tenant] = {&op.plan, it->second};
        continue;
      }
      // Skipped, as DriveWorkload skips it, when the tenant has been served
      // nothing yet or its cards do not cover the plan it was last served.
      const auto it = last_served.find(op.tenant);
      if (it == last_served.end()) continue;
      const LogicalPlan& logical = *it->second.first;
      const size_t n = static_cast<size_t>(logical.num_operators());
      if (op.cards.input.size() < n || op.cards.output.size() < n) continue;
      ExecResult executed;
      executed.cost.total_s = op.actual_runtime_s;
      executed.observed = op.cards;
      executed.observed.input.resize(n);
      executed.observed.output.resize(n);
      const ExecutionPlan plan =
          PlanOf(logical, it->second.second, cluster.registry);
      Stopwatch watch;
      service->OnExecution(plan, executed);
      episode.feedback_us.push_back(watch.ElapsedMicros());
    }
    Stopwatch retrain;
    auto outcome = service->RetrainNow(/*force=*/true);
    if (!outcome.ok()) return outcome.status();
    episode.retrain_s.push_back(retrain.ElapsedSeconds());
  }
  episode.stats = service->Stats();
  return episode;
}

/// Re-optimizes each sample with a plain optimizer over the snapshot that
/// served it; plan and predicted cost must match bit for bit.
void VerifySamples(const Cluster& cluster, const Episode& episode,
                   Report* report) {
  OptimizeOptions options;
  options.num_threads = kOptimizeThreads;
  for (const Sample& sample : episode.samples) {
    bool same = sample.snapshot != nullptr;
    if (same) {
      const RoboptOptimizer direct(&cluster.registry, &cluster.schema,
                                   &sample.snapshot->oracle());
      const WorkloadOp& op = *sample.op;
      auto result = direct.Optimize(
          op.plan, op.has_cards ? &op.cards : nullptr, options);
      same = result.ok() && AssignmentOf(result->plan) == sample.assignment &&
             std::bit_cast<uint32_t>(result->predicted_runtime_s) ==
                 std::bit_cast<uint32_t>(sample.predicted);
    }
    report->Check(same, "served plan differs from a direct optimize");
  }
}

}  // namespace

int RunServeMix(const Args& args, Report* report) {
  const Cluster cluster;
  std::vector<WorkloadOp> stream;
  double load_s = 0.0;
  Status loaded;
  auto setup = BuildSetupModel(cluster, [&] {
    Stopwatch watch;
    loaded = LoadStream(args.seed, &stream);
    load_s = watch.ElapsedSeconds();
  });
  if (!setup.ok() || !loaded.ok()) {
    std::fprintf(stderr, "set-up failed: %s\n",
                 (setup.ok() ? loaded : setup.status()).ToString().c_str());
    return 1;
  }
  const std::shared_ptr<RandomForest> model = std::move(setup->build.forest);
  const ServeOptions options = MakeServeOptions(cluster.schema);

  // Request latency and throughput pool the fastest quarter of the
  // episodes by throughput (see FastestQuarter; every episode serves the
  // same requests); the rest pools all episodes. The typical latency is the
  // geometric mean over requests: hits take microseconds and misses
  // milliseconds, and a median would jump between the two.
  struct Timed {
    double qps;
    double busy_s;
    std::vector<double> ms;
  };
  std::vector<Timed> timed;
  Episode pooled;
  std::vector<double> imbalance;
  uint64_t hits = 0, lookups = 0, sheds = 0, dropped = 0;
  uint64_t retrains = 0, promotions = 0, invalidations = 0;
  int episodes = 0;
  const double start = NowSeconds();
  do {
    auto episode = RunEpisode(cluster, setup->build.data, model, options,
                              stream, args.trace);
    if (!episode.ok()) {
      std::fprintf(stderr, "episode failed: %s\n",
                   episode.status().ToString().c_str());
      return 1;
    }
    ++episodes;
    report->Attempt(episode->ops);
    for (uint64_t i = 0; i < episode->failures; ++i) {
      report->Fail("request failed or was shed");
    }
    VerifySamples(cluster, *episode, report);
    for (double runtime : episode->v1_runtimes) {
      report->Check(std::isfinite(runtime) && runtime > 0.0,
                    "served plan does not run");
    }
    // Requests per second of a client's busy time, times the clients: how
    // the shards split the stream between the clients does not enter.
    timed.push_back({static_cast<double>(episode->ms.size()) * kServeClients /
                         episode->client_busy_s,
                     episode->client_busy_s, std::move(episode->ms)});
    Append(episode->hit_ms, &pooled.hit_ms);
    Append(episode->miss_ms, &pooled.miss_ms);
    Append(episode->overhead_us, &pooled.overhead_us);
    Append(episode->fingerprint_us, &pooled.fingerprint_us);
    Append(episode->feedback_us, &pooled.feedback_us);
    Append(episode->retrain_s, &pooled.retrain_s);
    Append(episode->v1_runtimes, &pooled.v1_runtimes);
    const ServeStats& stats = episode->stats;
    hits += stats.plan_cache.hits;
    lookups += stats.plan_cache.hits + stats.plan_cache.misses;
    invalidations += stats.plan_cache.invalidations;
    sheds += stats.shard_shed_queue_full + stats.shard_shed_deadline +
             stats.shard_shed_slo;
    dropped += stats.feedback.dropped;
    retrains += stats.retrains;
    promotions += stats.promotions;
    double max_processed = 0.0;
    double sum_processed = 0.0;
    for (const ShardStats& shard : stats.shards) {
      max_processed =
          std::max(max_processed, static_cast<double>(shard.processed));
      sum_processed += static_cast<double>(shard.processed);
    }
    imbalance.push_back(max_processed *
                        static_cast<double>(stats.shards.size()) /
                        sum_processed);
  } while (NowSeconds() - start < args.seconds);
  std::fprintf(stderr, "[perfbench] %d episodes of %zu optimize calls\n",
               episodes, pooled.hit_ms.size() / episodes +
                             pooled.miss_ms.size() / episodes);

  if (!args.trace) {
    std::sort(timed.begin(), timed.end(),
              [](const Timed& a, const Timed& b) { return a.qps > b.qps; });
    std::vector<double> fast_ms;
    double fast_busy_s = 0.0;
    for (size_t i = 0; i < FastestQuarter(timed.size()); ++i) {
      Append(timed[i].ms, &fast_ms);
      fast_busy_s += timed[i].busy_s;
    }
    report->Set("setup_s", Median(setup->setup_s), "s");
    report->Set("peak_rss_mb", PeakRssMb(), "MB");
    report->Set("latency_ms_gmean", GeoMean(fast_ms), "ms");
    report->Set("latency_ms_p99", Quantile(fast_ms, 0.99), "ms");
    report->Set("throughput_per_s",
                static_cast<double>(fast_ms.size()) * kServeClients /
                    fast_busy_s,
                "1/s");
    report->Set("plan_runtime_s_gmean", GeoMean(pooled.v1_runtimes), "s");
    report->Set("model_holdout_r2", setup->build.holdout.r2, "ratio");
    report->Set("model_holdout_spearman", setup->build.holdout.spearman,
                "ratio");
    return 0;
  }
  const double per_episode = 1.0 / episodes;
  std::map<std::string, double> m;
  m["plan.fingerprint_us"] = Median(pooled.fingerprint_us);
  m["serve.hit_ms_p50"] = Median(pooled.hit_ms);
  m["serve.miss_ms_p50"] = Median(pooled.miss_ms);
  m["serve.overhead_us_p50"] = Median(pooled.overhead_us);
  m["serve.plan_cache_hit_ratio"] =
      static_cast<double>(hits) / static_cast<double>(lookups);
  m["serve.shard_imbalance"] = Median(imbalance);
  m["serve.sheds"] = static_cast<double>(sheds) * per_episode;
  m["serve.feedback_us"] = Median(pooled.feedback_us);
  m["serve.feedback_dropped"] = static_cast<double>(dropped) * per_episode;
  m["serve.retrain_s"] = Median(pooled.retrain_s);
  m["serve.retrains"] = static_cast<double>(retrains) * per_episode;
  m["serve.promotions"] = static_cast<double>(promotions) * per_episode;
  m["serve.invalidations"] = static_cast<double>(invalidations) * per_episode;
  m["workload.load_s"] = load_s;
  AddBuildLayers(setup->build, &m);
  SetPerLayer(m, report);
  return 0;
}

}  // namespace perfbench
