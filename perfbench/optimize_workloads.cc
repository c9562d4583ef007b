// paper_suite and synthetic_scale: one closed-loop client calling
// RoboptOptimizer::Optimize over a fixed set of plans, round after round.
//
// Untraced, a run reports latency per call and the virtual runtime of the
// chosen plans. Traced, every round alternates an untraced Optimize with a
// traced call that builds the EnumerationContext and runs the
// PriorityEnumerator itself, with a timing decorator around the forest
// oracle and the OptimizeProfile filled, so core time splits into phases.

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <functional>
#include <ctime>

#include "common.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "core/linear_oracle.h"
#include "core/optimizer.h"
#include "workload/generators.h"
#include "workloads/synthetic.h"

namespace perfbench {

using namespace robopt;

namespace {

/// Plans with at most this many exhaustive plan vectors are also checked
/// against a brute-force minimum (pruning must be lossless).
constexpr double kExhaustiveLimit = 20000;
constexpr uint64_t kLinearOracleSeed = 7;
/// Length of the time slices an untraced run is cut into (see the
/// end-to-end metrics below).
constexpr double kSliceSeconds = 1.0;

/// Query names of MakePaperPlanPool, in pool order.
const char* const kPaperNames[] = {"WordCount", "Word2NVec", "SimWords",
                                   "TPC-H Q1",  "TPC-H Q3",  "Aggregate",
                                   "Join",      "K-means",   "SGD",
                                   "CrocoPR"};

/// Input scales of paper_suite, in GB: below, around and above the scale
/// where the chosen plans move from the single-node Java platform to Spark.
const double kPaperScalesGb[] = {0.05, 2.0, 20.0};

const int kPipelineOps[] = {40, 80, 160, 240};
const int kJoinTreeJoins[] = {4, 8, 16};
constexpr double kSyntheticCardinality = 1e7;
/// Generator seed of the synthetic plans (the one bench_fig09 uses), fixed
/// so that the plan structure, and with it the enumeration work, is the
/// same for every workload seed.
constexpr uint64_t kSyntheticPlanSeed = 3;

struct Item {
  std::string name;
  LogicalPlan plan;
  Cardinalities cards;
  float predicted = 0.0f;       ///< From the check pass.
  double plan_runtime_s = 0.0;  ///< VirtualCost of the chosen plan.
};

/// Multiplicative jitter in [1 - 0.05, 1 + 0.05) drawn from `rng`: the
/// workload seed perturbs input sizes without moving the workload off its
/// regime.
double Jitter(Rng* rng) { return 1.0 + rng->NextUniform(-0.05, 0.05); }

std::vector<Item> MakePaperItems(uint64_t seed) {
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + 1);
  std::vector<Item> items;
  for (double scale : kPaperScalesGb) {
    std::vector<LogicalPlan> pool = MakePaperPlanPool(scale * Jitter(&rng));
    for (size_t i = 0; i < pool.size(); ++i) {
      Item item;
      char scale_name[32];
      std::snprintf(scale_name, sizeof(scale_name), "@%gGB", scale);
      item.name = kPaperNames[i] + std::string(scale_name);
      item.plan = std::move(pool[i]);
      items.push_back(std::move(item));
    }
  }
  return items;
}

std::vector<Item> MakeSyntheticItems(uint64_t seed) {
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + 2);
  std::vector<Item> items;
  for (int ops : kPipelineOps) {
    Item item;
    item.name = "Synthetic " + std::to_string(ops);
    item.plan = MakeSyntheticPipeline(
        ops, kSyntheticCardinality * Jitter(&rng), kSyntheticPlanSeed);
    items.push_back(std::move(item));
  }
  for (int joins : kJoinTreeJoins) {
    Item item;
    item.name = "JoinTree " + std::to_string(joins);
    item.plan = MakeSyntheticJoinTree(
        joins, kSyntheticCardinality * Jitter(&rng), kSyntheticPlanSeed);
    items.push_back(std::move(item));
  }
  return items;
}

bool SameBits(float a, float b) {
  return std::bit_cast<uint32_t>(a) == std::bit_cast<uint32_t>(b);
}

OptimizeOptions PinnedOptions() {
  OptimizeOptions options;
  options.num_threads = kOptimizeThreads;
  return options;
}

/// The correctness checks run once per plan before timing: the call
/// succeeds with every operator assigned; re-encoding the returned plan and
/// scoring it reproduces the predicted cost bit for bit; the chosen plan
/// runs.
void CheckItem(const Cluster& cluster, const RoboptOptimizer& optimizer,
               const CostOracle& oracle, Item* item, Report* report) {
  const std::string& name = item->name;
  auto result = optimizer.Optimize(item->plan, &item->cards, PinnedOptions());
  if (!report->Check(result.ok(), name + ": optimize failed")) return;
  bool assigned = result->plan.Validate().ok();
  for (const LogicalOperator& op : item->plan.operators()) {
    assigned &= result->plan.IsAssigned(op.id);
  }
  report->Check(assigned, name + ": operator left unassigned");
  item->predicted = result->predicted_runtime_s;

  auto ctx = EnumerationContext::Make(&item->plan, &cluster.registry,
                                      &cluster.schema, &item->cards);
  if (!report->Check(ctx.ok(), name + ": context failed")) return;
  std::vector<uint8_t> assignment(item->plan.operators().size(), 0);
  for (const LogicalOperator& op : item->plan.operators()) {
    assignment[op.id] =
        static_cast<uint8_t>(result->plan.alt_index(op.id) + 1);
  }
  const std::vector<float> row = EncodeAssignment(*ctx, assignment.data());
  float rescored = 0.0f;
  oracle.EstimateBatch(row.data(), 1, row.size(), &rescored);
  report->Check(SameBits(rescored, item->predicted),
                name + ": re-encoded plan scores " + std::to_string(rescored) +
                    ", optimize predicted " +
                    std::to_string(item->predicted));

  item->plan_runtime_s =
      cluster.cost.PlanCost(result->plan, item->cards).total_s;
  report->Check(std::isfinite(item->plan_runtime_s) &&
                    item->plan_runtime_s > 0.0,
                name + ": chosen plan does not run");
}

/// On plans small enough to enumerate exhaustively, the pruned enumeration
/// must find the exhaustive minimum bit for bit. Boundary pruning is
/// lossless for an additive oracle; with the forest it is not (its cost of
/// a merged plan is not the sum of its parts), so both sides score with a
/// linear oracle. Runs after timing: the exhaustive enumeration is the
/// largest allocation of the run.
void CheckLosslessPruning(const Cluster& cluster, const Item& item,
                          Report* report) {
  auto ctx = EnumerationContext::Make(&item.plan, &cluster.registry,
                                      &cluster.schema, &item.cards);
  if (!ctx.ok()) return;  // CheckItem reported it.
  double space = 1.0;
  for (const auto& alts : ctx->allowed_alts) space *= alts.size();
  if (space > kExhaustiveLimit) return;
  const LinearFeatureOracle linear(cluster.schema, kLinearOracleSeed);
  EnumeratorOptions options;
  options.num_threads = kOptimizeThreads;
  PriorityEnumerator enumerator(&ctx.value(), &linear, options);
  auto pruned = enumerator.Run();
  const PlanVectorEnumeration all = Enumerate(*ctx, Vectorize(*ctx));
  float minimum = 0.0f;
  ArgMinCost(*ctx, all, linear, &minimum);
  report->Check(pruned.ok() && SameBits(minimum, pruned->predicted_runtime_s),
                item.name + ": pruned enumeration missed the exhaustive "
                            "minimum " + std::to_string(minimum));
}

/// Per-call layer split of one traced call.
struct TracedCall {
  double context_ms = 0, enumerate_ms = 0, oracle_ms = 0, predict_oracle_ms = 0;
  double vectorize_ms = 0, concat_ms = 0, prune_ms = 0, predict_ms = 0;
  double unvectorize_ms = 0;
  double rows = 0, batches = 0, vectors = 0, concat_steps = 0;
  double prune_in = 0, prune_out = 0;

  double total_ms() const { return context_ms + enumerate_ms; }
  double phases_ms() const {
    return vectorize_ms + concat_ms + prune_ms + predict_ms + unvectorize_ms;
  }
};

TracedCall& operator+=(TracedCall& a, const TracedCall& b) {
  a.context_ms += b.context_ms;
  a.enumerate_ms += b.enumerate_ms;
  a.oracle_ms += b.oracle_ms;
  a.predict_oracle_ms += b.predict_oracle_ms;
  a.vectorize_ms += b.vectorize_ms;
  a.concat_ms += b.concat_ms;
  a.prune_ms += b.prune_ms;
  a.predict_ms += b.predict_ms;
  a.unvectorize_ms += b.unvectorize_ms;
  a.rows += b.rows;
  a.batches += b.batches;
  a.vectors += b.vectors;
  a.concat_steps += b.concat_steps;
  a.prune_in += b.prune_in;
  a.prune_out += b.prune_out;
  return a;
}

/// The traced call: EnumerationContext::Make and PriorityEnumerator::Run
/// called directly, each timed from outside, with the enumerator's own
/// OptimizeProfile splitting Run into phases.
StatusOr<TracedCall> TraceOne(const Cluster& cluster, TimingOracle* oracle,
                              const Item& item) {
  TracedCall call;
  Stopwatch watch;
  auto ctx = EnumerationContext::Make(&item.plan, &cluster.registry,
                                      &cluster.schema, &item.cards);
  call.context_ms = watch.ElapsedMillis();
  if (!ctx.ok()) return ctx.status();
  OptimizeProfile profile;
  EnumeratorOptions options;
  options.num_threads = kOptimizeThreads;
  options.profile = &profile;
  oracle->Reset();
  PriorityEnumerator enumerator(&ctx.value(), oracle, options);
  watch.Restart();
  auto run = enumerator.Run();
  call.enumerate_ms = watch.ElapsedMillis();
  if (!run.ok()) return run.status();
  if (!SameBits(run->predicted_runtime_s, item.predicted)) {
    return Status::Internal("traced run predicted a different cost");
  }
  call.oracle_ms = oracle->total_ms();
  call.predict_oracle_ms = oracle->last_batch_ms();
  call.vectorize_ms = profile.phase.vectorize_us / 1000.0;
  call.concat_ms = profile.phase.concat_us / 1000.0;
  call.prune_ms = profile.phase.prune_us / 1000.0;
  call.predict_ms = profile.phase.predict_us / 1000.0;
  call.unvectorize_ms = profile.phase.unvectorize_us / 1000.0;
  call.rows = static_cast<double>(oracle->rows());
  call.batches = static_cast<double>(oracle->calls());
  call.vectors = static_cast<double>(run->stats.vectors_created);
  call.concat_steps = static_cast<double>(run->stats.concat_steps);
  call.prune_in = static_cast<double>(profile.boundary_prune_rows_in);
  call.prune_out = static_cast<double>(profile.boundary_prune_rows_out);
  return call;
}

double GeoMeanOfMedians(const std::vector<std::vector<double>>& per_item) {
  std::vector<double> medians;
  for (const auto& samples : per_item) {
    if (!samples.empty()) medians.push_back(Median(samples));
  }
  return GeoMean(medians);
}

int RunOptimizeWorkload(const Args& args, Report* report,
                        const std::function<std::vector<Item>(uint64_t)>& make,
                        const std::vector<std::string>& table_rows) {
  const Cluster cluster;
  std::vector<Item> items;
  double load_s = 0.0;
  auto setup = BuildSetupModel(cluster, [&] {
    Stopwatch watch;
    items = make(args.seed);
    for (Item& item : items) {
      item.cards = CardinalityEstimator(&item.plan).Estimate();
    }
    load_s = watch.ElapsedSeconds();
  });
  if (!setup.ok()) {
    std::fprintf(stderr, "set-up failed: %s\n",
                 setup.status().ToString().c_str());
    return 1;
  }
  const CostOracle& oracle = *setup->oracle;
  const RoboptOptimizer optimizer(&cluster.registry, &cluster.schema,
                                  &oracle);
  for (Item& item : items) CheckItem(cluster, optimizer, oracle, &item, report);
  if (report->failed() > 0) return 0;

  // Round-robin over a seeded permutation of the plans until time is up.
  std::vector<size_t> order(items.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  Rng rng(args.seed ^ 0x0bd3ULL);
  for (size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.NextBounded(i)]);
  }

  // Every untraced call, with the time it finished at.
  struct Call {
    double at_s;
    size_t item;
    double ms;
  };
  std::vector<Call> log;
  std::vector<std::vector<double>> traced(items.size());
  std::vector<TracedCall> traced_sum(items.size());
  TimingOracle timing(&oracle);
  const OptimizeOptions options = PinnedOptions();
  const double start = NowSeconds();
  bool done = false;
  while (!done) {
    for (size_t index : order) {
      const Item& item = items[index];
      Stopwatch watch;
      auto result = optimizer.Optimize(item.plan, &item.cards, options);
      const double ms = watch.ElapsedMillis();
      const double at_s = NowSeconds() - start;
      if (!result.ok() ||
          !SameBits(result->predicted_runtime_s, item.predicted)) {
        report->Fail(item.name + ": timed call diverged from the check pass");
      }
      log.push_back({at_s, index, ms});
      if (args.trace) {
        auto call = TraceOne(cluster, &timing, item);
        if (!call.ok()) {
          report->Fail(item.name + ": traced call failed");
        } else {
          traced[index].push_back(call->total_ms());
          traced_sum[index] += *call;
        }
      }
      if (at_s >= args.seconds) {
        done = true;
        break;
      }
    }
  }
  report->Attempt(log.size());
  const double peak_rss_mb = PeakRssMb();
  for (const Item& item : items) CheckLosslessPruning(cluster, item, report);

  if (!args.trace) {
    // The run is cut into time slices of about kSliceSeconds and the
    // latencies and throughput are taken over the fastest quarter of them
    // (see FastestQuarter). A slice's speed is its mean latency relative to
    // each plan's median over the run, so which plans a slice happens to
    // hold does not rank it. Every slice holds each plan several times.
    const double elapsed = log.back().at_s;
    const size_t slices = std::max<size_t>(
        4, static_cast<size_t>(elapsed / kSliceSeconds));
    std::vector<std::vector<double>> per_item(items.size());
    for (const Call& call : log) per_item[call.item].push_back(call.ms);
    std::vector<double> item_median;
    for (const auto& samples : per_item) item_median.push_back(Median(samples));
    std::vector<std::vector<const Call*>> slice(slices);
    std::vector<double> slowness(slices, 0.0);
    for (const Call& call : log) {
      const size_t k = std::min(
          slices - 1, static_cast<size_t>(call.at_s / elapsed * slices));
      slice[k].push_back(&call);
      slowness[k] += call.ms / item_median[call.item];
    }
    std::vector<size_t> rank(slices);
    for (size_t k = 0; k < slices; ++k) {
      rank[k] = k;
      slowness[k] /= std::max<size_t>(1, slice[k].size());
    }
    std::sort(rank.begin(), rank.end(), [&](size_t a, size_t b) {
      return slowness[a] < slowness[b];
    });
    std::vector<std::vector<double>> fast_per_item(items.size());
    std::vector<double> fast_ms;
    const size_t fast = FastestQuarter(slices);
    for (size_t r = 0; r < fast; ++r) {
      for (const Call* call : slice[rank[r]]) {
        fast_per_item[call->item].push_back(call->ms);
        fast_ms.push_back(call->ms);
      }
    }
    const double fast_s = elapsed * static_cast<double>(fast) / slices;
    std::vector<double> runtimes;
    for (const Item& item : items) runtimes.push_back(item.plan_runtime_s);
    report->Set("setup_s", Median(setup->setup_s), "s");
    report->Set("peak_rss_mb", peak_rss_mb, "MB");
    report->Set("latency_ms_gmean", GeoMeanOfMedians(fast_per_item), "ms");
    report->Set("latency_ms_p99", Quantile(fast_ms, 0.99), "ms");
    report->Set("throughput_per_s",
                static_cast<double>(fast_ms.size()) / fast_s, "1/s");
    report->Set("plan_runtime_s_gmean", GeoMean(runtimes), "s");
    report->Set("model_holdout_r2", setup->build.holdout.r2, "ratio");
    report->Set("model_holdout_spearman", setup->build.holdout.spearman,
                "ratio");
    std::fprintf(stderr, "[perfbench] %zu calls\n", log.size());
    return 0;
  }

  // Census pass (untimed): how many of the rows each call scores are
  // distinct.
  double census_rows = 0.0;
  double census_distinct = 0.0;
  for (const Item& item : items) {
    DistinctRowOracle distinct(&oracle);
    const RoboptOptimizer census(&cluster.registry, &cluster.schema,
                                 &distinct);
    (void)census.Optimize(item.plan, &item.cards, options);
    census_rows += static_cast<double>(distinct.rows());
    census_distinct += static_cast<double>(distinct.distinct());
  }

  TracedCall sum;
  double n = 0.0;
  for (size_t i = 0; i < items.size(); ++i) {
    sum += traced_sum[i];
    n += static_cast<double>(traced[i].size());
  }
  const double prune_oracle_ms = sum.oracle_ms - sum.predict_oracle_ms;
  std::map<std::string, double> m;
  m["ml.oracle_ms"] = sum.oracle_ms / n;
  m["ml.ns_per_row"] = sum.oracle_ms * 1e6 / sum.rows;
  m["ml.oracle_rows"] = sum.rows / n;
  m["ml.oracle_batches"] = sum.batches / n;
  m["ml.rows_per_batch"] = sum.rows / sum.batches;
  m["ml.unique_row_ratio"] = census_distinct / census_rows;
  m["ml.oracle_share"] = sum.oracle_ms / sum.enumerate_ms;
  m["core.context_ms"] = sum.context_ms / n;
  m["core.enumerate_ms"] = sum.enumerate_ms / n;
  m["core.enumerate_self_ms"] = (sum.enumerate_ms - sum.oracle_ms) / n;
  m["core.schedule_ms"] = (sum.enumerate_ms - sum.phases_ms()) / n;
  m["core.concat_ms"] = sum.concat_ms / n;
  m["core.prune_ms"] = (sum.prune_ms - prune_oracle_ms) / n;
  m["core.vectorize_ms"] = sum.vectorize_ms / n;
  m["core.unvectorize_ms"] = sum.unvectorize_ms / n;
  m["core.profile_coverage"] = sum.phases_ms() / sum.total_ms();
  m["core.vectors_created"] = sum.vectors / n;
  m["core.prune_keep_ratio"] =
      sum.prune_in > 0 ? sum.prune_out / sum.prune_in : 0.0;
  m["core.concat_steps"] = sum.concat_steps / n;
  m["workload.load_s"] = load_s;
  std::vector<std::vector<double>> untraced(items.size());
  for (const Call& call : log) untraced[call.item].push_back(call.ms);
  m["trace_overhead"] = GeoMeanOfMedians(traced) / GeoMeanOfMedians(untraced);
  AddBuildLayers(setup->build, &m);
  SetPerLayer(m, report);

  // The ROADMAP's baseline table, reproduced from the traced calls: best
  // traced latency, profile coverage, prune+oracle share and oracle rows /
  // batches per call.
  for (size_t i = 0; i < items.size(); ++i) {
    const Item& item = items[i];
    const bool wanted =
        std::any_of(table_rows.begin(), table_rows.end(),
                    [&](const std::string& row) {
                      return item.name.rfind(row, 0) == 0;
                    });
    if (!wanted || traced[i].empty()) continue;
    const TracedCall& t = traced_sum[i];
    const double calls_i = static_cast<double>(traced[i].size());
    std::printf(
        "{\"roadmap_row\": {\"plan\": \"%s\", \"operators\": %d, "
        "\"optimize_ms_best\": %.4f, \"optimize_ms_median\": %.4f, "
        "\"profile_coverage\": %.3f, \"prune_oracle_share\": %.3f, "
        "\"oracle_share_of_enumerate\": %.3f, \"oracle_rows\": %.0f, "
        "\"oracle_batches\": %.0f, \"calls\": %.0f}}\n",
        item.name.c_str(), item.plan.num_operators(),
        *std::min_element(traced[i].begin(), traced[i].end()),
        Median(traced[i]), t.phases_ms() / t.total_ms(),
        (t.prune_ms + t.predict_ms) / t.total_ms(),
        t.oracle_ms / t.enumerate_ms, t.rows / calls_i, t.batches / calls_i,
        calls_i);
  }
  return 0;
}

}  // namespace

int RunPaperSuite(const Args& args, Report* report) {
  return RunOptimizeWorkload(args, report, MakePaperItems,
                             {"WordCount", "TPC-H Q3"});
}

int RunSyntheticScale(const Args& args, Report* report) {
  return RunOptimizeWorkload(args, report, MakeSyntheticItems,
                             {"Synthetic"});
}

}  // namespace perfbench
