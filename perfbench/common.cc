#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>

#include "common/stopwatch.h"
#include "workloads/queries.h"

namespace perfbench {

using namespace robopt;

namespace {

/// Size of the set-up model: the paper-suite TDGEN options with one plan
/// per shape and a forest of kSetupTrees trees. Small enough that
/// kSetupRepeats builds fit in a run's set-up; large enough that forest
/// inference dominates optimize on the Table-II plans, as it does with the
/// full-size bench model.
constexpr int kSetupPlansPerShape = 1;
constexpr int kSetupTrees = 40;

std::string FormatNumber(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

}  // namespace

void Report::Fail(const std::string& what) {
  ++failed_;
  if (failed_ <= 10) {
    std::fprintf(stderr, "[perfbench] FAILED: %s\n", what.c_str());
  }
}

bool Report::Check(bool ok, const std::string& what) {
  Attempt();
  if (!ok) Fail(what);
  return ok;
}

void Report::Set(const std::string& name, double value,
                 const std::string& unit) {
  metrics_[name] = {value, unit};
}

std::string Report::ToJson() const {
  std::string out = "{\"correct\": ";
  out += failed_ == 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, value_unit] : metrics_) {
    if (!first) out += ", ";
    first = false;
    const double value =
        std::isfinite(value_unit.first) ? value_unit.first : 0.0;
    out += "\"" + name + "\": {\"value\": " + FormatNumber(value) +
           ", \"unit\": \"" + value_unit.second + "\"}";
  }
  out += "}}";
  return out;
}

double Median(std::vector<double> values) { return Quantile(values, 0.5); }

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double GeoMean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double log_sum = 0.0;
  for (double v : values) log_sum += std::log(v);
  return std::exp(log_sum / static_cast<double>(values.size()));
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Cluster::Cluster()
    : registry(PlatformRegistry::Default(kPlatforms)),
      schema(&registry),
      cost(&registry),
      executor(&registry, &cost) {
  RegisterWorkloadKernels();
}

TdgenOptions BenchTdgenOptions(int plans_per_shape, uint64_t seed) {
  TdgenOptions options;
  options.plans_per_shape = plans_per_shape;
  options.max_operators = 22;
  options.max_structures_per_plan = 48;
  options.cardinality_grid = {1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10};
  options.executed_points = {0, 1, 2, 4, 6, 7};
  options.loop_iterations = 60;
  options.seed = seed;
  return options;
}

StatusOr<ModelBuild> BuildModel(const Cluster& cluster,
                                const TdgenOptions& options, int num_trees) {
  ModelBuild build;
  Stopwatch total;
  Stopwatch step;
  Tdgen tdgen(&cluster.registry, &cluster.schema, &cluster.executor, options);
  auto data = tdgen.Generate(&build.report);
  if (!data.ok()) return data.status();
  build.generate_s = step.ElapsedSeconds();

  MlDataset train(cluster.schema.width());
  MlDataset test(cluster.schema.width());
  data->Split(0.9, options.seed ^ 0xabcdefULL, &train, &test);

  step.Restart();
  RandomForest::Params params;
  params.seed = options.seed;
  params.num_trees = num_trees;
  params.tree.max_features = static_cast<int>(cluster.schema.width() / 3);
  params.num_threads = kForestThreads;
  build.forest = std::make_unique<RandomForest>(params);
  ROBOPT_RETURN_IF_ERROR(build.forest->Train(train));
  build.fit_s = step.ElapsedSeconds();

  build.holdout = Evaluate(*build.forest, test);
  build.total_s = total.ElapsedSeconds();

  size_t nodes = 0;
  for (const DecisionTree& tree : build.forest->trees()) {
    nodes += tree.num_nodes();
  }
  build.nodes_per_tree = build.forest->trees().empty()
                             ? 0.0
                             : static_cast<double>(nodes) /
                                   static_cast<double>(
                                       build.forest->trees().size());
  build.data = std::move(data).value();
  return build;
}

StatusOr<SetupModel> BuildSetupModel(
    const Cluster& cluster, const std::function<void()>& load_inputs) {
  SetupModel setup;
  for (int i = 0; i < kSetupRepeats; ++i) {
    Stopwatch watch;
    auto build = BuildModel(
        cluster, BenchTdgenOptions(kSetupPlansPerShape, kSetupModelSeed),
        kSetupTrees);
    if (!build.ok()) return build.status();
    setup.build = std::move(build).value();
    load_inputs();
    setup.setup_s.push_back(watch.ElapsedSeconds());
  }
  setup.oracle = std::make_unique<MlCostOracle>(setup.build.forest.get());
  return setup;
}

void TimingOracle::EstimateBatch(const float* x, size_t n, size_t dim,
                                 float* out) const {
  Count(n);
  const auto start = std::chrono::steady_clock::now();
  inner_->EstimateBatch(x, n, dim, out);
  last_batch_ns_ = std::chrono::duration<double, std::nano>(
                       std::chrono::steady_clock::now() - start)
                       .count();
  total_ns_ += last_batch_ns_;
  rows_ += n;
  ++calls_;
}

void TimingOracle::Reset() {
  total_ns_ = 0.0;
  last_batch_ns_ = 0.0;
  rows_ = 0;
  calls_ = 0;
}

void DistinctRowOracle::EstimateBatch(const float* x, size_t n, size_t dim,
                                      float* out) const {
  Count(n);
  for (size_t i = 0; i < n; ++i) {
    seen_.emplace(reinterpret_cast<const char*>(x + i * dim),
                  dim * sizeof(float));
  }
  rows_ += n;
  inner_->EstimateBatch(x, n, dim, out);
}

const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics = {
      // ml: forest inference behind the cost oracle (per optimize call).
      {"ml.oracle_ms", "ms"},
      {"ml.ns_per_row", "ns"},
      {"ml.oracle_rows", "count"},
      {"ml.oracle_batches", "count"},
      {"ml.rows_per_batch", "count"},
      {"ml.unique_row_ratio", "ratio"},
      {"ml.oracle_share", "ratio"},
      // core: the enumeration around the oracle (per optimize call).
      {"core.context_ms", "ms"},
      {"core.enumerate_ms", "ms"},
      {"core.enumerate_self_ms", "ms"},
      {"core.schedule_ms", "ms"},
      {"core.concat_ms", "ms"},
      {"core.prune_ms", "ms"},
      {"core.vectorize_ms", "ms"},
      {"core.unvectorize_ms", "ms"},
      {"core.profile_coverage", "ratio"},
      {"core.vectors_created", "count"},
      {"core.prune_keep_ratio", "ratio"},
      {"core.concat_steps", "count"},
      // plan + serve: the serving read and write paths.
      {"plan.fingerprint_us", "us"},
      {"serve.hit_ms_p50", "ms"},
      {"serve.miss_ms_p50", "ms"},
      {"serve.overhead_us_p50", "us"},
      {"serve.plan_cache_hit_ratio", "ratio"},
      {"serve.shard_imbalance", "ratio"},
      {"serve.sheds", "count"},
      {"serve.feedback_us", "us"},
      {"serve.feedback_dropped", "count"},
      {"serve.retrain_s", "s"},
      {"serve.retrains", "count"},
      {"serve.promotions", "count"},
      {"serve.invalidations", "count"},
      // tdgen + ml fit: model build (the set-up model, or model_build's).
      {"tdgen.generate_s", "s"},
      {"tdgen.rows", "count"},
      {"tdgen.jobs_executed", "count"},
      {"tdgen.jobs_imputed", "count"},
      {"ml.fit_s", "s"},
      {"ml.fit_share", "ratio"},
      {"ml.nodes_per_tree", "count"},
      // workload: building the workload's inputs.
      {"workload.load_s", "s"},
      // Traced optimize latency over untraced, same run.
      {"trace_overhead", "ratio"},
  };
  return kMetrics;
}

void SetPerLayer(const std::map<std::string, double>& values,
                 Report* report) {
  for (const auto& [name, unit] : PerLayerMetrics()) {
    const auto it = values.find(name);
    report->Set(name, it == values.end() ? 0.0 : it->second, unit);
  }
  for (const auto& [name, value] : values) {
    bool known = false;
    for (const auto& metric : PerLayerMetrics()) known |= metric.first == name;
    if (!known) {
      std::fprintf(stderr, "[perfbench] unlisted per-layer metric %s\n",
                   name.c_str());
      std::abort();
    }
  }
}

void AddBuildLayers(const ModelBuild& build,
                    std::map<std::string, double>* m) {
  (*m)["tdgen.generate_s"] = build.generate_s;
  (*m)["tdgen.rows"] = static_cast<double>(build.data.size());
  (*m)["tdgen.jobs_executed"] = static_cast<double>(build.report.jobs_executed);
  (*m)["tdgen.jobs_imputed"] = static_cast<double>(build.report.jobs_imputed);
  (*m)["ml.fit_s"] = build.fit_s;
  (*m)["ml.fit_share"] = build.total_s > 0 ? build.fit_s / build.total_s : 0.0;
  (*m)["ml.nodes_per_tree"] = build.nodes_per_tree;
}

}  // namespace perfbench
