// model_build: repeated builds of the runtime model with the steps
// TrainRuntimeModel runs — Tdgen::Generate, the 90/10 split,
// RandomForest::Train (80 trees) and the holdout evaluation — each timed.
//
// Set-up builds the reference model through TrainRuntimeModel itself with
// the same options; every timed build must reproduce its holdout metrics
// bit for bit. After timing, the paper suite is optimized with the built
// model and its chosen plans are costed on the virtual clock, so a faster
// build that yields a worse model shows.

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>

#include "common.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "core/optimizer.h"
#include "plan/cardinality.h"
#include "workload/generators.h"

namespace perfbench {

using namespace robopt;

namespace {

/// TDGEN plans per shape of one build (bench_env.h uses 28).
constexpr int kBuildPlansPerShape = 1;
/// Trees of the TrainRuntimeModel forest (hard-coded there).
constexpr int kPaperTrees = 80;
/// Scales of the paper suite the built model is judged on, in GB (those of
/// paper_suite).
const double kJudgeScalesGb[] = {0.05, 2.0, 20.0};

bool SameBits(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

}  // namespace

int RunModelBuild(const Args& args, Report* report) {
  const Cluster cluster;
  // The workload seed perturbs the input-cardinality profiles TDGEN
  // instantiates each plan with (by up to 0.2% each); the TDGEN seed itself
  // stays fixed, so every seed generates the same plans and row count.
  TdgenOptions options =
      BenchTdgenOptions(kBuildPlansPerShape, kSetupModelSeed);
  Rng rng(args.seed * 0x9e3779b97f4a7c15ULL + 3);
  for (double& cardinality : options.cardinality_grid) {
    cardinality *= 1.0 + rng.NextUniform(-0.002, 0.002);
  }

  std::vector<double> setup_s;
  RegressionMetrics reference;
  for (int i = 0; i < kSetupRepeats; ++i) {
    Stopwatch watch;
    auto model = TrainRuntimeModel(&cluster.registry, &cluster.schema,
                                   &cluster.executor, options, &reference);
    if (!model.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n",
                   model.status().ToString().c_str());
      return 1;
    }
    setup_s.push_back(watch.ElapsedSeconds());
  }

  std::vector<double> build_ms;
  std::vector<double> generate_s;
  std::vector<double> fit_s;
  std::vector<double> fit_share;
  ModelBuild last;
  const double start = NowSeconds();
  do {
    auto build = BuildModel(cluster, options, kPaperTrees);
    if (!report->Check(build.ok(), "model build failed")) break;
    report->Check(SameBits(build->holdout.r2, reference.r2) &&
                      SameBits(build->holdout.spearman, reference.spearman),
                  "split build's holdout metrics differ from "
                  "TrainRuntimeModel's");
    build_ms.push_back(build->total_s * 1000.0);
    generate_s.push_back(build->generate_s);
    fit_s.push_back(build->fit_s);
    fit_share.push_back(build->fit_s / build->total_s);
    last = std::move(build).value();
  } while (NowSeconds() - start < args.seconds);
  const double peak_rss_mb = PeakRssMb();
  if (last.forest == nullptr) return 0;

  // Judge the built model: optimize the paper suite with it and cost the
  // chosen plans on the virtual clock.
  last.forest->set_num_threads(kForestThreads);
  const MlCostOracle oracle(last.forest.get());
  const RoboptOptimizer optimizer(&cluster.registry, &cluster.schema, &oracle);
  OptimizeOptions optimize;
  optimize.num_threads = kOptimizeThreads;
  std::vector<double> runtimes;
  for (double scale : kJudgeScalesGb) {
    for (const LogicalPlan& plan : MakePaperPlanPool(scale)) {
      const Cardinalities cards = CardinalityEstimator(&plan).Estimate();
      auto result = optimizer.Optimize(plan, &cards, optimize);
      if (!report->Check(result.ok(), "optimize with the built model failed")) {
        continue;
      }
      const double runtime =
          cluster.cost.PlanCost(result->plan, cards).total_s;
      if (report->Check(std::isfinite(runtime) && runtime > 0.0,
                        "plan chosen by the built model does not run")) {
        runtimes.push_back(runtime);
      }
    }
  }

  if (!args.trace) {
    report->Set("setup_s", Median(setup_s), "s");
    report->Set("peak_rss_mb", peak_rss_mb, "MB");
    // One build is one request: the best build, as best-of-N runs report,
    // and, since a run of a few builds supports no percentile above the
    // median, the median build in place of the 99th percentile.
    report->Set("latency_ms_gmean",
                *std::min_element(build_ms.begin(), build_ms.end()), "ms");
    report->Set("latency_ms_p99", Median(build_ms), "ms");
    // Builds per second of build time; whole builds per run would move in
    // steps of a fifth.
    double total_ms = 0.0;
    for (double ms : build_ms) total_ms += ms;
    report->Set("throughput_per_s",
                1000.0 * static_cast<double>(build_ms.size()) / total_ms,
                "1/s");
    report->Set("plan_runtime_s_gmean", GeoMean(runtimes), "s");
    report->Set("model_holdout_r2", last.holdout.r2, "ratio");
    report->Set("model_holdout_spearman", last.holdout.spearman, "ratio");
    std::fprintf(stderr, "[perfbench] %zu builds of %zu rows\n",
                 build_ms.size(), last.data.size());
    return 0;
  }
  std::map<std::string, double> m;
  AddBuildLayers(last, &m);
  m["tdgen.generate_s"] = Median(generate_s);
  m["ml.fit_s"] = Median(fit_s);
  m["ml.fit_share"] = Median(fit_share);
  SetPerLayer(m, report);
  return 0;
}

}  // namespace perfbench
