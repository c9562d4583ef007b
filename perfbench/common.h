#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/status.h"
#include "core/cost_oracle.h"
#include "core/feature_schema.h"
#include "exec/executor.h"
#include "ml/metrics.h"
#include "ml/random_forest.h"
#include "tdgen/tdgen.h"

namespace perfbench {

using robopt::Status;
using robopt::StatusOr;

/// Pinned knobs shared by every workload. Every host-dependent default of
/// the library (thread counts 0 = hardware, shard count 0 = cores) is set
/// explicitly so a run does the same work on any machine.
inline constexpr int kPlatforms = 3;
inline constexpr int kOptimizeThreads = 1;   ///< OptimizeOptions::num_threads
inline constexpr int kForestThreads = 1;     ///< RandomForest inference
inline constexpr int kServeShards = 2;
inline constexpr int kServeClients = 2;
/// Set-ups per run; setup_s reports their median.
inline constexpr int kSetupRepeats = 3;
/// TDGEN seed of the set-up model. Fixed, so every workload seed optimizes
/// against the same model and only the generated inputs vary.
inline constexpr uint64_t kSetupModelSeed = 20200416;

/// Command line of one run.
struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// One run's verdict and numbers, printed as the last stdout line.
class Report {
 public:
  /// Counts one attempted operation (an optimize call, a served request, a
  /// model build or a correctness check).
  void Attempt(uint64_t n = 1) { attempted_ += n; }
  /// Counts one failure: a failed or shed call, or a failed check. The
  /// first few are described on stderr.
  void Fail(const std::string& what);
  /// Attempt + Fail when `ok` is false. Returns `ok`.
  bool Check(bool ok, const std::string& what);

  void Set(const std::string& name, double value, const std::string& unit);

  uint64_t failed() const { return failed_; }
  /// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
  std::string ToJson() const;

 private:
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::map<std::string, std::pair<double, std::string>> metrics_;
};

/// How many of `n` timed trials (time slices or serving episodes) the
/// end-to-end latencies and throughput pool: the fastest quarter, at least
/// one. The host this benchmark was written on runs a fixed compute loop up
/// to 1.7x slower for seconds at a time; pooling its quiet phases, as
/// best-of-N runs do, keeps that out of the figures, and pooling a quarter
/// rather than taking the single best trial keeps enough samples for a
/// 99th percentile.
inline size_t FastestQuarter(size_t n) { return n < 4 ? 1 : n / 4; }

double Median(std::vector<double> values);
/// Linear-interpolated quantile, q in [0, 1].
double Quantile(std::vector<double> values, double q);
/// Geometric mean of positive values.
double GeoMean(const std::vector<double>& values);
/// Peak resident set size of this process so far, in MiB.
double PeakRssMb();
/// Seconds on the steady clock since an arbitrary origin.
double NowSeconds();

/// The simulated 3-platform cluster every workload runs against.
struct Cluster {
  Cluster();
  robopt::PlatformRegistry registry;
  robopt::FeatureSchema schema;
  robopt::VirtualCost cost;
  robopt::Executor executor;
};

/// The TDGEN options of bench/bench_env.h with a smaller plans_per_shape.
robopt::TdgenOptions BenchTdgenOptions(int plans_per_shape, uint64_t seed);

/// Where one model build spent its time, and what it produced.
struct ModelBuild {
  std::unique_ptr<robopt::RandomForest> forest;
  robopt::MlDataset data{0};  ///< The full generated TDGEN set.
  robopt::TdgenReport report;
  robopt::RegressionMetrics holdout;
  double generate_s = 0.0;
  double fit_s = 0.0;
  double total_s = 0.0;
  double nodes_per_tree = 0.0;
};

/// The steps TrainRuntimeModel runs, each timed: Tdgen::Generate, the
/// 90/10 split, RandomForest::Train with TrainRuntimeModel's parameters
/// (except `num_trees`), and the holdout evaluation.
StatusOr<ModelBuild> BuildModel(const Cluster& cluster,
                                const robopt::TdgenOptions& options,
                                int num_trees);

/// The set-up every optimizing workload shares: build the model the
/// optimizer consults, then the workload's inputs (`load_inputs`), and
/// repeat both kSetupRepeats times, keeping the last results.
struct SetupModel {
  ModelBuild build;
  std::unique_ptr<robopt::MlCostOracle> oracle;
  std::vector<double> setup_s;  ///< Wall seconds of each repeat.
};
StatusOr<SetupModel> BuildSetupModel(const Cluster& cluster,
                                     const std::function<void()>& load_inputs);

/// Decorator that times every batch of an inner oracle. Single-threaded
/// use only (the benchmark pins num_threads to 1).
class TimingOracle : public robopt::CostOracle {
 public:
  explicit TimingOracle(const robopt::CostOracle* inner) : inner_(inner) {}

  void EstimateBatch(const float* x, size_t n, size_t dim,
                     float* out) const override;

  void Reset();
  double total_ms() const { return total_ns_ * 1e-6; }
  /// Duration of the most recent batch: the final getOptimal batch once a
  /// PriorityEnumerator::Run has returned.
  double last_batch_ms() const { return last_batch_ns_ * 1e-6; }
  uint64_t rows() const { return rows_; }
  uint64_t calls() const { return calls_; }

 private:
  const robopt::CostOracle* inner_;
  mutable double total_ns_ = 0.0;
  mutable double last_batch_ns_ = 0.0;
  mutable uint64_t rows_ = 0;
  mutable uint64_t calls_ = 0;
};

/// Decorator that counts distinct feature rows across batches (for
/// ml.unique_row_ratio); used in untimed census passes only.
class DistinctRowOracle : public robopt::CostOracle {
 public:
  explicit DistinctRowOracle(const robopt::CostOracle* inner)
      : inner_(inner) {}

  void EstimateBatch(const float* x, size_t n, size_t dim,
                     float* out) const override;

  uint64_t rows() const { return rows_; }
  uint64_t distinct() const { return seen_.size(); }

 private:
  const robopt::CostOracle* inner_;
  mutable uint64_t rows_ = 0;
  mutable std::unordered_set<std::string> seen_;  ///< Raw row bytes.
};

/// The per-layer metric names every traced run reports, with their units.
/// Layers a workload does not exercise report 0.
const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics();
/// Sets every per-layer metric of `values` (missing names read 0).
void SetPerLayer(const std::map<std::string, double>& values, Report* report);

/// The set-up model's build layers (tdgen.*, ml.fit_*, ml.nodes_per_tree).
void AddBuildLayers(const ModelBuild& build, std::map<std::string, double>* m);

/// Runs one workload; returns the process exit code.
int RunPaperSuite(const Args& args, Report* report);
int RunSyntheticScale(const Args& args, Report* report);
int RunServeMix(const Args& args, Report* report);
int RunModelBuild(const Args& args, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
