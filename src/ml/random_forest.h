#ifndef ROBOPT_ML_RANDOM_FOREST_H_
#define ROBOPT_ML_RANDOM_FOREST_H_

#include <string>
#include <vector>

#include "ml/decision_tree.h"
#include "ml/forest_kernel.h"
#include "ml/model.h"
#include "obs/profile.h"

namespace robopt {

/// Provenance metadata carried through RandomForest::Save/Load (file format
/// v2). The serving layer's ModelRegistry stamps `version` when a model is
/// published, so a forest file on disk identifies which registry version it
/// was.
struct ModelMeta {
  /// Registry version of the published model (0 = unversioned).
  uint64_t version = 0;
  /// Number of rows the forest was trained on (set by Train).
  uint64_t trained_rows = 0;
};

/// Random-forest regressor — the runtime model the paper settles on
/// ("we tried linear regression, random forests, and neural networks and
/// found random forests to be more robust", Section VII-A). Labels are fit
/// in log1p space: runtimes span microseconds to hours and the optimizer
/// only needs the *ordering* of predicted runtimes to be right.
class RandomForest : public RuntimeModel {
 public:
  struct Params {
    int num_trees = 60;
    TreeParams tree;
    /// Bootstrap sample size as a fraction of the training set.
    double subsample = 1.0;
    bool log_label = true;
    uint64_t seed = 13;
    /// Threads for batch inference (0 = hardware concurrency, 1 = serial).
    /// Predictions are bit-identical for every value: the cache-blocked
    /// kernel accumulates each row over trees in a fixed order within a
    /// fixed-size row block, independent of the thread count.
    int num_threads = 1;
    /// Training observability: a "forest_train" span plus the
    /// robopt_forest_fit_seconds / robopt_forest_nodes_total metrics. The
    /// trees are bit-identical with it on or off.
    ObsOptions obs;
  };

  RandomForest();
  explicit RandomForest(Params params);

  /// Adjusts inference threading after construction/Load (0 = hardware
  /// concurrency, 1 = serial). Training and serialization are unaffected.
  void set_num_threads(int num_threads) { params_.num_threads = num_threads; }

  /// Fits `num_trees` bagged trees over one presorted copy of `data` (see
  /// DESIGN.md, "Forest training"). Rejects num_trees < 1, a subsample
  /// that is not a finite positive fraction, and non-finite features or
  /// (transformed) labels.
  Status Train(const MlDataset& data) override;
  /// Batch inference through the flattened SoA ForestKernel (built by
  /// Train/Load). Bit-identical to PredictBatchReference at every thread
  /// count.
  void PredictBatch(const float* x, size_t n, size_t dim,
                    float* out) const override;
  /// Reference implementation: the blocked per-DecisionTree walk the kernel
  /// replaced. Kept so tests and benches can assert the kernel's
  /// bit-equality and measure its speedup.
  void PredictBatchReference(const float* x, size_t n, size_t dim,
                             float* out) const;
  /// Writes the forest to `path` atomically: the bytes go to a sibling
  /// temporary file which is rename()d into place only after a clean write,
  /// so a crashed or interrupted save can never leave a torn model file
  /// where a loader would find it.
  Status Save(const std::string& path) const override;
  /// Accepts format v1 (no metadata) and v2 (metadata line) files.
  Status Load(const std::string& path) override;
  std::string Name() const override { return "RandomForest"; }

  /// Provenance metadata, persisted by Save and restored by Load.
  const ModelMeta& meta() const { return meta_; }
  void set_meta(const ModelMeta& meta) { meta_ = meta; }

  const std::vector<DecisionTree>& trees() const { return trees_; }
  const ForestKernel& kernel() const { return kernel_; }

 private:
  Params params_;
  ModelMeta meta_;
  std::vector<DecisionTree> trees_;
  ForestKernel kernel_;  ///< Flattened trees_; rebuilt by Train/Load.
};

}  // namespace robopt

#endif  // ROBOPT_ML_RANDOM_FOREST_H_
