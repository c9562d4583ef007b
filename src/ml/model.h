#ifndef ROBOPT_ML_MODEL_H_
#define ROBOPT_ML_MODEL_H_

#include <cstddef>
#include <string>

#include "common/status.h"
#include "ml/ml_dataset.h"

namespace robopt {

/// A regression model that predicts query runtimes from plan vectors.
/// Implementations must support batch prediction over a contiguous
/// row-major buffer: plan enumeration calls this on whole plan vector
/// enumerations at once (Section IV-E's prune operation).
class RuntimeModel {
 public:
  virtual ~RuntimeModel() = default;

  /// Fits the model. Labels are runtimes in seconds; implementations are
  /// free to transform them internally (e.g., log-space).
  virtual Status Train(const MlDataset& data) = 0;

  /// Predicts `n` rows of `dim` features from `x` into `out`.
  virtual void PredictBatch(const float* x, size_t n, size_t dim,
                            float* out) const = 0;

  /// Single-row convenience.
  float Predict(const float* x, size_t dim) const {
    float out = 0;
    PredictBatch(x, 1, dim, &out);
    return out;
  }

  /// Serializes to / restores from a text file.
  virtual Status Save(const std::string& path) const = 0;
  virtual Status Load(const std::string& path) = 0;

  virtual std::string Name() const = 0;
};

}  // namespace robopt

#endif  // ROBOPT_ML_MODEL_H_
