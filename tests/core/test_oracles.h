#ifndef ROBOPT_TESTS_CORE_TEST_ORACLES_H_
#define ROBOPT_TESTS_CORE_TEST_ORACLES_H_

#include <cstddef>
#include <vector>

#include "core/cost_oracle.h"
// The deterministic additive oracle lives in the library proper (benches
// use it too).
#include "core/linear_oracle.h"

namespace robopt {

/// Forwards to `inner` and keeps a copy of every feature row it was asked
/// to score, in call order. Single-threaded callers only (the prunes make
/// their oracle call from the calling thread).
class RecordingOracle : public CostOracle {
 public:
  explicit RecordingOracle(const CostOracle* inner) : inner_(inner) {}

  void EstimateBatch(const float* x, size_t n, size_t dim,
                     float* out) const override {
    Count(n);
    rows_.insert(rows_.end(), x, x + n * dim);
    inner_->EstimateBatch(x, n, dim, out);
  }

  /// Every row scored since the last Clear(), `dim` floats each.
  const std::vector<float>& rows() const { return rows_; }
  void Clear() { rows_.clear(); }

 private:
  const CostOracle* inner_;
  mutable std::vector<float> rows_;
};

}  // namespace robopt

#endif  // ROBOPT_TESTS_CORE_TEST_ORACLES_H_
