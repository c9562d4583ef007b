#ifndef ROBOPT_CORE_COST_ORACLE_H_
#define ROBOPT_CORE_COST_ORACLE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>

#include "ml/model.h"

namespace robopt {

/// The model `m` of the prune operation (Section IV-E): "an oracle that
/// given a plan it returns its cost: it can be a cost model, an ML model, or
/// even a pricing catalogue". Batch interface over contiguous plan vectors.
class CostOracle {
 public:
  virtual ~CostOracle() = default;

  /// Estimates the cost of `n` plan vectors of `dim` floats each.
  virtual void EstimateBatch(const float* x, size_t n, size_t dim,
                             float* out) const = 0;

  /// Instrumentation: number of rows estimated so far (the paper reports
  /// model-invocation share of optimization time).
  size_t rows_estimated() const {
    return rows_estimated_.load(std::memory_order_relaxed);
  }
  size_t batches() const { return batches_.load(std::memory_order_relaxed); }

 protected:
  /// Relaxed atomics: an oracle may be shared across threads (e.g. one
  /// pinned model serving concurrent optimize calls), and the counters are
  /// pure telemetry with no ordering requirements.
  void Count(size_t n) const {
    rows_estimated_.fetch_add(n, std::memory_order_relaxed);
    batches_.fetch_add(1, std::memory_order_relaxed);
  }

 private:
  mutable std::atomic<size_t> rows_estimated_{0};
  mutable std::atomic<size_t> batches_{0};
};

/// An oracle pinned for the duration of one optimization call. The
/// shared_ptr keeps the backing model alive (RCU-style) even if a newer
/// model is published mid-call, so every batch of one Optimize() sees one
/// consistent model. `version` tags which registry version was pinned
/// (0 = unversioned, e.g. a plain long-lived oracle).
struct PinnedOracle {
  std::shared_ptr<const CostOracle> oracle;
  uint64_t version = 0;
};

/// Source of cost oracles for optimizers that must survive model hot-swaps:
/// instead of holding one raw CostOracle pointer for its whole lifetime, an
/// optimizer constructed over a provider pins the *current* oracle once per
/// Optimize() call. The serving layer's ModelRegistry implements this over
/// an atomically swapped model snapshot.
class OracleProvider {
 public:
  virtual ~OracleProvider() = default;

  /// Pins the current oracle. Must be thread-safe; the returned oracle must
  /// stay valid (and keep predicting identically) for as long as the
  /// shared_ptr is held, regardless of later publications.
  virtual PinnedOracle Acquire() const = 0;
};

/// CostOracle backed by a trained runtime model (Robopt's default).
class MlCostOracle : public CostOracle {
 public:
  /// `model` must outlive the oracle.
  explicit MlCostOracle(const RuntimeModel* model) : model_(model) {}

  void EstimateBatch(const float* x, size_t n, size_t dim,
                     float* out) const override {
    Count(n);
    model_->PredictBatch(x, n, dim, out);
  }

 private:
  const RuntimeModel* model_;
};

/// Oracle that deems every plan free. Used where the enumeration machinery
/// requires an oracle but no pruning-by-cost should happen (e.g. TDGEN's
/// switch-capped enumeration, whose goal is coverage, not optimality).
class ZeroCostOracle : public CostOracle {
 public:
  void EstimateBatch(const float* /*x*/, size_t n, size_t /*dim*/,
                     float* out) const override {
    Count(n);
    for (size_t i = 0; i < n; ++i) out[i] = 0.0f;
  }
};

}  // namespace robopt

#endif  // ROBOPT_CORE_COST_ORACLE_H_
