#ifndef ROBOPT_SERVE_MODEL_REGISTRY_H_
#define ROBOPT_SERVE_MODEL_REGISTRY_H_

#include <atomic>
#include <deque>
#include <memory>
#include <mutex>

#include "core/cost_oracle.h"
#include "ml/random_forest.h"

namespace robopt {

class MetricsRegistry;

/// Per-version drift statistics: how far the model's predictions have been
/// from measured runtimes since it was published. The error is
/// |log1p(predicted) - log1p(actual)| — the space the forest fits in —
/// smoothed by an EWMA, so a model that has gone stale against the live
/// workload shows a rising curve (Kamali et al.'s "plan choice should track
/// model-error estimates").
struct DriftStats {
  double error_ewma = 0.0;
  size_t observations = 0;

  /// Mirrors this struct into robopt_drift_* gauges (Set — idempotent; the
  /// struct stays the source of truth).
  void ExportTo(MetricsRegistry* registry) const;
};

/// One immutable published model version: the forest, a batch oracle over
/// it, the holdout MAE it was validated with, and its live drift stats.
/// Snapshots are shared read-only between in-flight optimizations and the
/// registry; only the drift accumulator mutates (behind its own lock, off
/// the optimize hot path).
class ModelSnapshot {
 public:
  ModelSnapshot(uint64_t version, std::shared_ptr<const RandomForest> forest,
                double holdout_mae)
      : version_(version),
        forest_(std::move(forest)),
        oracle_(forest_.get()),
        holdout_mae_(holdout_mae) {}

  uint64_t version() const { return version_; }
  const RandomForest& forest() const { return *forest_; }
  const std::shared_ptr<const RandomForest>& forest_ptr() const {
    return forest_;
  }
  const CostOracle& oracle() const { return oracle_; }
  /// Holdout MAE (log-space) at validation time; NaN for models published
  /// out-of-band without validation (PublishExternal).
  double holdout_mae() const { return holdout_mae_; }

  DriftStats drift() const {
    std::lock_guard<std::mutex> lock(drift_mu_);
    return drift_;
  }

  /// Folds one |log1p(pred) - log1p(actual)| observation into the EWMA.
  void ObserveError(double abs_log_error, double alpha) const {
    std::lock_guard<std::mutex> lock(drift_mu_);
    drift_.error_ewma = drift_.observations == 0
                            ? abs_log_error
                            : (1.0 - alpha) * drift_.error_ewma +
                                  alpha * abs_log_error;
    ++drift_.observations;
  }

 private:
  const uint64_t version_;
  const std::shared_ptr<const RandomForest> forest_;
  const MlCostOracle oracle_;
  const double holdout_mae_;
  mutable std::mutex drift_mu_;
  mutable DriftStats drift_;
};

/// Versioned model registry with RCU-style hot swap. Readers pin the
/// current snapshot with a single atomic shared_ptr load (no lock on the
/// optimize path); Publish() atomically replaces it, and every in-flight
/// optimization keeps the version it pinned alive until the call finishes —
/// no reader ever observes a half-swapped model.
///
/// Implements OracleProvider, so a RoboptOptimizer constructed over the
/// registry re-pins the freshest model on every Optimize() call.
class ModelRegistry : public OracleProvider {
 public:
  /// Keeps the last `history` versions addressable via Get() after
  /// replacement (pinned readers keep *any* version alive regardless).
  explicit ModelRegistry(size_t history = 8) : history_(history) {}

  /// Publishes `forest` as the next version (1, 2, ...) and returns that
  /// version. Stamps the forest's ModelMeta::version before the swap.
  /// `holdout_mae` records the validation error the promotion decision used
  /// (NaN = published without validation).
  uint64_t Publish(std::shared_ptr<RandomForest> forest, double holdout_mae);

  /// The current snapshot (nullptr before the first Publish). Lock-free.
  std::shared_ptr<const ModelSnapshot> Current() const {
    return current_.load(std::memory_order_acquire);
  }

  /// Version of the current snapshot (0 before the first Publish).
  uint64_t current_version() const {
    const auto snapshot = Current();
    return snapshot == nullptr ? 0 : snapshot->version();
  }

  /// Same value as current_version(), but a plain relaxed uint64 load —
  /// no shared_ptr refcount traffic (libstdc++ backs atomic<shared_ptr>
  /// with a spinlock pool). Sharded serving polls this on every request to
  /// decide whether to re-pin; acquire ordering is unnecessary because a
  /// changed value only triggers a Current() load, which synchronizes.
  uint64_t published_version() const {
    return published_version_.load(std::memory_order_relaxed);
  }

  /// Looks `version` up in the retained history (nullptr if evicted or
  /// never published).
  std::shared_ptr<const ModelSnapshot> Get(uint64_t version) const;

  /// Total versions ever published.
  size_t num_published() const;

  // OracleProvider: pins the current snapshot's oracle. The aliasing
  // shared_ptr keeps the whole snapshot (and its forest) alive for the
  // duration of the optimize call.
  PinnedOracle Acquire() const override;

 private:
  const size_t history_;
  std::atomic<std::shared_ptr<const ModelSnapshot>> current_{nullptr};
  std::atomic<uint64_t> published_version_{0};
  mutable std::mutex mu_;  ///< Guards next_version_ and history_list_.
  uint64_t next_version_ = 1;
  std::deque<std::shared_ptr<const ModelSnapshot>> history_list_;
};

}  // namespace robopt

#endif  // ROBOPT_SERVE_MODEL_REGISTRY_H_
