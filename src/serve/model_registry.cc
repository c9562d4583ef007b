#include "serve/model_registry.h"

#include "common/check.h"
#include "obs/metrics.h"

namespace robopt {

void DriftStats::ExportTo(MetricsRegistry* registry) const {
  if (registry == nullptr) return;
  registry->Set("robopt_drift_error_ewma", error_ewma);
  registry->Set("robopt_drift_observations",
                static_cast<double>(observations));
}

uint64_t ModelRegistry::Publish(std::shared_ptr<RandomForest> forest,
                                double holdout_mae) {
  ROBOPT_CHECK(forest != nullptr);
  std::lock_guard<std::mutex> lock(mu_);
  const uint64_t version = next_version_++;
  // Stamp provenance while we still hold the only mutable reference; after
  // the swap the forest is shared read-only with concurrent optimizers.
  ModelMeta meta = forest->meta();
  meta.version = version;
  forest->set_meta(meta);
  auto snapshot = std::make_shared<const ModelSnapshot>(
      version, std::shared_ptr<const RandomForest>(std::move(forest)),
      holdout_mae);
  history_list_.push_back(snapshot);
  while (history_list_.size() > history_) history_list_.pop_front();
  // The swap itself: one atomic store. In-flight readers holding the old
  // snapshot keep it alive; new readers see the new version.
  current_.store(std::move(snapshot), std::memory_order_release);
  // After the snapshot store, so a reader that sees the new version and
  // re-pins is guaranteed to pin this version or a later one.
  published_version_.store(version, std::memory_order_release);
  return version;
}

std::shared_ptr<const ModelSnapshot> ModelRegistry::Get(
    uint64_t version) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& snapshot : history_list_) {
    if (snapshot->version() == version) return snapshot;
  }
  return nullptr;
}

size_t ModelRegistry::num_published() const {
  std::lock_guard<std::mutex> lock(mu_);
  return next_version_ - 1;
}

PinnedOracle ModelRegistry::Acquire() const {
  PinnedOracle pinned;
  const auto snapshot = Current();
  if (snapshot == nullptr) return pinned;
  // Aliasing constructor: the returned pointer addresses the snapshot's
  // oracle but owns the snapshot, so the pinned model cannot be destroyed
  // under an in-flight optimization even if the registry moves on.
  pinned.oracle =
      std::shared_ptr<const CostOracle>(snapshot, &snapshot->oracle());
  pinned.version = snapshot->version();
  return pinned;
}

}  // namespace robopt
