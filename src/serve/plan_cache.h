#ifndef ROBOPT_SERVE_PLAN_CACHE_H_
#define ROBOPT_SERVE_PLAN_CACHE_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/optimizer.h"
#include "plan/fingerprint.h"

namespace robopt {

/// The search-relevant slice of OptimizeOptions: every field that can
/// change which plan the search picks. num_threads, obs and top_k_runners
/// are deliberately absent: results are bit-identical across them by
/// contract (see DESIGN.md, "Threading model & determinism").
struct PlanSearchOptions {
  uint64_t allowed_platform_mask = ~0ull;
  uint64_t excluded_platform_mask = 0;
  bool single_platform = false;
  PriorityMode priority = PriorityMode::kPaper;
  PruneMode prune = PruneMode::kBoundary;

  static PlanSearchOptions Of(const OptimizeOptions& options);
  bool operator==(const PlanSearchOptions&) const = default;
};

/// Key of one cached optimization: the canonical plan fingerprint, the
/// injected cardinalities (0 when estimated — the estimate is a pure
/// function of the fingerprinted plan), and the search-relevant optimize
/// options. Equality compares the options field by field; their hash only
/// picks the bucket, so two option sets that collide in the hash never
/// share an entry.
struct PlanCacheKey {
  PlanFingerprint plan;
  uint64_t cards_hash = 0;
  PlanSearchOptions options;

  bool operator==(const PlanCacheKey& other) const {
    return plan == other.plan && cards_hash == other.cards_hash &&
           options == other.options;
  }
};

/// Why a Lookup missed (diagnostics; kNone on a hit). Self-contained here —
/// the obs decision-record layer maps it onto its own vocabulary so the
/// cache stays free of obs includes.
enum class PlanCacheMissCause : uint8_t {
  kNone = 0,          ///< Hit.
  kCold = 1,          ///< No entry under the key.
  kStaleVersion = 2,  ///< Entry predates the current model version.
  kHashMismatch = 3,  ///< Fingerprint collision: node hashes disagreed.
};

struct PlanCacheStats {
  size_t hits = 0;
  size_t misses = 0;
  size_t insertions = 0;
  size_t evictions = 0;      ///< LRU capacity evictions.
  size_t invalidations = 0;  ///< Entries dropped for a stale model version.
  /// Entries dropped by InvalidatePlatform (their plan routed through a
  /// platform whose circuit breaker tripped).
  size_t platform_invalidations = 0;
  /// Entries received from / handed to another shard's cache by the
  /// serving layer's rebalancer (ExtractSlots / InsertMigrated).
  size_t migrated_in = 0;
  size_t migrated_out = 0;

  /// Folds `other` in field by field (the sharded serving layer aggregates
  /// its per-shard caches into one ServeStats view).
  void Accumulate(const PlanCacheStats& other);

  /// Mirrors this struct into robopt_plan_cache_* gauges (Set — idempotent;
  /// the struct stays the source of truth).
  void ExportTo(MetricsRegistry* registry) const;
};

/// Bounded, version-tagged LRU cache of optimization results. Entries store
/// the chosen *assignment* rather than an ExecutionPlan — an ExecutionPlan
/// is bound to one LogicalPlan instance, while fingerprint-equal plans are
/// structurally identical, so the assignment transfers and the caller's
/// plan is re-instantiated in O(n).
///
/// Operator ids are insertion-order artifacts: two builds of the same
/// dataflow can number the same operator differently while fingerprinting
/// identically (the fingerprint is deliberately order-independent). The
/// assignment is therefore stored in *canonical* form — (node hash, alt)
/// pairs sorted ascending, where the node hash is the per-operator Merkle
/// value from FingerprintPlan — and a lookup hands back the canonical
/// sequence for the caller to remap onto its own ids through the
/// fingerprint's CanonicalOrder. A hit additionally verifies the caller's
/// sorted node-hash sequence (CanonicalOrder::hashes) against the entry's;
/// a mismatch (a 128-bit fingerprint collision between structurally
/// different plans) drops the entry and counts as a miss, never as a wrong
/// plan.
///
/// Every entry is tagged with the model version that produced it. A lookup
/// under a newer version discards the entry (lazy invalidation): a new
/// model means new costs, so yesterday's best plan is no longer evidence.
class PlanCache {
 public:
  struct Entry {
    /// Canonical assignment: (node hash, chosen alt) sorted by (hash, alt).
    /// Ties are structurally interchangeable operators, so the sorted
    /// pairing is unambiguous up to plan equivalence.
    std::vector<std::pair<uint64_t, int16_t>> assignment;
    float predicted_runtime_s = 0.0f;
    PlatformId chosen_platform = 0;
    uint64_t model_version = 0;
    /// Platforms this plan routes through (bit i = platform id i), from
    /// ExecutionPlan::PlatformsUsed(). Lets InvalidatePlatform drop exactly
    /// the entries a dead platform poisons.
    uint64_t platform_mask = 0;
    /// Router slot that owns this entry's key. Migration extracts whole
    /// slots, so the rebalancer can hand a re-routed slot's entries to
    /// their new shard.
    uint32_t slot = 0;
  };

  /// `capacity` bounds the number of entries (LRU eviction).
  explicit PlanCache(size_t capacity) : capacity_(capacity) {}

  /// False when constructed with capacity 0: callers skip the key's
  /// options hash (Lookup/Insert would only miss).
  bool enabled() const { return capacity_ > 0; }

  /// The search-relevant slice of OptimizeOptions, hashed. Trace records
  /// and decision records carry this value; the cache itself uses it only
  /// to pick a bucket.
  static uint64_t HashOptions(const OptimizeOptions& options);
  static uint64_t HashOptions(const PlanSearchOptions& options);

  /// On hit under `current_version`, copies the entry into `out`, promotes
  /// it to most-recently-used and returns true. An entry tagged with any
  /// other version counts as a miss and is dropped, as does an entry whose
  /// stored node-hash sequence differs from `sorted_node_hashes` (the
  /// caller plan's per-operator hashes, sorted ascending). `miss_cause`,
  /// when non-null, receives why the lookup missed (kNone on a hit).
  bool Lookup(const PlanCacheKey& key, uint64_t current_version,
              const std::vector<uint64_t>& sorted_node_hashes, Entry* out,
              PlanCacheMissCause* miss_cause = nullptr);

  /// Inserts (or replaces) the entry for `key`, evicting the LRU tail when
  /// over capacity.
  void Insert(const PlanCacheKey& key, Entry entry);

  /// Drops every entry whose plan routes through `platform` (called when the
  /// platform's circuit breaker trips — those plans can no longer run).
  /// Returns the number of entries dropped.
  size_t InvalidatePlatform(PlatformId platform);

  /// Phase 1 of a slot migration: how many entries belong to router slots
  /// with set bits in `slots` (indexed by Entry::slot).
  size_t CountSlots(const std::vector<bool>& slots) const;

  /// Phase 2 of a slot migration: removes every entry of the selected slots
  /// and returns them most-recently-used first (counted in migrated_out).
  std::vector<std::pair<PlanCacheKey, Entry>> ExtractSlots(
      const std::vector<bool>& slots);

  /// Destination side of a migration: compacts `entries` (an ExtractSlots
  /// result, MRU first) into this cache's *cold* end, preserving their
  /// relative recency, so arriving entries never displace the destination's
  /// hot set — they re-earn recency on their first hit. Entries beyond
  /// capacity are dropped (counted as evictions). Returns entries inserted.
  size_t InsertMigrated(std::vector<std::pair<PlanCacheKey, Entry>> entries);

  size_t size() const;
  PlanCacheStats stats() const;

 private:
  struct Node {
    PlanCacheKey key;
    Entry entry;
  };

  /// Internal counters on relaxed atomics: the hit/miss bumps happen on
  /// the lookup hot path and stats() is called by exporters at arbitrary
  /// cadence — neither should serialize on (or extend) the LRU critical
  /// section. Monotone telemetry needs no ordering.
  struct AtomicStats {
    std::atomic<size_t> hits{0};
    std::atomic<size_t> misses{0};
    std::atomic<size_t> insertions{0};
    std::atomic<size_t> evictions{0};
    std::atomic<size_t> invalidations{0};
    std::atomic<size_t> platform_invalidations{0};
    std::atomic<size_t> migrated_in{0};
    std::atomic<size_t> migrated_out{0};
  };

  struct KeyHash {
    size_t operator()(const PlanCacheKey& key) const {
      uint64_t h = key.plan.lo;
      h ^= key.plan.hi + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
      h ^= key.cards_hash + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
      h ^= HashOptions(key.options) + 0x9e3779b97f4a7c15ULL + (h << 6) +
           (h >> 2);
      return static_cast<size_t>(h);
    }
  };

  const size_t capacity_;
  mutable std::mutex mu_;  ///< Guards the LRU state below (not stats_).
  std::list<Node> lru_;    ///< Front = most recently used.
  std::unordered_map<PlanCacheKey, std::list<Node>::iterator, KeyHash> map_;
  AtomicStats stats_;
};

}  // namespace robopt

#endif  // ROBOPT_SERVE_PLAN_CACHE_H_
