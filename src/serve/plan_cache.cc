#include "serve/plan_cache.h"

#include "obs/metrics.h"

namespace robopt {

namespace {
/// All stats counters are monotone telemetry; relaxed is sufficient.
constexpr std::memory_order kRelaxed = std::memory_order_relaxed;
}  // namespace

void PlanCacheStats::Accumulate(const PlanCacheStats& other) {
  hits += other.hits;
  misses += other.misses;
  insertions += other.insertions;
  evictions += other.evictions;
  invalidations += other.invalidations;
  platform_invalidations += other.platform_invalidations;
  migrated_in += other.migrated_in;
  migrated_out += other.migrated_out;
}

void PlanCacheStats::ExportTo(MetricsRegistry* registry) const {
  if (registry == nullptr) return;
  registry->Set("robopt_plan_cache_hits", static_cast<double>(hits));
  registry->Set("robopt_plan_cache_misses", static_cast<double>(misses));
  registry->Set("robopt_plan_cache_insertions",
                static_cast<double>(insertions));
  registry->Set("robopt_plan_cache_evictions",
                static_cast<double>(evictions));
  registry->Set("robopt_plan_cache_invalidations",
                static_cast<double>(invalidations));
  registry->Set("robopt_plan_cache_platform_invalidations",
                static_cast<double>(platform_invalidations));
  registry->Set("robopt_plan_cache_migrated_in",
                static_cast<double>(migrated_in));
  registry->Set("robopt_plan_cache_migrated_out",
                static_cast<double>(migrated_out));
}

PlanSearchOptions PlanSearchOptions::Of(const OptimizeOptions& options) {
  PlanSearchOptions search;
  search.allowed_platform_mask = options.allowed_platform_mask;
  search.excluded_platform_mask = options.excluded_platform_mask;
  search.single_platform = options.single_platform;
  search.priority = options.priority;
  search.prune = options.prune;
  return search;
}

uint64_t PlanCache::HashOptions(const OptimizeOptions& options) {
  return HashOptions(PlanSearchOptions::Of(options));
}

uint64_t PlanCache::HashOptions(const PlanSearchOptions& options) {
  uint64_t h = options.allowed_platform_mask;
  auto mix = [&h](uint64_t v) {
    h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  };
  mix(options.excluded_platform_mask);
  mix(options.single_platform ? 1 : 0);
  mix(static_cast<uint64_t>(options.priority));
  mix(static_cast<uint64_t>(options.prune));
  mix(0);  // Retired quantized slot: keeps RBTRACE v1 options_hash stable.
  return h;
}

namespace {

/// The entry's stored (hash, alt) pairs are sorted by hash, so positional
/// comparison against the caller's sorted hash sequence decides whether the
/// two plans are genuinely the same dataflow or a fingerprint collision.
bool HashesMatch(const std::vector<std::pair<uint64_t, int16_t>>& assignment,
                 const std::vector<uint64_t>& sorted_node_hashes) {
  if (assignment.size() != sorted_node_hashes.size()) return false;
  for (size_t i = 0; i < assignment.size(); ++i) {
    if (assignment[i].first != sorted_node_hashes[i]) return false;
  }
  return true;
}

}  // namespace

bool PlanCache::Lookup(const PlanCacheKey& key, uint64_t current_version,
                       const std::vector<uint64_t>& sorted_node_hashes,
                       Entry* out, PlanCacheMissCause* miss_cause) {
  auto cause = [miss_cause](PlanCacheMissCause c) {
    if (miss_cause != nullptr) *miss_cause = c;
  };
  std::lock_guard<std::mutex> lock(mu_);
  auto it = map_.find(key);
  if (it == map_.end()) {
    stats_.misses.fetch_add(1, kRelaxed);
    cause(PlanCacheMissCause::kCold);
    return false;
  }
  if (it->second->entry.model_version != current_version) {
    // Lazy invalidation: a promotion happened since this was cached.
    lru_.erase(it->second);
    map_.erase(it);
    stats_.invalidations.fetch_add(1, kRelaxed);
    stats_.misses.fetch_add(1, kRelaxed);
    cause(PlanCacheMissCause::kStaleVersion);
    return false;
  }
  if (!HashesMatch(it->second->entry.assignment, sorted_node_hashes)) {
    // Full-key collision between structurally different plans: serving the
    // entry would assign alternatives to the wrong operators. Drop it.
    lru_.erase(it->second);
    map_.erase(it);
    stats_.invalidations.fetch_add(1, kRelaxed);
    stats_.misses.fetch_add(1, kRelaxed);
    cause(PlanCacheMissCause::kHashMismatch);
    return false;
  }
  lru_.splice(lru_.begin(), lru_, it->second);
  *out = it->second->entry;
  stats_.hits.fetch_add(1, kRelaxed);
  cause(PlanCacheMissCause::kNone);
  return true;
}

void PlanCache::Insert(const PlanCacheKey& key, Entry entry) {
  if (capacity_ == 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  auto it = map_.find(key);
  if (it != map_.end()) {
    it->second->entry = std::move(entry);
    lru_.splice(lru_.begin(), lru_, it->second);
    stats_.insertions.fetch_add(1, kRelaxed);
    return;
  }
  lru_.push_front(Node{key, std::move(entry)});
  map_[key] = lru_.begin();
  stats_.insertions.fetch_add(1, kRelaxed);
  while (map_.size() > capacity_) {
    map_.erase(lru_.back().key);
    lru_.pop_back();
    stats_.evictions.fetch_add(1, kRelaxed);
  }
}

size_t PlanCache::InvalidatePlatform(PlatformId platform) {
  std::lock_guard<std::mutex> lock(mu_);
  const uint64_t bit = 1ull << platform;
  size_t dropped = 0;
  for (auto it = lru_.begin(); it != lru_.end();) {
    if (it->entry.platform_mask & bit) {
      map_.erase(it->key);
      it = lru_.erase(it);
      ++dropped;
    } else {
      ++it;
    }
  }
  stats_.platform_invalidations.fetch_add(dropped, kRelaxed);
  return dropped;
}

size_t PlanCache::CountSlots(const std::vector<bool>& slots) const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t count = 0;
  for (const Node& node : lru_) {
    if (node.entry.slot < slots.size() && slots[node.entry.slot]) ++count;
  }
  return count;
}

std::vector<std::pair<PlanCacheKey, PlanCache::Entry>> PlanCache::ExtractSlots(
    const std::vector<bool>& slots) {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<PlanCacheKey, Entry>> out;
  for (auto it = lru_.begin(); it != lru_.end();) {
    if (it->entry.slot < slots.size() && slots[it->entry.slot]) {
      map_.erase(it->key);
      out.emplace_back(it->key, std::move(it->entry));
      it = lru_.erase(it);
    } else {
      ++it;
    }
  }
  stats_.migrated_out.fetch_add(out.size(), kRelaxed);
  return out;  // lru_ iteration order: MRU first.
}

size_t PlanCache::InsertMigrated(
    std::vector<std::pair<PlanCacheKey, Entry>> entries) {
  if (capacity_ == 0) return 0;
  std::lock_guard<std::mutex> lock(mu_);
  size_t inserted = 0;
  for (auto& [key, entry] : entries) {
    if (map_.count(key) != 0) continue;  // Destination already knows it.
    if (map_.size() >= capacity_) {
      // The cold end is full: the remaining (even colder) migrants would
      // only displace what was just compacted in. Drop them.
      stats_.evictions.fetch_add(1, kRelaxed);
      continue;
    }
    // Appending MRU-first input to the back keeps relative recency: the
    // hottest migrant sits closest to the destination's resident set.
    lru_.push_back(Node{key, std::move(entry)});
    map_[key] = std::prev(lru_.end());
    ++inserted;
  }
  stats_.migrated_in.fetch_add(inserted, kRelaxed);
  return inserted;
}

size_t PlanCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return map_.size();
}

PlanCacheStats PlanCache::stats() const {
  // Relaxed snapshot — no lock, so exporters and per-shard aggregation
  // never contend with the lookup path.
  PlanCacheStats out;
  out.hits = stats_.hits.load(kRelaxed);
  out.misses = stats_.misses.load(kRelaxed);
  out.insertions = stats_.insertions.load(kRelaxed);
  out.evictions = stats_.evictions.load(kRelaxed);
  out.invalidations = stats_.invalidations.load(kRelaxed);
  out.platform_invalidations = stats_.platform_invalidations.load(kRelaxed);
  out.migrated_in = stats_.migrated_in.load(kRelaxed);
  out.migrated_out = stats_.migrated_out.load(kRelaxed);
  return out;
}

}  // namespace robopt
