#ifndef ROBOPT_SERVE_SHARD_ROUTER_H_
#define ROBOPT_SERVE_SHARD_ROUTER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "plan/fingerprint.h"

namespace robopt {

/// Router-side counters (cumulative since construction).
struct RouterStats {
  std::vector<uint64_t> routed;  ///< Requests routed, per shard.
  uint64_t rebalances = 0;       ///< DetectImbalance calls that produced a plan.
  uint64_t slots_moved = 0;      ///< Slot reassignments applied.
};

/// Lock-free request router of the sharded OptimizerService. The hash space
/// of (tenant, canonical plan fingerprint) is divided into `num_slots`
/// slots; each slot is owned by one shard through an atomic indirection
/// table, so
///
///   - routing is two relaxed loads and a multiply-mix hash — no locks, no
///     contention between concurrent callers;
///   - repeat queries (same tenant, same canonical plan) always land on the
///     same slot, hence on the shard whose PlanCache and oracle cache are
///     warm for them;
///   - rebalancing is a per-slot atomic store: requests racing with a move
///     simply route to the old or new owner, both of which serve correctly
///     (the worst case is a cold-cache miss).
///
/// The router also keeps per-slot load counters over a *window* (reset by
/// each DetectImbalance call). Sustained imbalance — the hottest shard
/// carrying more than `imbalance_factor` times the per-shard average for
/// `min_checks` consecutive windows — yields a MigrationPlan: a set of hot
/// slots to hand from the hottest to the coldest shard, sized to bring the
/// hot shard back to average. The serving layer then runs the two-phase
/// (count, payload) cache-entry exchange and applies MoveSlot per slot.
class ShardRouter {
 public:
  /// `num_slots` is rounded up to a power of two (default 256 — enough
  /// granularity to split load 64 ways per shard at 4 shards).
  explicit ShardRouter(int num_shards, size_t num_slots = 256);

  /// The deterministic shard-count convention, mirroring
  /// OptimizeOptions::num_threads: 0 = one shard per hardware core, n = n
  /// shards (n = 1 is the same serving path with a single shard).
  static int ResolveShardCount(int num_shards);

  /// Multiply-mix of (tenant, fingerprint) — the routing key. Stable across
  /// plan construction order because the fingerprint is canonical.
  static uint64_t RouteHash(uint64_t tenant, const PlanFingerprint& plan);

  uint32_t SlotOf(uint64_t route_hash) const {
    return static_cast<uint32_t>(route_hash & slot_mask_);
  }
  uint32_t ShardOf(uint32_t slot) const {
    return owner_[slot].load(std::memory_order_relaxed);
  }

  /// Routes one request: returns the owning shard, fills `*slot`, and
  /// counts the hit into the per-slot window and per-shard totals.
  uint32_t Route(uint64_t tenant, const PlanFingerprint& plan,
                 uint32_t* slot);

  /// One migration decision: the source and destination shard and the slots
  /// to hand over (`slot_set` is the same selection as a num_slots-sized
  /// membership vector, ready for PlanCache::CountSlots/ExtractSlots).
  struct MigrationPlan {
    uint32_t from = 0;
    uint32_t to = 0;
    std::vector<uint32_t> slots;
    std::vector<bool> slot_set;
  };

  /// Closes the current load window and decides whether to migrate (see
  /// class comment). Single consumer: callers must serialize (the serving
  /// layer runs this from one maintenance context). Returns true and fills
  /// `*plan` when sustained imbalance warrants a move; the caller is
  /// expected to migrate cache entries and then MoveSlot() each slot.
  bool DetectImbalance(double imbalance_factor, int min_checks,
                       MigrationPlan* plan);

  /// Reassigns `slot` to shard `to` (atomic; racing requests route to the
  /// old or new owner, never to garbage).
  void MoveSlot(uint32_t slot, uint32_t to);

  int num_shards() const { return num_shards_; }
  size_t num_slots() const { return owner_.size(); }
  RouterStats stats() const;

 private:
  int num_shards_;
  uint64_t slot_mask_;
  /// slot -> owning shard. unique_ptr-free flat storage; atomics are
  /// neither copyable nor movable, so the vector is sized once.
  std::vector<std::atomic<uint32_t>> owner_;
  /// Per-slot window counters (reset by DetectImbalance).
  std::vector<std::atomic<uint64_t>> slot_window_;
  /// Per-shard cumulative routed counters.
  std::vector<std::atomic<uint64_t>> shard_routed_;
  std::atomic<uint64_t> rebalances_{0};
  std::atomic<uint64_t> slots_moved_{0};
  /// Consecutive imbalanced windows (only touched by the DetectImbalance
  /// caller).
  int imbalance_streak_ = 0;
};

}  // namespace robopt

#endif  // ROBOPT_SERVE_SHARD_ROUTER_H_
