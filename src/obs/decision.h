#ifndef ROBOPT_OBS_DECISION_H_
#define ROBOPT_OBS_DECISION_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"

namespace robopt {

class MetricsRegistry;

/// Why a request was rejected at admission (sharded serving).
enum class ShedReason : uint8_t {
  kNone = 0,
  kQueueFull = 1,    ///< Shard admission queue at capacity.
  kDeadline = 2,     ///< Estimated queue delay past the request deadline.
  kSloDeadline = 3,  ///< Past the deadline only because critical SLO burn
                     ///< tightened it (the request would have been admitted
                     ///< under the untightened deadline).
  kSloQueue = 4,     ///< Depth past the SLO-tightened effective queue bound.
};

const char* ShedReasonName(ShedReason reason);

/// How the plan cache answered for a request.
enum class DecisionCacheResult : uint8_t {
  kDisabled = 0,           ///< Cache capacity 0 — no lookup attempted.
  kHit = 1,
  kMissCold = 2,           ///< Key never seen (or evicted).
  kMissStaleVersion = 3,   ///< Entry died to a model promotion.
  kMissHashMismatch = 4,   ///< Fingerprint collision — entry dropped.
  kMissUntransferable = 5, ///< Hit, but the assignment failed to replay.
};

const char* DecisionCacheResultName(DecisionCacheResult result);

/// One runner-up plan the enumeration considered: the predicted cost and a
/// hash of the per-operator assignment (enough to tell "how close was the
/// second-best, and was it a different plan?" without storing plans).
struct DecisionRunnerUp {
  float predicted_runtime_s = 0.0f;
  uint64_t assignment_hash = 0;
};

inline constexpr size_t kDecisionRunners = 3;

/// Per-request "query explain": every layered decision the serving path
/// made for one Optimize() call, POD-sized so a ring-slot write is a plain
/// struct copy. Assembled at the service's request choke point and kept in
/// a bounded lock-free DecisionRing; exportable as JSON.
struct DecisionRecord {
  uint64_t seq = 0;     ///< Ring ticket — global request order.
  double wall_us = 0.0; ///< Micros since the ring's epoch (steady clock).
  uint64_t tenant = 0;
  uint64_t fp_lo = 0;   ///< Canonical plan fingerprint (0 if not computed).
  uint64_t fp_hi = 0;
  uint64_t options_hash = 0;  ///< PlanCache::HashOptions of caller options.
  uint32_t shard = 0;         ///< Shard the request was routed to.
  StatusCode status = StatusCode::kOk;
  ShedReason shed = ShedReason::kNone;
  DecisionCacheResult cache = DecisionCacheResult::kDisabled;
  uint8_t slo_health = 0;     ///< SloHealth at admission (0 = ok / no SLO).
  uint8_t chosen_platform = 0;
  uint64_t open_breaker_mask = 0;      ///< Breakers open at call time.
  uint64_t excluded_platform_mask = 0; ///< Effective exclusion mask.
  uint64_t model_version = 0;
  float predicted_runtime_s = 0.0f;
  uint64_t vectors_created = 0;
  uint64_t vectors_pruned = 0;
  uint64_t final_vectors = 0;
  uint64_t oracle_rows = 0;
  double latency_us = 0.0;  ///< End-to-end service latency (queue included).
  uint32_t num_runners = 0;
  DecisionRunnerUp runners[kDecisionRunners] = {};
};

/// Bounded lock-free ring of the most recent DecisionRecords: same
/// ticket-claimed slot design as the Tracer span ring (fetch_add ticket,
/// one CAS to take the slot, struct copy, release store) — a Record()
/// never blocks the serving path and never allocates. Ring wrap overwrites
/// the oldest records by design; writer/reader collisions on one slot drop
/// the record and count it.
class DecisionRing {
 public:
  /// `capacity` is rounded up to a power of two slots.
  explicit DecisionRing(size_t capacity = 1024);

  /// Records one decision; assigns DecisionRecord::seq from the ticket.
  void Record(DecisionRecord record);

  /// The most recent records, oldest first. `max_records` 0 = everything
  /// retained.
  std::vector<DecisionRecord> Collect(size_t max_records = 0) const;

  size_t capacity() const { return capacity_; }
  uint64_t recorded() const {
    return recorded_.load(std::memory_order_relaxed);
  }
  uint64_t dropped() const { return dropped_.load(std::memory_order_relaxed); }

  /// Mirrors ring health into robopt_decisions_recorded_total /
  /// robopt_decisions_dropped_total gauges.
  void ExportTo(MetricsRegistry* registry) const;

 private:
  enum SlotState : uint32_t {
    kEmpty = 0,
    kWriting = 1,
    kReady = 2,
    kReading = 3
  };
  struct Slot {
    std::atomic<uint32_t> state{kEmpty};
    uint64_t ticket = 0;
    DecisionRecord record;
  };

  const size_t capacity_;  ///< Power of two.
  std::unique_ptr<Slot[]> slots_;
  std::atomic<uint64_t> next_ticket_{0};
  std::atomic<uint64_t> recorded_{0};
  std::atomic<uint64_t> dropped_{0};
};

/// JSON array of decision records (readable enum names, hex fingerprints),
/// the wire shape of a "recent queries" debug endpoint.
std::string ExportDecisionsJson(const std::vector<DecisionRecord>& records);

}  // namespace robopt

#endif  // ROBOPT_OBS_DECISION_H_
