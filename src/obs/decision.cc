#include "obs/decision.h"

#include <algorithm>
#include <cstdio>

#include "obs/metrics.h"

namespace robopt {

namespace {

size_t RoundUpPow2(size_t n) {
  size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

const char* StatusCodeLabel(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "ok";
    case StatusCode::kInvalidArgument:
      return "invalid_argument";
    case StatusCode::kNotFound:
      return "not_found";
    case StatusCode::kOutOfRange:
      return "out_of_range";
    case StatusCode::kFailedPrecondition:
      return "failed_precondition";
    case StatusCode::kInternal:
      return "internal";
    case StatusCode::kUnimplemented:
      return "unimplemented";
    case StatusCode::kResourceExhausted:
      return "resource_exhausted";
    case StatusCode::kUnavailable:
      return "unavailable";
  }
  return "unknown";
}

}  // namespace

const char* ShedReasonName(ShedReason reason) {
  switch (reason) {
    case ShedReason::kNone:
      return "none";
    case ShedReason::kQueueFull:
      return "queue_full";
    case ShedReason::kDeadline:
      return "deadline";
    case ShedReason::kSloDeadline:
      return "slo_deadline";
    case ShedReason::kSloQueue:
      return "slo_queue";
  }
  return "unknown";
}

const char* DecisionCacheResultName(DecisionCacheResult result) {
  switch (result) {
    case DecisionCacheResult::kDisabled:
      return "disabled";
    case DecisionCacheResult::kHit:
      return "hit";
    case DecisionCacheResult::kMissCold:
      return "miss_cold";
    case DecisionCacheResult::kMissStaleVersion:
      return "miss_stale_version";
    case DecisionCacheResult::kMissHashMismatch:
      return "miss_hash_mismatch";
    case DecisionCacheResult::kMissUntransferable:
      return "miss_untransferable";
  }
  return "unknown";
}

DecisionRing::DecisionRing(size_t capacity)
    : capacity_(RoundUpPow2(std::max<size_t>(capacity, 2))),
      slots_(std::make_unique<Slot[]>(capacity_)) {}

void DecisionRing::Record(DecisionRecord record) {
  const uint64_t ticket =
      next_ticket_.fetch_add(1, std::memory_order_relaxed);
  record.seq = ticket;
  Slot& slot = slots_[ticket & (capacity_ - 1)];
  uint32_t state = slot.state.load(std::memory_order_relaxed);
  // Take the slot from kEmpty or kReady (a wrapped-over old record); a
  // concurrent writer or reader on the same slot means the ring lapped an
  // in-flight operation — drop rather than wait (counted).
  do {
    if (state == kWriting || state == kReading) {
      dropped_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
  } while (!slot.state.compare_exchange_weak(state, kWriting,
                                             std::memory_order_acquire,
                                             std::memory_order_relaxed));
  slot.ticket = ticket;
  slot.record = record;
  slot.state.store(kReady, std::memory_order_release);
  recorded_.fetch_add(1, std::memory_order_relaxed);
}

std::vector<DecisionRecord> DecisionRing::Collect(size_t max_records) const {
  struct Ticketed {
    uint64_t ticket;
    DecisionRecord record;
  };
  std::vector<Ticketed> out;
  out.reserve(capacity_);
  for (size_t i = 0; i < capacity_; ++i) {
    Slot& slot = const_cast<Slot&>(slots_[i]);
    uint32_t state = slot.state.load(std::memory_order_acquire);
    if (state != kReady) continue;
    if (!slot.state.compare_exchange_strong(state, kReading,
                                            std::memory_order_acquire)) {
      continue;
    }
    Ticketed t{slot.ticket, slot.record};
    slot.state.store(kReady, std::memory_order_release);
    out.push_back(std::move(t));
  }
  std::sort(out.begin(), out.end(),
            [](const Ticketed& a, const Ticketed& b) {
              return a.ticket < b.ticket;
            });
  if (max_records > 0 && out.size() > max_records) {
    out.erase(out.begin(),
              out.begin() + static_cast<ptrdiff_t>(out.size() - max_records));
  }
  std::vector<DecisionRecord> records;
  records.reserve(out.size());
  for (Ticketed& t : out) records.push_back(t.record);
  return records;
}

void DecisionRing::ExportTo(MetricsRegistry* registry) const {
  if (registry == nullptr) return;
  registry->Set("robopt_decisions_recorded_total",
                static_cast<double>(recorded()));
  registry->Set("robopt_decisions_dropped_total",
                static_cast<double>(dropped()));
}

std::string ExportDecisionsJson(const std::vector<DecisionRecord>& records) {
  std::string out = "[\n";
  char buf[256];
  bool first = true;
  for (const DecisionRecord& r : records) {
    if (!first) out += ",\n";
    first = false;
    out += "  {";
    std::snprintf(buf, sizeof(buf),
                  "\"seq\": %llu, \"wall_us\": %.3f, \"tenant\": %llu, "
                  "\"fingerprint\": \"%016llx%016llx\", ",
                  static_cast<unsigned long long>(r.seq), r.wall_us,
                  static_cast<unsigned long long>(r.tenant),
                  static_cast<unsigned long long>(r.fp_hi),
                  static_cast<unsigned long long>(r.fp_lo));
    out += buf;
    std::snprintf(buf, sizeof(buf),
                  "\"shard\": %u, \"status\": \"%s\", \"shed\": \"%s\", "
                  "\"cache\": \"%s\", \"slo_health\": %u, ",
                  r.shard, StatusCodeLabel(r.status), ShedReasonName(r.shed),
                  DecisionCacheResultName(r.cache),
                  static_cast<unsigned>(r.slo_health));
    out += buf;
    std::snprintf(
        buf, sizeof(buf),
        "\"platform\": %u, \"open_breakers\": %llu, "
        "\"excluded_mask\": %llu, \"model_version\": %llu, ",
        static_cast<unsigned>(r.chosen_platform),
        static_cast<unsigned long long>(r.open_breaker_mask),
        static_cast<unsigned long long>(r.excluded_platform_mask),
        static_cast<unsigned long long>(r.model_version));
    out += buf;
    std::snprintf(
        buf, sizeof(buf),
        "\"predicted_s\": %.9g, \"vectors_created\": %llu, "
        "\"vectors_pruned\": %llu, \"final_vectors\": %llu, "
        "\"oracle_rows\": %llu, \"latency_us\": %.3f",
        static_cast<double>(r.predicted_runtime_s),
        static_cast<unsigned long long>(r.vectors_created),
        static_cast<unsigned long long>(r.vectors_pruned),
        static_cast<unsigned long long>(r.final_vectors),
        static_cast<unsigned long long>(r.oracle_rows), r.latency_us);
    out += buf;
    out += ", \"runners_up\": [";
    for (uint32_t i = 0; i < r.num_runners && i < kDecisionRunners; ++i) {
      if (i > 0) out += ", ";
      std::snprintf(buf, sizeof(buf),
                    "{\"predicted_s\": %.9g, \"assignment_hash\": "
                    "\"%016llx\"}",
                    static_cast<double>(r.runners[i].predicted_runtime_s),
                    static_cast<unsigned long long>(
                        r.runners[i].assignment_hash));
      out += buf;
    }
    out += "]}";
  }
  out += "\n]\n";
  return out;
}

}  // namespace robopt
