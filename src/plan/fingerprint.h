#ifndef ROBOPT_PLAN_FINGERPRINT_H_
#define ROBOPT_PLAN_FINGERPRINT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "plan/cardinality.h"
#include "plan/logical_plan.h"

namespace robopt {

/// 128-bit canonical fingerprint of a logical plan. Two plans that describe
/// the same dataflow graph — same operator kinds, UDF classes, selectivities,
/// cardinality/tuple-size declarations, kernels, loop structure, and the same
/// data/broadcast edges — fingerprint identically *regardless of the order
/// operators were added in*. The serving layer's plan cache keys on it.
struct PlanFingerprint {
  uint64_t lo = 0;
  uint64_t hi = 0;

  bool operator==(const PlanFingerprint& other) const {
    return lo == other.lo && hi == other.hi;
  }
  bool operator!=(const PlanFingerprint& other) const {
    return !(*this == other);
  }

  /// 32 hex digits, for logs and debugging.
  std::string ToString() const;
};

/// A plan's operators in canonical order: per-node hashes sorted ascending,
/// ties broken by id, and `ids[i]` the operator whose hash is `hashes[i]`.
/// Operator ids are insertion-order artifacts, but two builds of the same
/// dataflow have equal `hashes`: position i is the correspondence between
/// their id spaces. Per-operator decisions cached under the fingerprint
/// (the serving plan cache) transfer through it, never by raw id. Equal
/// hashes mark structurally interchangeable operators, so any pairing
/// within a tie group is valid.
struct CanonicalOrder {
  std::vector<uint64_t> hashes;
  std::vector<OperatorId> ids;
};

/// Computes the canonical fingerprint. Each operator's local fields are
/// hashed once; a forward pass extends that hash over its parents' hashes
/// (positional: a Join's build and probe side keep their roles) and a
/// backward pass over its children's, so every node's combined value
/// encodes both its full ancestry and its full downstream use. The plan
/// fingerprint folds the combined per-node hashes in sorted order, which is
/// what makes it insertion-order independent.
PlanFingerprint FingerprintPlan(const LogicalPlan& plan);

/// As above, and additionally returns the canonical order the fingerprint
/// folded, so callers need no sort of their own.
PlanFingerprint FingerprintPlan(const LogicalPlan& plan,
                                CanonicalOrder* canonical);

/// Order-sensitive 64-bit hash of injected cardinalities (per-operator
/// input/output tuple counts). Combined with the plan fingerprint when a
/// cache key must distinguish the same plan under different observed
/// cardinalities.
uint64_t FingerprintCards(const Cardinalities& cards);

}  // namespace robopt

#endif  // ROBOPT_PLAN_FINGERPRINT_H_
