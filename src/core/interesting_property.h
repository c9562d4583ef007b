#ifndef ROBOPT_CORE_INTERESTING_PROPERTY_H_
#define ROBOPT_CORE_INTERESTING_PROPERTY_H_

#include <cstdint>
#include <string>

#include "core/operations.h"

namespace robopt {

/// An interesting property in the Selinger sense, adapted to plan vectors
/// (Section V: the boundary-operator pruning "is an instance of interesting
/// properties... one can easily extend the enumeration algorithm to account
/// for other interesting properties by simply modifying the prune
/// operation").
///
/// A property maps each (boundary operator, chosen alternative) to a small
/// code; two plan vectors share a pruning footprint only if their boundary
/// operators agree on the platform AND on every registered property. More
/// properties mean finer partitions — less pruning, but losslessness is
/// preserved for any downstream cost that depends on boundary operators
/// only through (platform, property codes).
class InterestingProperty {
 public:
  virtual ~InterestingProperty() = default;

  /// Code of operator `op` when executed with the `alt_index`-th entry of
  /// the registry's alternatives for its kind. Must be < 250.
  virtual uint8_t CodeOf(const EnumerationContext& ctx, OperatorId op,
                         uint8_t alt_index) const = 0;

  virtual std::string Name() const = 0;
};

/// Distinguishes same-platform execution variants at the boundary (e.g.
/// Spark's stateful vs cache-based sampler): downstream costs may depend on
/// which variant produced the data, not just where it ran.
class VariantProperty : public InterestingProperty {
 public:
  uint8_t CodeOf(const EnumerationContext& ctx, OperatorId op,
                 uint8_t alt_index) const override {
    const auto& alts =
        ctx.registry->AlternativesFor(ctx.plan->op(op).kind);
    return alts[alt_index].variant;
  }
  std::string Name() const override { return "variant"; }
};

/// Whether the boundary operator emits key-ordered output (our Sort does,
/// on any platform) — the classic Selinger interesting order, preserved so
/// a downstream merge-style consumer could exploit it.
class SortednessProperty : public InterestingProperty {
 public:
  uint8_t CodeOf(const EnumerationContext& ctx, OperatorId op,
                 uint8_t /*alt_index*/) const override {
    return ctx.plan->op(op).kind == LogicalOpKind::kSort ? 1 : 0;
  }
  std::string Name() const override { return "sortedness"; }
};

/// prune(V, m) generalized with interesting properties: groups rows by the
/// (platform, property codes...) of every boundary operator and keeps the
/// cheapest row per group, scoring only rows that have a rival in their
/// group (see PruneBoundary). With an empty property list this is exactly
/// PruneBoundary.
PlanVectorEnumeration PruneBoundaryWithProperties(
    const EnumerationContext& ctx, const PlanVectorEnumeration& v,
    const CostOracle& oracle,
    const std::vector<const InterestingProperty*>& properties,
    PruneStats* stats = nullptr);

}  // namespace robopt

#endif  // ROBOPT_CORE_INTERESTING_PROPERTY_H_
