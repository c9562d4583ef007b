#include "core/interesting_property.h"

#include <string>
#include <unordered_map>
#include <vector>

namespace robopt {

PlanVectorEnumeration PruneBoundaryWithProperties(
    const EnumerationContext& ctx, const PlanVectorEnumeration& v,
    const CostOracle& oracle,
    const std::vector<const InterestingProperty*>& properties,
    PruneStats* stats) {
  // Number each row's (platform, property codes...) footprint in first-seen
  // order; the champion pass then scores only the contested rows.
  const std::vector<OperatorId>& boundary = v.boundary();
  const size_t stride = 1 + properties.size();
  std::unordered_map<std::string, uint32_t> number;
  std::vector<uint32_t> group_of(v.size());
  std::string key(boundary.size() * stride, '\0');
  for (size_t row = 0; row < v.size(); ++row) {
    const uint8_t* assign = v.assignment(row);
    for (size_t bi = 0; bi < boundary.size(); ++bi) {
      const OperatorId op = boundary[bi];
      key[bi * stride] =
          static_cast<char>(ctx.PlatformOfAssignment(assign, op) + 1);
      const uint8_t alt_index =
          assign[op] != 0 ? static_cast<uint8_t>(assign[op] - 1) : 0;
      for (size_t pi = 0; pi < properties.size(); ++pi) {
        key[bi * stride + 1 + pi] = static_cast<char>(
            properties[pi]->CodeOf(ctx, op, alt_index) + 1);
      }
    }
    group_of[row] =
        number.try_emplace(key, static_cast<uint32_t>(number.size()))
            .first->second;
  }
  return KeepGroupChampions(v, group_of, number.size(), oracle, stats);
}

}  // namespace robopt
