// Property test for Concat: on seeded random plans, random Concat sequences
// must (a) carry the exact boundary of every merged scope, as the full edge
// scan of ComputeBoundary finds it, and (b) produce, row for row, the bits
// of MergeRows on the same (i, j) pair and of a reference merge that tests
// every plan edge against both scopes for every row.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/feature_schema.h"
#include "core/linear_oracle.h"
#include "core/operations.h"
#include "workloads/queries.h"
#include "workloads/synthetic.h"

namespace robopt {
namespace {

/// Rows of a merge at or above which Concat shards the pair space.
constexpr size_t kParallelCutoverRows = 2048;
/// Before a merge each side is stride-subsampled to at most this many rows
/// (64^2 = 4096 rows, above the cutover) in a few merges, and to at most
/// kSmallSideRows in the rest, which keeps the row-by-row check fast.
constexpr size_t kMaxSideRows = 64;
constexpr size_t kSmallSideRows = 16;

/// Appends `src` to `dst` as a separate component: operators, data and
/// broadcast edges and loop pairings, with ids shifted past `dst`'s.
void AppendComponent(const LogicalPlan& src, LogicalPlan* dst) {
  const OperatorId offset = static_cast<OperatorId>(dst->num_operators());
  for (LogicalOperator op : src.operators()) {
    if (op.loop_begin != kInvalidOperatorId) op.loop_begin += offset;
    dst->Add(op);
  }
  for (const LogicalOperator& op : src.operators()) {
    for (OperatorId child : src.children(op.id)) {
      dst->Connect(op.id + offset, child + offset);
    }
    for (OperatorId child : src.side_children(op.id)) {
      dst->ConnectBroadcast(op.id + offset, child + offset);
    }
  }
}

LogicalPlan RandomComponent(Rng* rng) {
  const double cardinality =
      1e3 * static_cast<double>(rng->NextInt(1, 10000));
  const uint64_t seed = rng->Next();
  switch (rng->NextBounded(5)) {
    case 0:
      return MakeSyntheticPipeline(static_cast<int>(rng->NextInt(3, 30)),
                                   cardinality, seed, rng->NextBernoulli(0.3));
    case 1:
      return MakeSyntheticJoinTree(static_cast<int>(rng->NextInt(1, 5)),
                                   cardinality, seed);
    case 2:
      return MakeSyntheticLoopPlan(static_cast<int>(rng->NextInt(9, 24)),
                                   cardinality,
                                   static_cast<int>(rng->NextInt(1, 30)), seed);
    case 3:
      return MakeKmeansPlan(static_cast<double>(rng->NextInt(1, 500)),
                            static_cast<int>(rng->NextInt(2, 50)),
                            static_cast<int>(rng->NextInt(1, 20)));
    default:
      return MakeCrocoPrPlan(static_cast<double>(rng->NextInt(1, 20)),
                             static_cast<int>(rng->NextInt(1, 20)),
                             rng->NextBernoulli(0.5));
  }
}

/// One to three components; sometimes a broadcast edge joins the first
/// component to a later one, otherwise they stay disconnected.
LogicalPlan RandomPlan(uint64_t seed) {
  Rng rng(seed);
  LogicalPlan plan;
  const int components = static_cast<int>(rng.NextInt(1, 3));
  for (int c = 0; c < components; ++c) {
    const int first_of_component = plan.num_operators();
    AppendComponent(RandomComponent(&rng), &plan);
    if (c > 0 && rng.NextBernoulli(0.5)) {
      const OperatorId from =
          static_cast<OperatorId>(rng.NextBounded(first_of_component));
      const OperatorId to = static_cast<OperatorId>(
          first_of_component +
          rng.NextBounded(plan.num_operators() - first_of_component));
      if (!plan.parents(to).empty()) plan.ConnectBroadcast(from, to);
    }
  }
  return plan;
}

/// A copy of `v` (same scope and boundary) keeping every k-th row so that
/// at most `max_rows` remain.
PlanVectorEnumeration Subsample(const PlanVectorEnumeration& v,
                                size_t max_rows) {
  if (v.size() <= max_rows) return v;
  PlanVectorEnumeration out(v.width(), v.num_ops());
  out.mutable_scope() = v.scope();
  out.set_boundary(v.boundary());
  const size_t stride = (v.size() + max_rows - 1) / max_rows;
  for (size_t row = 0; row < v.size(); row += stride) out.AppendCopy(v, row);
  return out;
}

/// The merge as a per-row scan of every plan edge against both scopes.
struct ReferenceRow {
  std::vector<float> features;
  std::vector<uint8_t> assignment;
  uint16_t switches = 0;
};

ReferenceRow ReferenceMerge(const EnumerationContext& ctx,
                            const PlanVectorEnumeration& a, size_t row_a,
                            const PlanVectorEnumeration& b, size_t row_b) {
  const FeatureSchema& schema = *ctx.schema;
  ReferenceRow out;
  out.features.resize(a.width());
  for (size_t c = 0; c < a.width(); ++c) {
    out.features[c] = a.features(row_a)[c] + b.features(row_b)[c];
  }
  for (size_t cell : {schema.TopologyCell(Topology::kPipeline),
                      schema.TupleSizeCell()}) {
    out.features[cell] =
        std::max(a.features(row_a)[cell], b.features(row_b)[cell]);
  }
  out.assignment.resize(a.num_ops());
  for (size_t op = 0; op < a.num_ops(); ++op) {
    out.assignment[op] = a.assignment(row_a)[op] | b.assignment(row_b)[op];
  }
  out.switches = a.switches(row_a) + b.switches(row_b);
  for (const EnumerationContext::Edge& edge : ctx.edges) {
    const bool crosses =
        (a.scope().test(edge.from) && b.scope().test(edge.to)) ||
        (b.scope().test(edge.from) && a.scope().test(edge.to));
    if (!crosses) continue;
    const PlatformId from =
        ctx.PlatformOfAssignment(out.assignment.data(), edge.from);
    const PlatformId to =
        ctx.PlatformOfAssignment(out.assignment.data(), edge.to);
    if (from == to) continue;
    const float conv_iters = static_cast<float>(
        std::min(ctx.loop_iters[edge.from], ctx.loop_iters[edge.to]));
    const float tuples =
        static_cast<float>(ctx.cards.output[edge.from]) * conv_iters;
    out.features[ctx.conv_cell_count[from][to]] += conv_iters;
    out.features[ctx.conv_cell_in[from][to]] += tuples;
    out.features[ctx.conv_cell_out[from][to]] += tuples;
    ++out.switches;
  }
  return out;
}

/// Checks every row of `merged` = Concat(a, b) against MergeRows and the
/// reference merge; returns false (after one failure message) on the first
/// mismatch.
bool RowsMatch(const EnumerationContext& ctx, const PlanVectorEnumeration& a,
               const PlanVectorEnumeration& b,
               const PlanVectorEnumeration& merged, const std::string& where) {
  if (merged.size() != a.size() * b.size()) {
    ADD_FAILURE() << where << ": " << merged.size() << " rows";
    return false;
  }
  const size_t width_bytes = merged.width() * sizeof(float);
  PlanVectorEnumeration single(merged.width(), merged.num_ops());
  for (size_t r = 0; r < merged.size(); ++r) {
    const size_t i = r / b.size();
    const size_t j = r % b.size();
    single.Clear();
    MergeRows(ctx, a, i, b, j, &single);
    const ReferenceRow ref = ReferenceMerge(ctx, a, i, b, j);
    const bool same =
        std::memcmp(merged.features(r), single.features(0), width_bytes) ==
            0 &&
        std::memcmp(merged.features(r), ref.features.data(), width_bytes) ==
            0 &&
        std::memcmp(merged.assignment(r), single.assignment(0),
                    merged.num_ops()) == 0 &&
        std::memcmp(merged.assignment(r), ref.assignment.data(),
                    merged.num_ops()) == 0 &&
        merged.switches(r) == single.switches(0) &&
        merged.switches(r) == ref.switches;
    if (!same) {
      ADD_FAILURE() << where << ": row " << r << " = (" << i << ", " << j
                    << ") differs from the pairwise merge";
      return false;
    }
  }
  return true;
}

/// Random Concat sequences over kPlans seeded plans on `registry`, at 1 and
/// 4 threads, each merge checked by RowsMatch. Sets `*saw_ops_remainder`
/// when a plan has more than 16 operators and a count not a multiple of 16.
void CheckRandomConcats(const PlatformRegistry& registry,
                        bool* saw_ops_remainder) {
  constexpr int kPlans = 40;
  const FeatureSchema schema(&registry);
  const LinearFeatureOracle oracle(schema, 7);
  for (int threads : {1, 4}) {
    size_t merges = 0;
    size_t sharded_merges = 0;
    for (int p = 0; p < kPlans; ++p) {
      const uint64_t seed = 0xc0ca7000ULL + static_cast<uint64_t>(p);
      const LogicalPlan plan = RandomPlan(seed);
      if (plan.num_operators() > 16 && plan.num_operators() % 16 != 0) {
        *saw_ops_remainder = true;
      }
      auto made = EnumerationContext::Make(&plan, &registry, &schema);
      ASSERT_TRUE(made.ok()) << "seed " << seed << ": "
                             << made.status().ToString();
      const EnumerationContext& ctx = made.value();

      std::vector<PlanVectorEnumeration> enums;
      for (const AbstractPlanVector& single : Split(ctx, Vectorize(ctx))) {
        enums.push_back(Enumerate(ctx, single));
        ASSERT_EQ(enums.back().boundary(),
                  ComputeBoundary(ctx, enums.back().scope()))
            << "seed " << seed << ", singleton " << single.ops[0];
      }
      Rng rng(seed ^ 0x5eedULL);
      while (enums.size() > 1) {
        const size_t i = rng.NextBounded(enums.size());
        size_t j = rng.NextBounded(enums.size() - 1);
        if (j >= i) ++j;
        const size_t side_rows =
            rng.NextBernoulli(0.05) ? kMaxSideRows : kSmallSideRows;
        const PlanVectorEnumeration a = Subsample(enums[i], side_rows);
        const PlanVectorEnumeration b = Subsample(enums[j], side_rows);
        PlanVectorEnumeration merged = Concat(ctx, a, b, threads);
        const std::string where =
            "seed " + std::to_string(seed) + ", " +
            std::to_string(registry.num_platforms()) + " platforms, " +
            std::to_string(threads) + " threads, merge " +
            std::to_string(merges);
        ++merges;
        if (merged.size() >= kParallelCutoverRows) ++sharded_merges;
        ASSERT_EQ(merged.boundary(), ComputeBoundary(ctx, merged.scope()))
            << where;
        ASSERT_TRUE(RowsMatch(ctx, a, b, merged, where));
        if (rng.NextBernoulli(0.7)) {
          merged = PruneBoundary(ctx, merged, oracle, nullptr, threads);
        }
        enums[i] = std::move(merged);
        enums.erase(enums.begin() + static_cast<ptrdiff_t>(j));
      }
      EXPECT_TRUE(enums[0].boundary().empty()) << "seed " << seed;
      EXPECT_EQ(enums[0].scope().count(),
                static_cast<size_t>(plan.num_operators()));
    }
    EXPECT_GT(merges, 1000u);
    EXPECT_GT(sharded_merges, 0u)
        << registry.num_platforms() << " platforms, " << threads << " threads";
  }
}

TEST(ConcatPropertyTest, BoundaryAndRowsMatchReferenceOnRandomPlans) {
  // MergeRowInto's feature add and assignment OR are vector loops over 16
  // bytes at a time: 4 floats or 16 operator bytes. Their remainder
  // iterations run only when a row is not a whole number of vectors, so the
  // sample must hold rows with both a vector body and a remainder. The last
  // feature cell is max-merged over the sum, so a width of 4k + 1 (297 cells
  // with 4 platforms) leaves no checked cell in the float remainder. With 5
  // platforms the row has 314 cells, and the remainder also holds the
  // engine-to-relational conversion's output cardinality.
  bool saw_width_remainder = false;
  bool saw_ops_remainder = false;
  for (int platforms : {4, 5}) {
    const PlatformRegistry registry = PlatformRegistry::Default(platforms);
    if (FeatureSchema(&registry).width() % 4 > 1) saw_width_remainder = true;
    CheckRandomConcats(registry, &saw_ops_remainder);
  }
  EXPECT_TRUE(saw_width_remainder);
  EXPECT_TRUE(saw_ops_remainder);
}

}  // namespace
}  // namespace robopt
