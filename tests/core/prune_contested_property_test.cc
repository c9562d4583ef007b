// Property test for boundary pruning that scores only contested rows: on
// seeded random plans and random merge sequences, PruneBoundary must keep
// exactly the rows, in exactly the order and with exactly the bytes, of a
// reference prune that scores every row; and the oracle must receive
// exactly the contested rows (those with a rival in their footprint group),
// in row order, in at most one batch. Covers the packed-key path (at most 8
// boundary operators) and the string-key path (more), 1 and 4 threads, an
// additive linear oracle and a trained random forest.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/feature_schema.h"
#include "core/operations.h"
#include "ml/random_forest.h"
#include "test_oracles.h"
#include "workloads/synthetic.h"

namespace robopt {
namespace {

/// Rows at or above which PruneBoundary shards its footprint numbering.
constexpr size_t kShardedRows = 2048;
/// Boundaries wider than this use string footprint keys.
constexpr size_t kPackedOps = 8;
/// Each side of a merge is stride-subsampled to at most this many rows
/// (64^2 = 4096 rows, above the sharding cutover) in a few merges, and to
/// at most kSmallSideRows in the rest.
constexpr size_t kMaxSideRows = 64;
constexpr size_t kSmallSideRows = 24;
/// Runner-ups asked for when the last merge harvests.
constexpr size_t kHarvestK = 3;

LogicalPlan RandomPlan(uint64_t seed) {
  Rng rng(seed);
  const double cardinality =
      1e3 * static_cast<double>(rng.NextInt(1, 10000));
  switch (rng.NextBounded(3)) {
    case 0:
      return MakeSyntheticPipeline(static_cast<int>(rng.NextInt(4, 30)),
                                   cardinality, rng.Next());
    case 1:
      return MakeSyntheticJoinTree(static_cast<int>(rng.NextInt(1, 6)),
                                   cardinality, rng.Next());
    default:
      return MakeSyntheticLoopPlan(static_cast<int>(rng.NextInt(9, 24)),
                                   cardinality,
                                   static_cast<int>(rng.NextInt(1, 30)),
                                   rng.Next());
  }
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

/// A copy of `v` with each row dropped with probability 1/4 (at least one
/// row stays), then subsampled to at most `max_rows`. Dropping rows makes
/// footprint groups of uneven size, so lone and contested rows mix.
PlanVectorEnumeration ThinOut(const PlanVectorEnumeration& v, size_t max_rows,
                              Rng* rng) {
  PlanVectorEnumeration out(v.width(), v.num_ops());
  out.mutable_scope() = v.scope();
  out.set_boundary(v.boundary());
  for (size_t row = 0; row < v.size(); ++row) {
    if (rng->NextBernoulli(0.75) || (out.size() == 0 && row + 1 == v.size())) {
      out.AppendCopy(v, row);
    }
  }
  return Subsample(out, max_rows);
}

/// A forest trained on the full enumerations of a few small plans,
/// labelled by an additive oracle times noise, so that it predicts varied
/// (and sometimes tied) costs on plan vectors.
std::unique_ptr<RandomForest> TrainPlanForest(const PlatformRegistry& registry,
                                              const FeatureSchema& schema) {
  const LinearFeatureOracle linear(schema, 11);
  MlDataset data(schema.width());
  Rng rng(99);
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    const LogicalPlan plan =
        MakeSyntheticPipeline(5, 1e5 * static_cast<double>(seed), seed);
    auto ctx = EnumerationContext::Make(&plan, &registry, &schema);
    EXPECT_TRUE(ctx.ok());
    const PlanVectorEnumeration all =
        Subsample(Enumerate(*ctx, Vectorize(*ctx)), 300);
    for (size_t row = 0; row < all.size(); ++row) {
      std::vector<float> features(all.features(row),
                                  all.features(row) + all.width());
      const double cost = linear.CostOf(features);
      data.Add(features,
               static_cast<float>(cost * rng.NextUniform(0.5, 1.5)));
    }
  }
  RandomForest::Params params;
  params.num_trees = 8;
  auto forest = std::make_unique<RandomForest>(params);
  EXPECT_TRUE(forest->Train(data).ok());
  return forest;
}

struct Coverage {
  size_t prunes = 0;
  size_t packed_mixed = 0;  ///< Packed keys, contested and lone rows both.
  size_t string_mixed = 0;  ///< String keys, contested and lone rows both.
  size_t sharded = 0;       ///< Sharded footprint numbering.
  size_t none_contested = 0;
  size_t all_contested = 0;
  size_t harvests = 0;
};

/// Prunes `v` into `pruned` and checks it against the score-every-row
/// reference; returns false after the first failure.
bool CheckPrune(const EnumerationContext& ctx, const PlanVectorEnumeration& v,
                const CostOracle& inner, int threads, bool harvest,
                const std::string& where, PlanVectorEnumeration* pruned,
                Coverage* coverage) {
  const size_t rows = v.size();
  const size_t width = v.width();
  const size_t row_bytes = width * sizeof(float);

  // Reference: score every row, keep the strictly cheapest row per
  // footprint (the earliest on ties), groups in first-seen order.
  std::vector<float> costs(rows);
  if (rows > 0) {
    inner.EstimateBatch(v.feature_pool().data(), rows, width, costs.data());
  }
  std::unordered_map<std::string, size_t> group_index;
  std::vector<size_t> kept;
  std::vector<size_t> members;
  std::vector<size_t> group_of(rows);
  for (size_t row = 0; row < rows; ++row) {
    std::string key;
    for (OperatorId op : v.boundary()) {
      key.push_back(
          static_cast<char>(ctx.PlatformOfAssignment(v.assignment(row), op)));
    }
    const auto [it, inserted] = group_index.try_emplace(key, kept.size());
    if (inserted) {
      kept.push_back(row);
      members.push_back(0);
    } else if (costs[row] < costs[kept[it->second]]) {
      kept[it->second] = row;
    }
    group_of[row] = it->second;
    ++members[it->second];
  }
  const bool score_all = harvest && rows > 1;
  std::vector<float> want_scored;
  size_t contested = 0;
  for (size_t row = 0; row < rows; ++row) {
    const bool rival = members[group_of[row]] > 1;
    contested += rival ? 1 : 0;
    if (score_all || rival) {
      want_scored.insert(want_scored.end(), v.features(row),
                         v.features(row) + width);
    }
  }
  const size_t want_rows = want_scored.size() / std::max<size_t>(width, 1);

  RecordingOracle recorder(&inner);
  PruneStats stats;
  std::vector<std::pair<size_t, float>> cheapest;
  *pruned = PruneBoundary(ctx, v, recorder, &stats, threads,
                          harvest ? &cheapest : nullptr,
                          harvest ? kHarvestK : 0);

  // The oracle saw exactly the expected rows, in one batch at most.
  if (recorder.rows_estimated() != want_rows ||
      recorder.batches() != (want_rows > 0 ? 1u : 0u) ||
      recorder.rows().size() != want_scored.size() ||
      (!want_scored.empty() &&
       std::memcmp(recorder.rows().data(), want_scored.data(),
                   want_scored.size() * sizeof(float)) != 0)) {
    ADD_FAILURE() << where << ": oracle saw " << recorder.rows_estimated()
                  << " rows in " << recorder.batches() << " batches, want "
                  << want_rows << " rows";
    return false;
  }
  if (stats.rows_in != rows || stats.rows_out != kept.size() ||
      stats.rows_unscored != rows - want_rows) {
    ADD_FAILURE() << where << ": stats " << stats.rows_in << "/"
                  << stats.rows_out << "/" << stats.rows_unscored;
    return false;
  }

  // Same kept rows, same order, same bytes.
  bool same = pruned->size() == kept.size() &&
              pruned->scope() == v.scope() &&
              pruned->boundary() == v.boundary();
  for (size_t k = 0; same && k < kept.size(); ++k) {
    same = std::memcmp(pruned->features(k), v.features(kept[k]), row_bytes) ==
               0 &&
           std::memcmp(pruned->assignment(k), v.assignment(kept[k]),
                       v.num_ops()) == 0 &&
           pruned->switches(k) == v.switches(kept[k]);
  }
  if (!same) {
    ADD_FAILURE() << where << ": kept rows differ from the reference";
    return false;
  }

  if (harvest) {
    // The k cheapest input rows by (cost, row index).
    std::vector<std::pair<size_t, float>> want;
    if (rows > 1) {
      std::vector<size_t> order(rows);
      for (size_t row = 0; row < rows; ++row) order[row] = row;
      std::stable_sort(order.begin(), order.end(), [&](size_t x, size_t y) {
        return costs[x] < costs[y];
      });
      for (size_t i = 0; i < std::min(kHarvestK, rows); ++i) {
        want.emplace_back(order[i], costs[order[i]]);
      }
    }
    if (cheapest != want) {
      ADD_FAILURE() << where << ": harvest differs from the reference";
      return false;
    }
    ++coverage->harvests;
  }

  ++coverage->prunes;
  const bool mixed = contested > 0 && contested < rows;
  if (mixed && v.boundary().size() <= kPackedOps) ++coverage->packed_mixed;
  if (mixed && v.boundary().size() > kPackedOps) ++coverage->string_mixed;
  if (threads > 1 && rows >= kShardedRows) ++coverage->sharded;
  if (rows > 0 && contested == 0) ++coverage->none_contested;
  if (rows > 1 && contested == rows) ++coverage->all_contested;
  return true;
}

/// Whether an edge joins scope `a` to scope `b`.
bool Adjacent(const EnumerationContext& ctx, const Scope& a, const Scope& b) {
  for (const EnumerationContext::Edge& edge : ctx.edges) {
    if ((a.test(edge.from) && b.test(edge.to)) ||
        (b.test(edge.from) && a.test(edge.to))) {
      return true;
    }
  }
  return false;
}

/// Random merge sequences over `plans` random plans; every merge is pruned
/// and checked, and most of them continue with the pruned enumeration.
void RunRandomMerges(const PlatformRegistry& registry,
                     const FeatureSchema& schema, const CostOracle& oracle,
                     int threads, int plans, Coverage* coverage) {
  for (int p = 0; p < plans; ++p) {
    const uint64_t seed = 0x9a7e0000ULL + static_cast<uint64_t>(p);
    const LogicalPlan plan = RandomPlan(seed);
    auto made = EnumerationContext::Make(&plan, &registry, &schema);
    ASSERT_TRUE(made.ok()) << "seed " << seed;
    const EnumerationContext& ctx = made.value();
    std::vector<PlanVectorEnumeration> enums;
    for (const AbstractPlanVector& single : Split(ctx, Vectorize(ctx))) {
      enums.push_back(Enumerate(ctx, single));
    }
    Rng rng(seed ^ 0x5eedULL);
    size_t merge = 0;
    while (enums.size() > 1) {
      // Mostly merge an enumeration with a neighbour, as the enumerator
      // does (that makes interior operators, hence contested rows);
      // sometimes with any other one (that widens the boundary).
      const size_t i = rng.NextBounded(enums.size());
      std::vector<size_t> neighbours;
      for (size_t k = 0; k < enums.size(); ++k) {
        if (k != i && Adjacent(ctx, enums[i].scope(), enums[k].scope())) {
          neighbours.push_back(k);
        }
      }
      size_t j = rng.NextBounded(enums.size() - 1);
      if (j >= i) ++j;
      if (!neighbours.empty() && rng.NextBernoulli(0.7)) {
        j = neighbours[rng.NextBounded(neighbours.size())];
      }
      const size_t side_rows =
          rng.NextBernoulli(0.2) ? kMaxSideRows : kSmallSideRows;
      PlanVectorEnumeration merged =
          Concat(ctx, ThinOut(enums[i], side_rows, &rng),
                 ThinOut(enums[j], side_rows, &rng), threads);
      // The last merge covers the whole plan; it sometimes harvests
      // runner-ups, as the enumerator's final prune does.
      const bool harvest = enums.size() == 2 && rng.NextBernoulli(0.5);
      const std::string where = "seed " + std::to_string(seed) + ", " +
                                std::to_string(threads) + " threads, merge " +
                                std::to_string(merge++);
      PlanVectorEnumeration pruned(0, 0);
      ASSERT_TRUE(CheckPrune(ctx, merged, oracle, threads, harvest, where,
                             &pruned, coverage));
      enums[i] = rng.NextBernoulli(0.6) ? std::move(pruned) : std::move(merged);
      enums.erase(enums.begin() + static_cast<ptrdiff_t>(j));
    }
  }
}

/// Merges of a scope of isolated operators (all on the boundary) with a
/// thinned three-operator segment whose middle operator is interior: pools
/// of thousands of rows, above the sharding cutover, with lone and
/// contested rows mixed, and boundaries of 7 (packed keys) and 9 and 10
/// (string keys) operators.
void RunWidePools(const PlatformRegistry& registry,
                  const FeatureSchema& schema, const CostOracle& oracle,
                  int threads, Coverage* coverage) {
  const LogicalPlan plan = MakeSyntheticPipeline(40, 1e6, 17);
  auto made = EnumerationContext::Make(&plan, &registry, &schema);
  ASSERT_TRUE(made.ok());
  const EnumerationContext& ctx = made.value();
  AbstractPlanVector segment;
  segment.ops = {34, 35, 36};
  const PlanVectorEnumeration segment_rows = Enumerate(ctx, segment);
  Rng rng(0x51de5ULL + static_cast<uint64_t>(threads));
  for (OperatorId isolated : {5, 7, 8}) {
    AbstractPlanVector spread;
    for (OperatorId k = 0; k < isolated; ++k) spread.ops.push_back(1 + 4 * k);
    const PlanVectorEnumeration spread_rows =
        Subsample(Enumerate(ctx, spread), 160);
    for (int trial = 0; trial < 3; ++trial) {
      const PlanVectorEnumeration merged =
          Concat(ctx, spread_rows, ThinOut(segment_rows, 64, &rng), threads);
      ASSERT_EQ(merged.boundary().size(), isolated + 2u);
      PlanVectorEnumeration pruned(0, 0);
      ASSERT_TRUE(CheckPrune(ctx, merged, oracle, threads, false,
                             "wide pool of " + std::to_string(isolated) +
                                 " isolated operators, trial " +
                                 std::to_string(trial),
                             &pruned, coverage));
    }
  }
}

void ExpectFullCoverage(const Coverage& coverage, int threads) {
  EXPECT_GT(coverage.prunes, 300u);
  EXPECT_GT(coverage.packed_mixed, 0u);
  EXPECT_GT(coverage.string_mixed, 0u);
  EXPECT_GT(coverage.none_contested, 0u);
  EXPECT_GT(coverage.all_contested, 0u);
  EXPECT_GT(coverage.harvests, 0u);
  if (threads > 1) {
    EXPECT_GT(coverage.sharded, 0u);
  }
}

TEST(PruneContestedPropertyTest, LinearOracleMatchesScoreEveryRow) {
  const PlatformRegistry registry = PlatformRegistry::Default(3);
  const FeatureSchema schema(&registry);
  const LinearFeatureOracle oracle(schema, 7);
  for (int threads : {1, 4}) {
    Coverage coverage;
    RunRandomMerges(registry, schema, oracle, threads, 24, &coverage);
    RunWidePools(registry, schema, oracle, threads, &coverage);
    ExpectFullCoverage(coverage, threads);
  }
}

TEST(PruneContestedPropertyTest, ForestOracleMatchesScoreEveryRow) {
  const PlatformRegistry registry = PlatformRegistry::Default(3);
  const FeatureSchema schema(&registry);
  std::unique_ptr<RandomForest> forest = TrainPlanForest(registry, schema);
  for (int threads : {1, 4}) {
    forest->set_num_threads(threads);
    const MlCostOracle oracle(forest.get());
    Coverage coverage;
    RunRandomMerges(registry, schema, oracle, threads, 24, &coverage);
    RunWidePools(registry, schema, oracle, threads, &coverage);
    ExpectFullCoverage(coverage, threads);
  }
}

}  // namespace
}  // namespace robopt
