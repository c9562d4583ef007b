#include "core/operations.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>

#include "common/check.h"
#include "common/thread_pool.h"
#include "ml/simd_dispatch.h"

namespace robopt {
namespace {

/// The edges touching `op`, as indices into `ctx.edges`, ascending.
std::span<const uint32_t> IncidentEdges(const EnumerationContext& ctx,
                                        OperatorId op) {
  return {ctx.incident_edges.data() + ctx.incident_begin[op],
          ctx.incident_edges.data() + ctx.incident_begin[op + 1]};
}

/// The operator at the other end of edge `e` from `op`.
OperatorId Neighbour(const EnumerationContext& ctx, uint32_t e,
                     OperatorId op) {
  const EnumerationContext::Edge& edge = ctx.edges[e];
  return edge.from == op ? edge.to : edge.from;
}

/// Encodes operator `op` executed by allowed alternative `allowed_index`
/// into a zeroed feature row + assignment row.
void EncodeSingleton(const EnumerationContext& ctx, OperatorId op,
                     size_t allowed_index, float* f, uint8_t* a) {
  const FeatureSchema& schema = *ctx.schema;
  const LogicalOperator& logical_op = ctx.plan->op(op);
  const LogicalOpKind kind = logical_op.kind;
  const Topology topology = ctx.topologies[op];
  const uint8_t alt = ctx.allowed_alts[op][allowed_index];

  // Topology region: this operator's own contribution to the plan-level
  // counts (a loop is counted once, on its LoopBegin).
  if (topology == Topology::kLoop) {
    if (kind == LogicalOpKind::kLoopBegin) {
      f[schema.TopologyCell(Topology::kLoop)] += 1.0f;
    }
  } else {
    f[schema.TopologyCell(topology)] += 1.0f;
  }

  // Operator block.
  f[schema.OpCountCell(kind)] += 1.0f;
  f[schema.OpAltCell(kind, alt)] += 1.0f;
  f[schema.OpTopologyCell(kind, topology)] += 1.0f;
  f[schema.OpUdfCell(kind)] += static_cast<float>(logical_op.udf);
  const float iters = static_cast<float>(ctx.loop_iters[op]);
  f[schema.OpInCardCell(kind)] +=
      static_cast<float>(ctx.cards.input[op]) * iters;
  f[schema.OpOutCardCell(kind)] +=
      static_cast<float>(ctx.cards.output[op]) * iters;

  // Dataset region (max-merged).
  f[schema.TupleSizeCell()] =
      std::max(f[schema.TupleSizeCell()],
               static_cast<float>(logical_op.tuple_bytes));

  a[op] = alt + 1;
}

}  // namespace

StatusOr<EnumerationContext> EnumerationContext::Make(
    const LogicalPlan* plan, const PlatformRegistry* registry,
    const FeatureSchema* schema, const Cardinalities* cards,
    uint64_t allowed_platform_mask) {
  ROBOPT_RETURN_IF_ERROR(plan->Validate());
  EnumerationContext ctx;
  ctx.plan = plan;
  ctx.registry = registry;
  ctx.schema = schema;
  if (cards != nullptr) {
    ctx.cards = *cards;
  } else {
    ctx.cards = CardinalityEstimator(plan).Estimate();
  }
  ctx.topologies = plan->OperatorTopologies();

  const int n = plan->num_operators();
  ctx.loop_iters.resize(n);
  for (int i = 0; i < n; ++i) {
    ctx.loop_iters[i] = plan->LoopIterations(static_cast<OperatorId>(i));
  }
  ctx.allowed_alts.resize(n);
  ctx.alt_platform.resize(n);
  for (const LogicalOperator& op : plan->operators()) {
    const auto& alts = registry->AlternativesFor(op.kind);
    for (size_t a = 0; a < alts.size(); ++a) {
      ctx.alt_platform[op.id].push_back(alts[a].platform);
      if ((allowed_platform_mask >> alts[a].platform) & 1ull) {
        ctx.allowed_alts[op.id].push_back(static_cast<uint8_t>(a));
      }
    }
    if (ctx.allowed_alts[op.id].empty() &&
        (op.kind == LogicalOpKind::kCollectionSource ||
         op.kind == LogicalOpKind::kCollectionSink)) {
      // Driver-side collections are pinned to the driver platform (Rheem's
      // CollectionSource/Sink live in the Java driver); they stay available
      // even under a restricted platform mask (e.g. single-platform mode,
      // or an all-Postgres plan whose result must reach the application).
      for (size_t a = 0; a < alts.size(); ++a) {
        ctx.allowed_alts[op.id].push_back(static_cast<uint8_t>(a));
      }
    }
    if (ctx.allowed_alts[op.id].empty()) {
      return Status::InvalidArgument(
          "operator " + op.name + " (" + std::string(ToString(op.kind)) +
          ") has no execution alternative on the allowed platforms");
    }
  }

  for (const LogicalOperator& op : plan->operators()) {
    for (OperatorId child : plan->AllChildren(op.id)) {
      ctx.edges.push_back(Edge{op.id, child});
    }
  }
  // Incident edges, counted then filled in edge order. A self-edge never
  // crosses a scope, so it is left out.
  ctx.incident_begin.assign(n + 1, 0);
  for (const Edge& edge : ctx.edges) {
    if (edge.from == edge.to) continue;
    ++ctx.incident_begin[edge.from + 1];
    ++ctx.incident_begin[edge.to + 1];
  }
  for (int i = 0; i < n; ++i) {
    ctx.incident_begin[i + 1] += ctx.incident_begin[i];
  }
  ctx.incident_edges.resize(ctx.incident_begin[n]);
  std::vector<uint32_t> next(ctx.incident_begin.begin(),
                             ctx.incident_begin.end() - 1);
  for (uint32_t e = 0; e < ctx.edges.size(); ++e) {
    const Edge& edge = ctx.edges[e];
    if (edge.from == edge.to) continue;
    ctx.incident_edges[next[edge.from]++] = e;
    ctx.incident_edges[next[edge.to]++] = e;
  }

  const size_t k = static_cast<size_t>(registry->num_platforms());
  ctx.conv_cell_count.assign(k, std::vector<size_t>(k, SIZE_MAX));
  ctx.conv_cell_in.assign(k, std::vector<size_t>(k, SIZE_MAX));
  ctx.conv_cell_out.assign(k, std::vector<size_t>(k, SIZE_MAX));
  for (size_t from = 0; from < k; ++from) {
    for (size_t to = 0; to < k; ++to) {
      if (from == to) continue;
      const ConversionKind kind =
          ConversionFor(registry->platform(static_cast<PlatformId>(from)).cls,
                        registry->platform(static_cast<PlatformId>(to)).cls);
      ctx.conv_cell_count[from][to] =
          schema->ConvPlatformCell(kind, static_cast<PlatformId>(from));
      ctx.conv_cell_in[from][to] = schema->ConvInCardCell(kind);
      ctx.conv_cell_out[from][to] = schema->ConvOutCardCell(kind);
    }
  }
  return ctx;
}

AbstractPlanVector Vectorize(const EnumerationContext& ctx) {
  const FeatureSchema& schema = *ctx.schema;
  const LogicalPlan& plan = *ctx.plan;
  AbstractPlanVector v;
  v.features.assign(schema.width(), 0.0f);

  // Exact plan-level topology histogram (the enumeration reconstructs an
  // approximation of this via the merge rule; vectorize is exact).
  const TopologyCounts counts = plan.CountTopologies();
  v.features[schema.TopologyCell(Topology::kPipeline)] =
      static_cast<float>(counts.pipeline);
  v.features[schema.TopologyCell(Topology::kJuncture)] =
      static_cast<float>(counts.juncture);
  v.features[schema.TopologyCell(Topology::kReplicate)] =
      static_cast<float>(counts.replicate);
  v.features[schema.TopologyCell(Topology::kLoop)] =
      static_cast<float>(counts.loop);

  for (const LogicalOperator& op : plan.operators()) {
    v.ops.push_back(op.id);
    const LogicalOpKind kind = op.kind;
    v.features[schema.OpCountCell(kind)] += 1.0f;
    // -1 marks "one of the allowed alternatives" (the paper's abstract
    // plan vector).
    for (uint8_t alt : ctx.allowed_alts[op.id]) {
      v.features[schema.OpAltCell(kind, alt)] = -1.0f;
    }
    v.features[schema.OpTopologyCell(kind, ctx.topologies[op.id])] += 1.0f;
    v.features[schema.OpUdfCell(kind)] += static_cast<float>(op.udf);
    const float iters = static_cast<float>(ctx.loop_iters[op.id]);
    v.features[schema.OpInCardCell(kind)] +=
        static_cast<float>(ctx.cards.input[op.id]) * iters;
    v.features[schema.OpOutCardCell(kind)] +=
        static_cast<float>(ctx.cards.output[op.id]) * iters;
    v.features[schema.TupleSizeCell()] = std::max(
        v.features[schema.TupleSizeCell()],
        static_cast<float>(op.tuple_bytes));
  }
  return v;
}

std::vector<AbstractPlanVector> Split(const EnumerationContext& ctx,
                                      const AbstractPlanVector& v) {
  std::vector<AbstractPlanVector> out;
  out.reserve(v.ops.size());
  for (OperatorId op : v.ops) {
    AbstractPlanVector single;
    single.ops = {op};
    single.features.assign(ctx.schema->width(), 0.0f);
    const LogicalOpKind kind = ctx.plan->op(op).kind;
    single.features[ctx.schema->OpCountCell(kind)] = 1.0f;
    for (uint8_t alt : ctx.allowed_alts[op]) {
      single.features[ctx.schema->OpAltCell(kind, alt)] = -1.0f;
    }
    out.push_back(std::move(single));
  }
  return out;
}

std::vector<OperatorId> ComputeBoundary(const EnumerationContext& ctx,
                                        const Scope& scope) {
  std::vector<OperatorId> boundary;
  std::vector<uint8_t> is_boundary(ctx.plan->num_operators(), 0);
  for (const EnumerationContext::Edge& edge : ctx.edges) {
    const bool from_in = scope.test(edge.from);
    const bool to_in = scope.test(edge.to);
    if (from_in && !to_in) is_boundary[edge.from] = 1;
    if (!from_in && to_in) is_boundary[edge.to] = 1;
  }
  for (size_t i = 0; i < is_boundary.size(); ++i) {
    if (is_boundary[i]) boundary.push_back(static_cast<OperatorId>(i));
  }
  return boundary;
}

PlanVectorEnumeration Enumerate(const EnumerationContext& ctx,
                                const AbstractPlanVector& v) {
  // Fold the singleton enumerations together: enumerate(v̄) ==
  // concat(enumerate(v̄_1), ..., enumerate(v̄_m)). Conversions between the
  // scoped operators are accounted for by Concat.
  PlanVectorEnumeration acc(ctx.schema->width(),
                            ctx.plan->num_operators());
  bool first = true;
  for (OperatorId op : v.ops) {
    PlanVectorEnumeration single(ctx.schema->width(),
                                 ctx.plan->num_operators());
    single.mutable_scope().set(op);
    // A lone operator is on its scope's boundary iff it has any neighbour.
    if (!IncidentEdges(ctx, op).empty()) single.set_boundary({op});
    single.ReserveAdditional(ctx.allowed_alts[op].size());
    for (size_t i = 0; i < ctx.allowed_alts[op].size(); ++i) {
      const size_t row = single.AppendZero();
      EncodeSingleton(ctx, op, i, single.features(row),
                      single.assignment(row));
    }
    if (first) {
      acc = std::move(single);
      first = false;
    } else {
      acc = Concat(ctx, acc, single);
    }
  }
  return acc;
}

namespace {

/// An edge joining the two scopes of a merge, with its row-independent
/// conversion amounts resolved once per merge.
struct CrossingEdge {
  OperatorId from;
  OperatorId to;
  float conv_iters;  ///< Loop iterations the conversion runs.
  float tuples;      ///< Tuples converted across those iterations.
};

/// The edges joining scope `a` to scope `b`, in `ctx.edges` order (the
/// order fixes each row's float-add order). Every such edge touches a
/// boundary operator of `a`, so only those operators' incident edges are
/// looked at.
std::vector<CrossingEdge> CrossingEdges(const EnumerationContext& ctx,
                                        const PlanVectorEnumeration& a,
                                        const Scope& b) {
  std::vector<uint32_t> ids;
  for (OperatorId op : a.boundary()) {
    for (uint32_t e : IncidentEdges(ctx, op)) {
      if (b.test(Neighbour(ctx, e, op))) ids.push_back(e);
    }
  }
  std::sort(ids.begin(), ids.end());
  std::vector<CrossingEdge> crossing;
  crossing.reserve(ids.size());
  for (uint32_t e : ids) {
    const EnumerationContext::Edge& edge = ctx.edges[e];
    const float conv_iters = static_cast<float>(
        std::min(ctx.loop_iters[edge.from], ctx.loop_iters[edge.to]));
    crossing.push_back(CrossingEdge{
        edge.from, edge.to, conv_iters,
        static_cast<float>(ctx.cards.output[edge.from]) * conv_iters});
  }
  return crossing;
}

/// Boundary of `a`'s scope joined with `b`'s (`merged`), ascending: the
/// inputs' boundary operators that keep a neighbour outside `merged`.
std::vector<OperatorId> MergedBoundary(const EnumerationContext& ctx,
                                       const PlanVectorEnumeration& a,
                                       const PlanVectorEnumeration& b,
                                       const Scope& merged) {
  std::vector<OperatorId> candidates(a.boundary().size() +
                                     b.boundary().size());
  std::merge(a.boundary().begin(), a.boundary().end(), b.boundary().begin(),
             b.boundary().end(), candidates.begin());
  std::vector<OperatorId> boundary;
  for (OperatorId op : candidates) {
    for (uint32_t e : IncidentEdges(ctx, op)) {
      if (!merged.test(Neighbour(ctx, e, op))) {
        boundary.push_back(op);
        break;
      }
    }
  }
  return boundary;
}

/// merge(a[row_a], b[row_b]) into the preallocated, zeroed row `row` of
/// `out`; `crossing` is CrossingEdges(ctx, a, b.scope()).
void MergeRowInto(const EnumerationContext& ctx,
                  const std::vector<CrossingEdge>& crossing,
                  const PlanVectorEnumeration& a, size_t row_a,
                  const PlanVectorEnumeration& b, size_t row_b,
                  PlanVectorEnumeration* out, size_t row) {
  const FeatureSchema& schema = *ctx.schema;
  const size_t width = schema.width();
  float* f = out->features(row);
  const float* fa = a.features(row_a);
  const float* fb = b.features(row_b);
  // Cell-wise addition over the contiguous row — the Concat pair-space
  // sweep's hot loop, through the active SIMD lane.
  simd::Ops().add_rows_f32(f, fa, fb, width);
  // The two max-merged cells (pipeline count, tuple size).
  const size_t pipeline_cell = schema.TopologyCell(Topology::kPipeline);
  f[pipeline_cell] = std::max(fa[pipeline_cell], fb[pipeline_cell]);
  const size_t tuple_cell = schema.TupleSizeCell();
  f[tuple_cell] = std::max(fa[tuple_cell], fb[tuple_cell]);

  // Assignments are disjoint: bytewise OR.
  uint8_t* assign = out->assignment(row);
  const uint8_t* aa = a.assignment(row_a);
  const uint8_t* ab = b.assignment(row_b);
  simd::Ops().or_bytes(assign, aa, ab, out->num_ops());

  // Conversion accounting on edges crossing the two scopes.
  uint16_t switches = a.switches(row_a) + b.switches(row_b);
  for (const CrossingEdge& edge : crossing) {
    const PlatformId from = ctx.PlatformOfAssignment(assign, edge.from);
    const PlatformId to = ctx.PlatformOfAssignment(assign, edge.to);
    if (from == to) continue;
    f[ctx.conv_cell_count[from][to]] += edge.conv_iters;
    f[ctx.conv_cell_in[from][to]] += edge.tuples;
    f[ctx.conv_cell_out[from][to]] += edge.tuples;
    ++switches;
  }
  out->set_switches(row, switches);
}

/// Minimum rows a shard must own before forking pays for itself.
constexpr size_t kParallelGrainRows = 1024;

}  // namespace

void MergeRows(const EnumerationContext& ctx, const PlanVectorEnumeration& a,
               size_t row_a, const PlanVectorEnumeration& b, size_t row_b,
               PlanVectorEnumeration* out) {
  MergeRowInto(ctx, CrossingEdges(ctx, a, b.scope()), a, row_a, b, row_b,
               out, out->AppendZero());
}

PlanVectorEnumeration Concat(const EnumerationContext& ctx,
                             const PlanVectorEnumeration& a,
                             const PlanVectorEnumeration& b,
                             int num_threads) {
  ROBOPT_DCHECK((a.scope() & b.scope()).none());
  PlanVectorEnumeration out(a.width(), a.num_ops());
  out.mutable_scope() = a.scope() | b.scope();
  out.set_boundary(MergedBoundary(ctx, a, b, out.scope()));
  const std::vector<CrossingEdge> crossing = CrossingEdges(ctx, a, b.scope());
  // Row r of the output is the merge of a[r / |b|] with b[r % |b|] (i-major
  // order). Each range fills its disjoint rows of the preallocated pool in
  // place, so sharding the range leaves every bit as the serial loop has it.
  const size_t rows = a.size() * b.size();
  const size_t b_rows = b.size();
  out.AppendZeroRows(rows);
  const auto merge_range = [&](size_t begin, size_t end) {
    for (size_t r = begin; r < end; ++r) {
      MergeRowInto(ctx, crossing, a, r / b_rows, b, r % b_rows, &out, r);
    }
  };
  if (num_threads <= 1 || rows < 2 * kParallelGrainRows) {
    merge_range(0, rows);
  } else {
    ParallelFor(num_threads, 0, rows, kParallelGrainRows, merge_range);
  }
  return out;
}

namespace {

/// Boundaries of up to this many operators pack into one uint64_t footprint
/// key (one platform byte per boundary operator, 0xff = unassigned).
constexpr size_t kPackedFootprintOps = 8;

/// Footprint grouping core: returns the kept row per footprint, in the
/// serial first-seen footprint order with the serial tie-break (a later row
/// replaces the group's champion only when strictly cheaper). Shards the
/// row range into contiguous per-thread maps and reduces them in ascending
/// shard order, which reproduces the serial semantics exactly because every
/// row of shard s precedes every row of shard s+1.
template <typename Key, typename KeyFn>
std::vector<size_t> GroupFootprints(size_t rows, const float* costs,
                                    const KeyFn& key_of, int num_threads) {
  struct Shard {
    std::unordered_map<Key, size_t> best;           // footprint -> row.
    std::vector<std::pair<Key, size_t>> order;      // First-seen order.
  };
  auto scan = [&](size_t begin, size_t end, Shard* shard) {
    for (size_t row = begin; row < end; ++row) {
      auto [it, inserted] = shard->best.try_emplace(key_of(row), row);
      if (inserted) {
        shard->order.emplace_back(it->first, row);
      } else if (costs[row] < costs[it->second]) {
        it->second = row;
      }
    }
  };

  const size_t shard_count =
      num_threads <= 1
          ? 1
          : std::min<size_t>(static_cast<size_t>(num_threads),
                             rows / kParallelGrainRows);
  if (shard_count <= 1) {
    Shard all;
    scan(0, rows, &all);
    std::vector<size_t> kept;
    kept.reserve(all.order.size());
    for (const auto& [key, first_row] : all.order) {
      kept.push_back(all.best[key]);
    }
    return kept;
  }

  std::vector<Shard> shards(shard_count);
  std::vector<size_t> starts(shard_count + 1, 0);
  const size_t base = rows / shard_count;
  const size_t extra = rows % shard_count;
  for (size_t s = 0; s < shard_count; ++s) {
    starts[s + 1] = starts[s] + base + (s < extra ? 1 : 0);
  }
  ParallelFor(num_threads, 0, shard_count, 1, [&](size_t s0, size_t s1) {
    for (size_t s = s0; s < s1; ++s) scan(starts[s], starts[s + 1], &shards[s]);
  });

  std::unordered_map<Key, size_t> best;
  std::vector<Key> order;
  for (const Shard& shard : shards) {
    for (const auto& [key, first_row] : shard.order) {
      const size_t row = shard.best.at(key);
      auto [it, inserted] = best.try_emplace(key, row);
      if (inserted) {
        order.push_back(key);
      } else if (costs[row] < costs[it->second]) {
        it->second = row;
      }
    }
  }
  std::vector<size_t> kept;
  kept.reserve(order.size());
  for (const Key& key : order) kept.push_back(best[key]);
  return kept;
}

/// Packed-footprint grouping: same contract as GroupFootprints (kept row
/// per footprint, serial first-seen order, strictly-cheaper tie-break), but
/// the footprint store is a dense first-seen-ordered uint64 array probed
/// with the SIMD dispatch shim's vector key compare instead of a hash map.
/// Distinct footprints are few in the common case (platforms^|boundary|,
/// tens on real plans), so the whole key array sits in a couple of cache
/// lines and a linear vector probe beats hashing + pointer chasing. When a
/// wide boundary does explode the footprint set, the shard migrates to a
/// hash index at kFlatFootprintCap keys — the probe's O(distinct) cost must
/// not go quadratic — while the dense arrays keep carrying the first-seen
/// order and champions.
constexpr size_t kFlatFootprintCap = 512;

template <typename KeyFn>
std::vector<size_t> GroupFootprintsPacked(size_t rows, const float* costs,
                                          const KeyFn& key_of,
                                          int num_threads) {
  struct Shard {
    std::vector<uint64_t> keys;  ///< Distinct footprints, first-seen order.
    std::vector<size_t> best;    ///< Champion row per key, parallel.
    /// footprint -> slot in keys/best; engaged past kFlatFootprintCap.
    std::unordered_map<uint64_t, size_t> index;
  };
  const auto find_u64 = simd::Ops().find_u64;
  auto insert = [&](Shard* shard, uint64_t key, size_t row) {
    size_t slot;
    if (shard->index.empty()) {
      slot = find_u64(shard->keys.data(), shard->keys.size(), key);
      if (slot == shard->keys.size()) {
        shard->keys.push_back(key);
        shard->best.push_back(row);
        if (shard->keys.size() >= kFlatFootprintCap) {
          shard->index.reserve(2 * shard->keys.size());
          for (size_t i = 0; i < shard->keys.size(); ++i) {
            shard->index.emplace(shard->keys[i], i);
          }
        }
        return;
      }
    } else {
      const auto [it, inserted] =
          shard->index.try_emplace(key, shard->keys.size());
      if (inserted) {
        shard->keys.push_back(key);
        shard->best.push_back(row);
        return;
      }
      slot = it->second;
    }
    if (costs[row] < costs[shard->best[slot]]) shard->best[slot] = row;
  };
  auto scan = [&](size_t begin, size_t end, Shard* shard) {
    for (size_t row = begin; row < end; ++row) {
      insert(shard, key_of(row), row);
    }
  };

  const size_t shard_count =
      num_threads <= 1
          ? 1
          : std::min<size_t>(static_cast<size_t>(num_threads),
                             rows / kParallelGrainRows);
  if (shard_count <= 1) {
    Shard all;
    scan(0, rows, &all);
    return std::move(all.best);
  }

  std::vector<Shard> shards(shard_count);
  std::vector<size_t> starts(shard_count + 1, 0);
  const size_t base = rows / shard_count;
  const size_t extra = rows % shard_count;
  for (size_t s = 0; s < shard_count; ++s) {
    starts[s + 1] = starts[s] + base + (s < extra ? 1 : 0);
  }
  ParallelFor(num_threads, 0, shard_count, 1, [&](size_t s0, size_t s1) {
    for (size_t s = s0; s < s1; ++s) scan(starts[s], starts[s + 1], &shards[s]);
  });

  // Ascending shard order reproduces the serial first-seen order and
  // tie-break exactly: every row of shard s precedes every row of s+1.
  Shard merged;
  for (const Shard& shard : shards) {
    for (size_t i = 0; i < shard.keys.size(); ++i) {
      insert(&merged, shard.keys[i], shard.best[i]);
    }
  }
  return std::move(merged.best);
}

}  // namespace

PlanVectorEnumeration PruneBoundary(
    const EnumerationContext& ctx, const PlanVectorEnumeration& v,
    const CostOracle& oracle, PruneStats* stats, int num_threads,
    std::vector<std::pair<size_t, float>>* cheapest_out, size_t cheapest_k) {
  if (cheapest_out != nullptr) cheapest_out->clear();
  PlanVectorEnumeration out(v.width(), v.num_ops());
  out.mutable_scope() = v.scope();
  out.set_boundary(v.boundary());
  if (stats != nullptr) stats->rows_in += v.size();
  if (v.size() <= 1) {
    for (size_t i = 0; i < v.size(); ++i) out.AppendCopy(v, i);
    if (stats != nullptr) stats->rows_out += out.size();
    return out;
  }

  // One batch oracle call over the whole contiguous pool — no per-subplan
  // transformation. (An ML oracle parallelizes internally over row blocks;
  // see RandomForest::PredictBatch.)
  std::vector<float> costs(v.size());
  oracle.EstimateBatch(v.feature_pool().data(), v.size(), v.width(),
                       costs.data());

  if (cheapest_out != nullptr && cheapest_k > 0) {
    // Runner-up harvest off the batch just computed: the k cheapest input
    // rows by (cost, row index) — the same tie order as the argmin scan.
    // k is tiny (top_k + 1), so a bounded insertion scan beats building an
    // index vector: one pass, no allocation on the prune hot path (the
    // caller reuses cheapest_out's capacity across calls).
    const size_t keep = std::min(cheapest_k, v.size());
    cheapest_out->reserve(keep);
    for (size_t row = 0; row < v.size(); ++row) {
      const float cost = costs[row];
      if (cheapest_out->size() == keep &&
          cost >= cheapest_out->back().second) {
        continue;  // Ties lose to the earlier row already held.
      }
      size_t pos = cheapest_out->size();
      while (pos > 0 && (*cheapest_out)[pos - 1].second > cost) --pos;
      cheapest_out->insert(cheapest_out->begin() + pos, {row, cost});
      if (cheapest_out->size() > keep) cheapest_out->pop_back();
    }
  }

  // Group rows by pruning footprint: the *platform* of every boundary
  // operator (Definition 2); keep the cheapest row per footprint.
  const std::vector<OperatorId>& boundary = v.boundary();
  std::vector<size_t> kept;
  if (boundary.size() <= kPackedFootprintOps) {
    const auto key_of = [&](size_t row) {
      const uint8_t* assign = v.assignment(row);
      uint64_t key = 0;
      for (size_t bi = 0; bi < boundary.size(); ++bi) {
        key |= static_cast<uint64_t>(
                   ctx.PlatformOfAssignment(assign, boundary[bi]))
               << (8 * bi);
      }
      return key;
    };
    kept = GroupFootprintsPacked(v.size(), costs.data(), key_of, num_threads);
  } else {
    // Wide-boundary fallback (more than 8 boundary operators): the original
    // string keys, same grouping semantics.
    const auto key_of = [&](size_t row) {
      const uint8_t* assign = v.assignment(row);
      std::string key(boundary.size(), '\0');
      for (size_t bi = 0; bi < boundary.size(); ++bi) {
        key[bi] = static_cast<char>(
            ctx.PlatformOfAssignment(assign, boundary[bi]) + 1);
      }
      return key;
    };
    kept = GroupFootprints<std::string>(v.size(), costs.data(), key_of,
                                        num_threads);
  }

  // Exact-size reservation: one output row per distinct footprint.
  out.Reserve(kept.size());
  for (size_t row : kept) out.AppendCopy(v, row);
  if (stats != nullptr) stats->rows_out += out.size();
  return out;
}

PlanVectorEnumeration PruneSwitchCap(const EnumerationContext& ctx,
                                     const PlanVectorEnumeration& v, int beta,
                                     PruneStats* stats) {
  (void)ctx;
  PlanVectorEnumeration out(v.width(), v.num_ops());
  out.mutable_scope() = v.scope();
  out.set_boundary(v.boundary());
  if (stats != nullptr) stats->rows_in += v.size();
  // Count survivors first so the append loop reserves exactly once.
  size_t surviving = 0;
  for (size_t row = 0; row < v.size(); ++row) {
    if (v.switches(row) <= beta) ++surviving;
  }
  out.Reserve(surviving);
  for (size_t row = 0; row < v.size(); ++row) {
    if (v.switches(row) <= beta) out.AppendCopy(v, row);
  }
  if (stats != nullptr) stats->rows_out += out.size();
  return out;
}

ExecutionPlan Unvectorize(const EnumerationContext& ctx,
                          const PlanVectorEnumeration& v, size_t row) {
  ExecutionPlan plan(ctx.plan, ctx.registry);
  const uint8_t* assign = v.assignment(row);
  for (const LogicalOperator& op : ctx.plan->operators()) {
    if (assign[op.id] != 0) plan.Assign(op.id, assign[op.id] - 1);
  }
  return plan;
}

size_t ArgMinCost(const EnumerationContext& ctx,
                  const PlanVectorEnumeration& v, const CostOracle& oracle,
                  float* cost_out, int num_threads,
                  std::vector<float>* costs_out) {
  (void)ctx;
  ROBOPT_CHECK(v.size() > 0);
  std::vector<float> costs(v.size());
  oracle.EstimateBatch(v.feature_pool().data(), v.size(), v.width(),
                       costs.data());
  size_t best = 0;
  const size_t shard_count =
      num_threads <= 1
          ? 1
          : std::min<size_t>(static_cast<size_t>(num_threads),
                             v.size() / kParallelGrainRows);
  if (shard_count <= 1) {
    for (size_t row = 1; row < v.size(); ++row) {
      if (costs[row] < costs[best]) best = row;
    }
  } else {
    // Per-shard argmin, reduced in ascending shard order with a strict "<"
    // so ties resolve to the earliest row, as in the serial scan.
    std::vector<size_t> shard_best(shard_count, 0);
    std::vector<size_t> starts(shard_count + 1, 0);
    const size_t base = v.size() / shard_count;
    const size_t extra = v.size() % shard_count;
    for (size_t s = 0; s < shard_count; ++s) {
      starts[s + 1] = starts[s] + base + (s < extra ? 1 : 0);
    }
    ParallelFor(num_threads, 0, shard_count, 1, [&](size_t s0, size_t s1) {
      for (size_t s = s0; s < s1; ++s) {
        size_t local = starts[s];
        for (size_t row = starts[s] + 1; row < starts[s + 1]; ++row) {
          if (costs[row] < costs[local]) local = row;
        }
        shard_best[s] = local;
      }
    });
    best = shard_best[0];
    for (size_t s = 1; s < shard_count; ++s) {
      if (costs[shard_best[s]] < costs[best]) best = shard_best[s];
    }
  }
  if (cost_out != nullptr) *cost_out = costs[best];
  if (costs_out != nullptr) *costs_out = std::move(costs);
  return best;
}

std::vector<float> EncodeAssignment(const EnumerationContext& ctx,
                                    const uint8_t* assignment) {
  const FeatureSchema& schema = *ctx.schema;
  const LogicalPlan& plan = *ctx.plan;
  std::vector<float> f(schema.width(), 0.0f);
  bool any_pipeline = false;
  for (const LogicalOperator& op : plan.operators()) {
    if (assignment[op.id] == 0) continue;
    const uint8_t alt = assignment[op.id] - 1;
    const Topology topology = ctx.topologies[op.id];
    if (topology == Topology::kLoop) {
      if (op.kind == LogicalOpKind::kLoopBegin) {
        f[schema.TopologyCell(Topology::kLoop)] += 1.0f;
      }
    } else if (topology == Topology::kPipeline) {
      any_pipeline = true;  // The merge rule keeps max(...) = 1.
    } else {
      f[schema.TopologyCell(topology)] += 1.0f;
    }
    f[schema.OpCountCell(op.kind)] += 1.0f;
    f[schema.OpAltCell(op.kind, alt)] += 1.0f;
    f[schema.OpTopologyCell(op.kind, topology)] += 1.0f;
    f[schema.OpUdfCell(op.kind)] += static_cast<float>(op.udf);
    const float iters = static_cast<float>(ctx.loop_iters[op.id]);
    f[schema.OpInCardCell(op.kind)] +=
        static_cast<float>(ctx.cards.input[op.id]) * iters;
    f[schema.OpOutCardCell(op.kind)] +=
        static_cast<float>(ctx.cards.output[op.id]) * iters;
    f[schema.TupleSizeCell()] = std::max(
        f[schema.TupleSizeCell()], static_cast<float>(op.tuple_bytes));
  }
  if (any_pipeline) f[schema.TopologyCell(Topology::kPipeline)] = 1.0f;

  for (const EnumerationContext::Edge& edge : ctx.edges) {
    if (assignment[edge.from] == 0 || assignment[edge.to] == 0) continue;
    const PlatformId from = ctx.PlatformOfAssignment(assignment, edge.from);
    const PlatformId to = ctx.PlatformOfAssignment(assignment, edge.to);
    if (from == to) continue;
    const float conv_iters = static_cast<float>(
        std::min(ctx.loop_iters[edge.from], ctx.loop_iters[edge.to]));
    const float tuples =
        static_cast<float>(ctx.cards.output[edge.from]) * conv_iters;
    f[ctx.conv_cell_count[from][to]] += conv_iters;
    f[ctx.conv_cell_in[from][to]] += tuples;
    f[ctx.conv_cell_out[from][to]] += tuples;
  }
  return f;
}

ExecutionPlan AssignmentToPlan(const EnumerationContext& ctx,
                               const uint8_t* assignment) {
  ExecutionPlan plan(ctx.plan, ctx.registry);
  for (const LogicalOperator& op : ctx.plan->operators()) {
    if (assignment[op.id] != 0) plan.Assign(op.id, assignment[op.id] - 1);
  }
  return plan;
}

}  // namespace robopt
