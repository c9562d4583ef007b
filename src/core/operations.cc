#include "core/operations.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <span>
#include <string>
#include <type_traits>
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

/// Distinct packed footprints a FootprintIndex probes linearly before it
/// migrates to a hash index.
constexpr size_t kFlatFootprintCap = 512;

/// Numbers distinct footprints in first-seen order. Packed keys live in a
/// dense array probed with the SIMD dispatch shim's vector key compare:
/// distinct footprints are few in the common case (platforms^|boundary|,
/// tens on real plans), so the array sits in a couple of cache lines and a
/// linear vector probe beats hashing. When a wide boundary does explode the
/// footprint set, the index migrates to a hash map at kFlatFootprintCap
/// keys, so the probe's O(distinct) cost cannot go quadratic. String keys
/// (the wide-boundary fallback) always go through the hash map.
template <typename Key>
class FootprintIndex {
 public:
  /// Number of `key`, giving a new key the next number.
  uint32_t Intern(const Key& key) {
    if constexpr (std::is_same_v<Key, uint64_t>) {
      if (index_.empty()) {
        const size_t slot = find_u64_(keys_.data(), keys_.size(), key);
        if (slot < keys_.size()) return static_cast<uint32_t>(slot);
        keys_.push_back(key);
        if (keys_.size() >= kFlatFootprintCap) {
          index_.reserve(2 * keys_.size());
          for (size_t i = 0; i < keys_.size(); ++i) {
            index_.emplace(keys_[i], static_cast<uint32_t>(i));
          }
        }
        return static_cast<uint32_t>(keys_.size() - 1);
      }
    }
    const auto [it, inserted] =
        index_.try_emplace(key, static_cast<uint32_t>(keys_.size()));
    if (inserted) keys_.push_back(key);
    return it->second;
  }

  /// The distinct keys, in first-seen order.
  const std::vector<Key>& keys() const { return keys_; }

 private:
  decltype(simd::OpsTable::find_u64) find_u64_ = simd::Ops().find_u64;
  std::vector<Key> keys_;
  std::unordered_map<Key, uint32_t> index_;
};

/// Numbers each row's footprint `key_of(row)` into `group_of` in serial
/// first-seen order and returns the number of distinct footprints. With
/// `num_threads > 1` contiguous row shards number their footprints locally
/// and are renumbered in ascending shard order, which is the serial
/// numbering because every row of shard s precedes every row of shard s+1.
template <typename Key, typename KeyFn>
size_t NumberFootprints(size_t rows, const KeyFn& key_of, int num_threads,
                        std::vector<uint32_t>* group_of) {
  group_of->resize(rows);
  uint32_t* const ids = group_of->data();
  const size_t shard_count =
      num_threads <= 1
          ? 1
          : std::min<size_t>(static_cast<size_t>(num_threads),
                             rows / kParallelGrainRows);
  if (shard_count <= 1) {
    FootprintIndex<Key> index;
    for (size_t row = 0; row < rows; ++row) {
      ids[row] = index.Intern(key_of(row));
    }
    return index.keys().size();
  }

  std::vector<FootprintIndex<Key>> shards(shard_count);
  std::vector<size_t> starts(shard_count + 1, 0);
  const size_t base = rows / shard_count;
  const size_t extra = rows % shard_count;
  for (size_t s = 0; s < shard_count; ++s) {
    starts[s + 1] = starts[s] + base + (s < extra ? 1 : 0);
  }
  ParallelFor(num_threads, 0, shard_count, 1, [&](size_t s0, size_t s1) {
    for (size_t s = s0; s < s1; ++s) {
      for (size_t row = starts[s]; row < starts[s + 1]; ++row) {
        ids[row] = shards[s].Intern(key_of(row));
      }
    }
  });
  FootprintIndex<Key> merged;
  std::vector<std::vector<uint32_t>> renumber(shard_count);
  for (size_t s = 0; s < shard_count; ++s) {
    for (const Key& key : shards[s].keys()) {
      renumber[s].push_back(merged.Intern(key));
    }
  }
  ParallelFor(num_threads, 0, shard_count, 1, [&](size_t s0, size_t s1) {
    for (size_t s = s0; s < s1; ++s) {
      for (size_t row = starts[s]; row < starts[s + 1]; ++row) {
        ids[row] = renumber[s][ids[row]];
      }
    }
  });
  return merged.keys().size();
}

}  // namespace

PlanVectorEnumeration KeepGroupChampions(
    const PlanVectorEnumeration& v, const std::vector<uint32_t>& group_of,
    size_t groups, const CostOracle& oracle, PruneStats* stats,
    std::vector<std::pair<size_t, float>>* cheapest_out, size_t cheapest_k) {
  if (cheapest_out != nullptr) cheapest_out->clear();
  const size_t rows = v.size();
  ROBOPT_DCHECK(group_of.size() == rows);
  PlanVectorEnumeration out(v.width(), v.num_ops());
  out.mutable_scope() = v.scope();
  out.set_boundary(v.boundary());

  // Members per group; a row is contested when its group has a rival.
  std::vector<uint32_t> members(groups, 0);
  for (size_t row = 0; row < rows; ++row) ++members[group_of[row]];
  const bool harvest = cheapest_out != nullptr && cheapest_k > 0 && rows > 1;
  size_t contested = 0;
  for (uint32_t count : members) {
    if (count > 1) contested += count;
  }
  const auto scored = [&](size_t row) {
    return harvest || members[group_of[row]] > 1;
  };

  // One oracle batch over the scored rows, in row order: the pool itself
  // when every row is scored, else a contiguous gather of the contested
  // rows. (An ML oracle parallelizes internally over row blocks; see
  // RandomForest::PredictBatch.)
  const size_t width = v.width();
  const size_t num_scored = harvest ? rows : contested;
  std::vector<float> costs(num_scored);
  if (num_scored == rows && rows > 0) {
    oracle.EstimateBatch(v.feature_pool().data(), rows, width, costs.data());
  } else if (num_scored > 0) {
    std::vector<float> batch(num_scored * width);
    float* dst = batch.data();
    for (size_t row = 0; row < rows; ++row) {
      if (!scored(row)) continue;
      std::memcpy(dst, v.features(row), width * sizeof(float));
      dst += width;
    }
    oracle.EstimateBatch(batch.data(), num_scored, width, costs.data());
  }

  if (harvest) {
    // Runner-up harvest off the batch just computed: the k cheapest input
    // rows by (cost, row index) — the same tie order as the argmin scan.
    // k is tiny (top_k + 1), so a bounded insertion scan beats building an
    // index vector: one pass, no allocation on the prune hot path (the
    // caller reuses cheapest_out's capacity across calls).
    const size_t keep = std::min(cheapest_k, rows);
    cheapest_out->reserve(keep);
    for (size_t row = 0; row < rows; ++row) {
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

  // Champion per group: the first row seen, replaced by a later scored row
  // only when strictly cheaper. Scored rows take their costs in row order.
  constexpr size_t kNone = SIZE_MAX;
  std::vector<size_t> champion(groups, kNone);
  std::vector<float> champion_cost(groups, 0.0f);
  size_t next_cost = 0;
  for (size_t row = 0; row < rows; ++row) {
    const uint32_t g = group_of[row];
    if (!scored(row)) {
      champion[g] = row;
      continue;
    }
    const float cost = costs[next_cost++];
    if (champion[g] == kNone || cost < champion_cost[g]) {
      champion[g] = row;
      champion_cost[g] = cost;
    }
  }

  // Exact-size reservation: one output row per distinct footprint, in
  // first-seen footprint order.
  out.Reserve(groups);
  for (size_t row : champion) out.AppendCopy(v, row);
  if (stats != nullptr) {
    stats->rows_in += rows;
    stats->rows_out += out.size();
    stats->rows_unscored += rows - num_scored;
  }
  return out;
}

PlanVectorEnumeration PruneBoundary(
    const EnumerationContext& ctx, const PlanVectorEnumeration& v,
    const CostOracle& oracle, PruneStats* stats, int num_threads,
    std::vector<std::pair<size_t, float>>* cheapest_out, size_t cheapest_k) {
  // Group rows by pruning footprint: the *platform* of every boundary
  // operator (Definition 2).
  const std::vector<OperatorId>& boundary = v.boundary();
  std::vector<uint32_t> group_of;
  size_t groups = 0;
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
    groups = NumberFootprints<uint64_t>(v.size(), key_of, num_threads,
                                        &group_of);
  } else {
    // Wide-boundary fallback (more than 8 boundary operators): string keys,
    // same grouping semantics.
    const auto key_of = [&](size_t row) {
      const uint8_t* assign = v.assignment(row);
      std::string key(boundary.size(), '\0');
      for (size_t bi = 0; bi < boundary.size(); ++bi) {
        key[bi] = static_cast<char>(
            ctx.PlatformOfAssignment(assign, boundary[bi]) + 1);
      }
      return key;
    };
    groups = NumberFootprints<std::string>(v.size(), key_of, num_threads,
                                           &group_of);
  }
  return KeepGroupChampions(v, group_of, groups, oracle, stats, cheapest_out,
                            cheapest_k);
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
