#ifndef ROBOPT_CORE_OPERATIONS_H_
#define ROBOPT_CORE_OPERATIONS_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "common/status.h"
#include "core/cost_oracle.h"
#include "core/feature_schema.h"
#include "core/plan_vector.h"
#include "plan/cardinality.h"
#include "platform/execution_plan.h"

namespace robopt {

/// Everything the algebraic operations need about one optimization run:
/// the plan, the catalog, the vector schema, (injected or estimated)
/// cardinalities, and pre-resolved lookup tables so the per-row merge loop
/// touches only flat arrays.
struct EnumerationContext {
  const LogicalPlan* plan = nullptr;
  const PlatformRegistry* registry = nullptr;
  const FeatureSchema* schema = nullptr;
  Cardinalities cards;
  std::vector<Topology> topologies;
  /// Loop multiplier per operator: cardinality features encode the *total*
  /// tuples an operator processes across loop iterations, so the model can
  /// tell a 10-iteration loop from a 1000-iteration one.
  std::vector<int> loop_iters;

  /// Allowed execution alternatives per operator (restricted by platform
  /// mask), as indices into registry->AlternativesFor(kind).
  std::vector<std::vector<uint8_t>> allowed_alts;
  /// alt_platform[op][alt] = platform of that alternative.
  std::vector<std::vector<PlatformId>> alt_platform;

  /// All edges (data + broadcast), for cross-scope conversion accounting.
  struct Edge {
    OperatorId from;
    OperatorId to;
  };
  std::vector<Edge> edges;
  /// Indices into `edges` of the edges touching each operator, ascending,
  /// self-edges left out; operator `op`'s run is [incident_begin[op],
  /// incident_begin[op + 1]) of `incident_edges` (one flat array, so making
  /// a context allocates two vectors, not one per operator). Concat reads a
  /// merge's crossing edges and the merged scope's boundary off these runs
  /// instead of scanning every edge.
  std::vector<uint32_t> incident_begin;
  std::vector<uint32_t> incident_edges;

  /// conv_cell_*[from_platform][to_platform]: pre-resolved feature cells for
  /// a conversion between two platforms (SIZE_MAX on the diagonal).
  std::vector<std::vector<size_t>> conv_cell_count;
  std::vector<std::vector<size_t>> conv_cell_in;
  std::vector<std::vector<size_t>> conv_cell_out;

  /// Builds a context. If `cards` is null, cardinalities are estimated from
  /// operator selectivities; the paper's evaluation injects real ones.
  /// `allowed_platform_mask` restricts the search to a platform subset (bit
  /// i = platform id i).
  static StatusOr<EnumerationContext> Make(
      const LogicalPlan* plan, const PlatformRegistry* registry,
      const FeatureSchema* schema, const Cardinalities* cards = nullptr,
      uint64_t allowed_platform_mask = ~0ull);

  /// Platform chosen for `op` by an assignment row (0xff if unassigned).
  PlatformId PlatformOfAssignment(const uint8_t* assignment,
                                  OperatorId op) const {
    const uint8_t alt_plus_one = assignment[op];
    if (alt_plus_one == 0) return 0xff;
    return alt_platform[op][alt_plus_one - 1];
  }
};

// ---------------------------------------------------------------------------
// The seven algebraic operations of Section IV. Names follow the paper.
// ---------------------------------------------------------------------------

/// (1) vectorize(p) -> v̄ : the abstract plan vector of the whole plan, with
/// -1 in every allowed execution-alternative cell.
AbstractPlanVector Vectorize(const EnumerationContext& ctx);

/// (4) split(v̄) -> {v̄_1, ...} : singleton abstract vectors, one per operator
/// (the granularity Algorithm 1 starts from).
std::vector<AbstractPlanVector> Split(const EnumerationContext& ctx,
                                      const AbstractPlanVector& v);

/// (2) enumerate(v̄) -> V : instantiates every execution alternative
/// combination of the abstract vector's scope. Exponential in |scope|; the
/// enumeration algorithm applies it to singletons only.
PlanVectorEnumeration Enumerate(const EnumerationContext& ctx,
                                const AbstractPlanVector& v);

/// (5)+(6) iterate + merge, fused: concatenates two enumerations into the
/// enumeration of the union scope — all |V1| x |V2| pairwise merges, each a
/// flat float-array addition plus conversion accounting on scope-crossing
/// edges. This fusion over a contiguous pool is the vectorized fast path
/// the paper's Figure 1 measures.
///
/// Everything that depends only on the two scopes is done once per call,
/// not once per row: the edges joining `a.scope()` to `b.scope()` are
/// collected once (in `ctx.edges` order, so per-row float-add order is
/// fixed), and the union's boundary is derived from the two input
/// boundaries — every boundary operator of A∪B is one of A or of B, and it
/// stays one iff it has a neighbour outside A∪B. The inputs' boundaries
/// must therefore be exact, as Enumerate, Concat and the prunes keep them.
///
/// With `num_threads > 1` the flattened (row_a, row_b) pair space is sharded
/// into contiguous chunks, each merged by one pool thread directly into its
/// slice of the preallocated output. Serial and sharded paths run the same
/// row kernel, so row order and content are bit-identical for every thread
/// count.
PlanVectorEnumeration Concat(const EnumerationContext& ctx,
                             const PlanVectorEnumeration& a,
                             const PlanVectorEnumeration& b,
                             int num_threads = 1);

/// (6) merge(v1, v2) -> v for a single pair of rows, appended to `out`
/// (exposed for tests and for the paper-faithful formulation; Concat is the
/// batched form and produces the same row bits).
void MergeRows(const EnumerationContext& ctx, const PlanVectorEnumeration& a,
               size_t row_a, const PlanVectorEnumeration& b, size_t row_b,
               PlanVectorEnumeration* out);

/// Boundary operators of a scope: members adjacent (data or broadcast edge)
/// to at least one operator outside the scope.
std::vector<OperatorId> ComputeBoundary(const EnumerationContext& ctx,
                                        const Scope& scope);

struct PruneStats {
  size_t rows_in = 0;
  size_t rows_out = 0;
  /// Rows kept without a cost: each was the only row of its footprint
  /// group, so it survives whatever it costs and is never sent to the
  /// oracle. Counted by the boundary prunes only.
  size_t rows_unscored = 0;
};

/// (7) prune(V, m) -> V' : the boundary pruning of Definition 2 — groups
/// rows by the platforms of the scope's boundary operators (the pruning
/// footprint) and keeps the cheapest row of each group according to the
/// oracle. Lossless w.r.t. the oracle.
///
/// Grouping comes first and needs no cost. Only *contested* rows — rows of
/// groups with two or more members — are scored, in one oracle batch: a
/// row alone in its group is kept whatever it costs. When every row is
/// contested the pool is scored in place; when none is, the oracle is not
/// called. The kept set is therefore the score-every-row result: one row
/// per footprint, in first-seen footprint order, each the group's strictly
/// cheapest row (the earliest on ties). `stats->rows_unscored` counts the
/// rows kept unscored.
///
/// Footprints of up to 8 boundary operators are packed into a `uint64_t`
/// key (one platform byte per boundary operator); larger boundaries fall
/// back to string keys. Each row's footprint is computed once. With
/// `num_threads > 1` the rows are sharded into per-thread footprint
/// numberings that are renumbered in ascending shard order, reproducing
/// the serial first-seen group order exactly.
///
/// With `cheapest_out` non-null and `cheapest_k > 0`, every row of a pool
/// of two or more rows is scored, and the `cheapest_k` cheapest *input*
/// rows are reported as (row, cost) pairs ascending by (cost, row index).
/// Its one caller is the last merge of an enumeration, whose scope is the
/// whole plan: its boundary is empty, so all its rows share one footprint
/// and are contested anyway. The runner-up harvest thus still sees every
/// row of the final merge, at zero extra oracle work, and the pruned
/// output, every stat and the oracle row count are identical either way.
/// Left empty when `v` has at most one row (nothing is scored).
PlanVectorEnumeration PruneBoundary(
    const EnumerationContext& ctx, const PlanVectorEnumeration& v,
    const CostOracle& oracle, PruneStats* stats = nullptr,
    int num_threads = 1,
    std::vector<std::pair<size_t, float>>* cheapest_out = nullptr,
    size_t cheapest_k = 0);

/// The champion pass of the boundary prunes (PruneBoundary and
/// PruneBoundaryWithProperties): `group_of[row]` numbers the footprint
/// group of each row of `v`, groups numbered 0, 1, ... in first-seen row
/// order, `groups` of them. Scores the contested rows and keeps each
/// group's champion, as PruneBoundary documents.
PlanVectorEnumeration KeepGroupChampions(
    const PlanVectorEnumeration& v, const std::vector<uint32_t>& group_of,
    size_t groups, const CostOracle& oracle, PruneStats* stats = nullptr,
    std::vector<std::pair<size_t, float>>* cheapest_out = nullptr,
    size_t cheapest_k = 0);

/// TDGEN's alternative prune: drops rows with more than `beta` platform
/// switches (Section VI-A); keeps everything else.
PlanVectorEnumeration PruneSwitchCap(const EnumerationContext& ctx,
                                     const PlanVectorEnumeration& v, int beta,
                                     PruneStats* stats = nullptr);

/// (3) unvectorize(v) -> p : reads the assignment bytes of row `row` back
/// into an executable ExecutionPlan (via the LOT; conversions — the COT —
/// are implied by the assignment).
ExecutionPlan Unvectorize(const EnumerationContext& ctx,
                          const PlanVectorEnumeration& v, size_t row);

/// getOptimal: index of the cheapest row according to the oracle (batch
/// evaluated); `cost_out` receives its predicted cost if non-null. The scan
/// shards with `num_threads` (earliest-row tie-breaking, so the winner is
/// thread-count-independent); the oracle batch itself parallelizes inside
/// the model (see RandomForest::PredictBatch). `costs_out`, when non-null,
/// receives the whole per-row cost vector the scan already computed —
/// diagnostics (top-k runner-up plans) read it for free, with zero extra
/// oracle work.
size_t ArgMinCost(const EnumerationContext& ctx,
                  const PlanVectorEnumeration& v, const CostOracle& oracle,
                  float* cost_out = nullptr, int num_threads = 1,
                  std::vector<float>* costs_out = nullptr);

/// Re-encodes a full-plan assignment (one byte per operator, alt index + 1)
/// into a feature row under `ctx`'s cardinalities. TDGEN uses this to
/// instantiate one enumerated plan structure under many configuration
/// profiles (input sizes) without re-running the enumeration.
std::vector<float> EncodeAssignment(const EnumerationContext& ctx,
                                    const uint8_t* assignment);

/// Builds an ExecutionPlan directly from an assignment row.
ExecutionPlan AssignmentToPlan(const EnumerationContext& ctx,
                               const uint8_t* assignment);

}  // namespace robopt

#endif  // ROBOPT_CORE_OPERATIONS_H_
