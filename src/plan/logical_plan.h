#ifndef ROBOPT_PLAN_LOGICAL_PLAN_H_
#define ROBOPT_PLAN_LOGICAL_PLAN_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "plan/operator_kind.h"

namespace robopt {

/// Index of an operator inside one LogicalPlan. Stable for the lifetime of
/// the plan; the paper's LOT (Logical Operators Table) keys on it.
using OperatorId = uint16_t;

inline constexpr OperatorId kInvalidOperatorId = 0xffff;

/// Maximum number of operators a single plan may hold. The paper's largest
/// experiment uses 80 operators; 256 leaves generous headroom while letting
/// scopes be fixed-size bitsets.
inline constexpr int kMaxPlanOperators = 256;

/// The topology context an operator sits in (Section IV-A). A plan can
/// contain several topologies at once; each operator is tagged with one.
enum class Topology : uint8_t {
  kPipeline = 0,
  kJuncture = 1,
  kReplicate = 2,
  kLoop = 3,
};

inline constexpr int kNumTopologies = 4;

std::string_view ToString(Topology topology);

/// Counts of each topology in a plan, e.g., the plan of Fig. 3(a) has
/// {pipeline: 3, juncture: 1, replicate: 0, loop: 0}.
struct TopologyCounts {
  int pipeline = 0;
  int juncture = 0;
  int replicate = 0;
  int loop = 0;
};

/// One platform-agnostic operator instance in a logical plan.
struct LogicalOperator {
  OperatorId id = kInvalidOperatorId;
  LogicalOpKind kind = LogicalOpKind::kMap;
  /// Instance label, e.g. "Filter(month)". Used in dumps and the LOT.
  std::string name;
  /// CPU complexity class of the contained UDF (plan-vector feature).
  UdfComplexity udf = UdfComplexity::kNone;
  /// Output/input cardinality ratio used by the default estimator. Sources
  /// ignore it (their output cardinality is declared); Join interprets it as
  /// the match ratio applied to the probe side.
  double selectivity = 1.0;
  /// Declared output cardinality for sources (#tuples of the input dataset).
  double source_cardinality = 0.0;
  /// Average tuple size in bytes flowing out of this operator.
  double tuple_bytes = 16.0;
  /// Name of the execution kernel in the executor's registry; empty means
  /// the executor falls back to a generic kernel for the operator kind.
  std::string kernel;
  /// Generic operator parameter: batch size for Sample, cluster count for
  /// a k-means update kernel, etc. Interpreted by the kernel.
  double param = 0.0;
  /// LoopBegin only: number of iterations the loop body runs.
  int loop_iterations = 0;
  /// LoopEnd only: id of the matching LoopBegin.
  OperatorId loop_begin = kInvalidOperatorId;
};

/// A directed acyclic dataflow graph of logical operators — the optimizer's
/// input (paper Section III-A). Acyclicity also holds for loops: the
/// LoopBegin/LoopEnd pairing implies the back edge instead of materializing
/// it.
class LogicalPlan {
 public:
  LogicalPlan() = default;

  /// Adds an operator and returns its id. Operators must be added before
  /// being connected.
  OperatorId Add(LogicalOperator op);

  /// Convenience for the common case.
  OperatorId Add(LogicalOpKind kind, std::string name,
                 UdfComplexity udf = UdfComplexity::kNone,
                 double selectivity = 1.0);

  /// Adds the dataflow edge `from -> to`.
  void Connect(OperatorId from, OperatorId to);

  /// Adds a broadcast side-input edge `from -> to`: `to` consumes `from`'s
  /// (small) output as a side channel rather than as its main data stream —
  /// Rheem's broadcast channels, used by K-means/SGD to feed loop-carried
  /// state (centroids, weights) into per-tuple UDFs. Side edges participate
  /// in scheduling, loop membership and data-movement analysis, but not in
  /// stream cardinality propagation or arity validation.
  void ConnectBroadcast(OperatorId from, OperatorId to);

  /// Checks structural well-formedness: every non-source has inputs, binary
  /// operators have exactly two, loops are correctly paired, and the edge
  /// relation is acyclic.
  Status Validate() const;

  int num_operators() const { return static_cast<int>(ops_.size()); }
  const LogicalOperator& op(OperatorId id) const { return ops_[id]; }
  LogicalOperator& mutable_op(OperatorId id) { return ops_[id]; }
  const std::vector<LogicalOperator>& operators() const { return ops_; }

  /// Main dataflow parents/children (side edges excluded).
  const std::vector<OperatorId>& parents(OperatorId id) const {
    return parents_[id];
  }
  const std::vector<OperatorId>& children(OperatorId id) const {
    return children_[id];
  }

  /// Broadcast side-input parents/children.
  const std::vector<OperatorId>& side_parents(OperatorId id) const {
    return side_parents_[id];
  }
  const std::vector<OperatorId>& side_children(OperatorId id) const {
    return side_children_[id];
  }

  /// Union of data and side neighbors (adjacency for boundary analysis).
  std::vector<OperatorId> AllParents(OperatorId id) const;
  std::vector<OperatorId> AllChildren(OperatorId id) const;

  std::vector<OperatorId> SourceIds() const;
  std::vector<OperatorId> SinkIds() const;

  /// Operator ids in a topological order (sources first).
  std::vector<OperatorId> TopologicalOrder() const;

  /// Topology tag of each operator (see Topology). Loop membership wins over
  /// the other classes, junctures over replicates, and anything linear is
  /// pipeline.
  std::vector<Topology> OperatorTopologies() const;

  /// Plan-level topology histogram (the orange features of Fig. 5).
  TopologyCounts CountTopologies() const;

  /// True if `id` lies in a loop body (between a LoopBegin and its LoopEnd,
  /// inclusive).
  bool InLoop(OperatorId id) const;

  /// Number of times `id` executes: 1 outside loops, the product of the
  /// enclosing loops' iteration counts inside.
  int LoopIterations(OperatorId id) const;

  /// Operators forming the body of the loop headed by `begin` (inclusive of
  /// the LoopBegin and its LoopEnd), in no particular order.
  std::vector<OperatorId> LoopBody(OperatorId begin) const;

  /// Multi-line human-readable rendering of the plan (the LOT).
  std::string DebugString() const;

 private:
  void ComputeLoopMembership() const;

  std::vector<LogicalOperator> ops_;
  std::vector<std::vector<OperatorId>> parents_;
  std::vector<std::vector<OperatorId>> children_;
  std::vector<std::vector<OperatorId>> side_parents_;
  std::vector<std::vector<OperatorId>> side_children_;

  /// Lazily computed loop membership, invalidated on mutation. Const
  /// callers may race to fill it (several serving threads optimizing one
  /// shared plan), so the fill runs once under `mu` and publishes through
  /// `dirty`. A copy takes the data and a fresh mutex.
  struct LoopCache {
    LoopCache() = default;
    LoopCache(const LoopCache& other);
    LoopCache& operator=(const LoopCache& other);

    mutable std::mutex mu;
    std::atomic<bool> dirty{true};
    std::vector<uint8_t> in_loop;
    std::vector<int> iters;
  };
  mutable LoopCache loop_;
};

}  // namespace robopt

#endif  // ROBOPT_PLAN_LOGICAL_PLAN_H_
