#ifndef ROBOPT_CORE_PRIORITY_ENUMERATION_H_
#define ROBOPT_CORE_PRIORITY_ENUMERATION_H_

#include <vector>

#include "common/status.h"
#include "core/operations.h"
#include "obs/profile.h"

namespace robopt {

/// Order in which partial plan vector enumerations are concatenated.
enum class PriorityMode {
  /// The paper's priority (Definition 3): |V| x prod |children| — largest
  /// prospective concatenation first, maximizing the pruning effect.
  kPaper,
  /// Classic top-down (sink-side first), obtained by redefining priority as
  /// distance from the sources (Section V-B's discussion).
  kTopDown,
  /// Classic bottom-up (source-side first): distance from the sink.
  kBottomUp,
};

enum class PruneMode {
  kNone,       ///< Exhaustive enumeration (the "w/o pruning" rows of Table I).
  kBoundary,   ///< Lossless boundary pruning (Definition 2) via the oracle.
  kSwitchCap,  ///< TDGEN's platform-switch-count heuristic (beta).
};

struct EnumeratorOptions {
  PriorityMode priority = PriorityMode::kPaper;
  PruneMode prune = PruneMode::kBoundary;
  /// Max platform switches kept by kSwitchCap.
  int beta = 3;
  /// Safety valve for exhaustive runs; exceeded -> ResourceExhausted.
  size_t max_vectors = 200u * 1000u * 1000u;
  /// If nonzero, stride-subsample each pruned enumeration down to this many
  /// rows. TDGEN uses it to bound the switch-capped candidate pool (a
  /// practical cap; Robopt's optimizing mode leaves it off).
  size_t max_rows_per_enumeration = 0;
  /// Threads for the vector-algebra hot path (sharded Concat, footprint
  /// grouping, argmin scan). 0 = hardware concurrency; 1 = the exact serial
  /// code path. Results are bit-identical for every value (see DESIGN.md,
  /// "Threading model & determinism").
  int num_threads = 0;
  /// Observability sinks (tracer spans per phase; see DESIGN.md,
  /// "Observability"). The enumeration result is bit-identical whether
  /// these are set or not.
  ObsOptions obs;
  /// When non-null, per-phase wall micros and pruning splits accumulate
  /// here (the optimizer points this at OptimizeResult::profile).
  OptimizeProfile* profile = nullptr;
  /// Diagnostics: also report the k next-cheapest rows of the final
  /// enumeration (EnumerationResult::runner_up_rows), reusing the cost
  /// batch the final getOptimal computed anyway — zero extra oracle work.
  /// 0 (default) skips the selection. The chosen plan and every stat are
  /// bit-identical for any value.
  size_t top_k_runners = 0;
};

struct EnumerationStats {
  /// Plan vectors materialized across all concatenations (the paper's
  /// "number of enumerated subplans", Table I). Includes singletons.
  size_t vectors_created = 0;
  /// Rows removed by pruning.
  size_t vectors_pruned = 0;
  /// Rows in the final enumeration.
  size_t final_vectors = 0;
  /// Concat operations performed.
  size_t concat_steps = 0;
  /// Rows sent to the cost oracle (model invocations).
  size_t oracle_rows = 0;
  size_t oracle_batches = 0;
  /// Rows boundary pruning kept without a cost: the only row of their
  /// footprint group, so never sent to the oracle (PruneStats).
  size_t rows_unscored = 0;
};

struct EnumerationResult {
  ExecutionPlan plan;
  float predicted_runtime_s = 0.0f;
  EnumerationStats stats;
  /// The final (pruned) enumeration over the full scope; TDGEN consumes all
  /// of its rows as candidate training plans.
  PlanVectorEnumeration final_enumeration{0, 0};
  /// Row of final_enumeration the winner came from (getOptimal's argmin).
  size_t best_row = 0;
  /// With EnumeratorOptions::top_k_runners > 0: the next-cheapest full
  /// plans after the winner, ascending by predicted cost, as (assignment
  /// bytes, cost) pairs (assignment layout as in PlanVectorEnumeration).
  /// Sourced from the final getOptimal cost batch *and* — under
  /// PruneMode::kBoundary — from the final prune's batch, whose discarded
  /// rows are the real runner-ups when the prune collapses the final set
  /// to a single footprint. Empty otherwise; serving is bit-identical for
  /// any value of top_k_runners.
  std::vector<std::pair<std::vector<uint8_t>, float>> runner_ups;

  EnumerationResult() : plan(nullptr, nullptr) {}
};

/// Algorithm 1: priority-based plan enumeration built from the algebraic
/// operations — vectorize+split into singletons, enumerate each, then
/// concatenate in priority order, pruning after every child concatenation.
/// Lossless pruning makes the result optimal w.r.t. the oracle. All
/// per-run state lives in Run(), so one enumerator may be run repeatedly.
class PriorityEnumerator {
 public:
  /// `ctx` and `oracle` must outlive the enumerator. The oracle is used both
  /// for pruning (kBoundary) and for the final getOptimal step.
  PriorityEnumerator(const EnumerationContext* ctx, const CostOracle* oracle,
                     EnumeratorOptions options = {});

  StatusOr<EnumerationResult> Run() const;

 private:
  const EnumerationContext* ctx_;
  const CostOracle* oracle_;
  EnumeratorOptions options_;
  int num_threads_;  ///< options_.num_threads with 0 resolved to hardware.
};

}  // namespace robopt

#endif  // ROBOPT_CORE_PRIORITY_ENUMERATION_H_
