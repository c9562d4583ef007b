#include "baseline/traditional_enumerator.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <unordered_map>

#include "common/check.h"
#include "common/stopwatch.h"

namespace robopt {

/// One operator instance in an object sub-plan. Deliberately pointer-linked
/// and heap-allocated: this is how Rheem's (and most optimizers') sub-plans
/// look, and it is the representation cost the vectorized design removes.
struct TraditionalEnumerator::ObjectOperator {
  OperatorId op = 0;
  uint8_t alt = 0;
  std::vector<std::shared_ptr<ObjectOperator>> upstream;
};

struct TraditionalEnumerator::ObjectSubplan {
  std::vector<std::shared_ptr<ObjectOperator>> ops;
  Scope scope;
};

TraditionalEnumerator::TraditionalEnumerator(const EnumerationContext* ctx,
                                             const CostModel* cost_model,
                                             const RuntimeModel* ml_model,
                                             TraditionalOptions options)
    : ctx_(ctx),
      cost_model_(cost_model),
      ml_model_(ml_model),
      options_(options) {}

std::vector<float> TraditionalEnumerator::VectorizeSubplan(
    const ObjectSubplan& subplan) const {
  // Walks the object graph and produces exactly the feature row the
  // vectorized path maintains incrementally — this per-call reconstruction
  // is Rheem-ML's overhead.
  const FeatureSchema& schema = *ctx_->schema;
  const LogicalPlan& plan = *ctx_->plan;
  std::vector<float> f(schema.width(), 0.0f);
  bool any_pipeline = false;
  for (const auto& obj : subplan.ops) {
    const LogicalOperator& op = plan.op(obj->op);
    const Topology topology = ctx_->topologies[obj->op];
    if (topology == Topology::kLoop) {
      if (op.kind == LogicalOpKind::kLoopBegin) {
        f[schema.TopologyCell(Topology::kLoop)] += 1.0f;
      }
    } else if (topology == Topology::kPipeline) {
      any_pipeline = true;
    } else {
      f[schema.TopologyCell(topology)] += 1.0f;
    }
    const LogicalOpKind kind = op.kind;
    f[schema.OpCountCell(kind)] += 1.0f;
    f[schema.OpAltCell(kind, obj->alt)] += 1.0f;
    f[schema.OpTopologyCell(kind, topology)] += 1.0f;
    f[schema.OpUdfCell(kind)] += static_cast<float>(op.udf);
    const float iters = static_cast<float>(ctx_->loop_iters[obj->op]);
    f[schema.OpInCardCell(kind)] +=
        static_cast<float>(ctx_->cards.input[obj->op]) * iters;
    f[schema.OpOutCardCell(kind)] +=
        static_cast<float>(ctx_->cards.output[obj->op]) * iters;
    f[schema.TupleSizeCell()] =
        std::max(f[schema.TupleSizeCell()],
                 static_cast<float>(op.tuple_bytes));
  }
  if (any_pipeline) f[schema.TopologyCell(Topology::kPipeline)] = 1.0f;

  // Conversions on in-scope cross-platform edges.
  std::unordered_map<OperatorId, PlatformId> platform_of;
  platform_of.reserve(subplan.ops.size());
  for (const auto& obj : subplan.ops) {
    platform_of[obj->op] = ctx_->alt_platform[obj->op][obj->alt];
  }
  for (const EnumerationContext::Edge& edge : ctx_->edges) {
    auto from_it = platform_of.find(edge.from);
    auto to_it = platform_of.find(edge.to);
    if (from_it == platform_of.end() || to_it == platform_of.end()) continue;
    if (from_it->second == to_it->second) continue;
    const float conv_iters = static_cast<float>(
        std::min(ctx_->loop_iters[edge.from], ctx_->loop_iters[edge.to]));
    const float tuples =
        static_cast<float>(ctx_->cards.output[edge.from]) * conv_iters;
    f[ctx_->conv_cell_count[from_it->second][to_it->second]] += conv_iters;
    f[ctx_->conv_cell_in[from_it->second][to_it->second]] += tuples;
    f[ctx_->conv_cell_out[from_it->second][to_it->second]] += tuples;
  }
  return f;
}

double TraditionalEnumerator::CostOf(const ObjectSubplan& subplan,
                                     TraditionalStats* stats) const {
  ++stats->subplans_costed;
  if (options_.oracle == TraditionalOracle::kMlModel) {
    Stopwatch vectorize_watch;
    const std::vector<float> features = VectorizeSubplan(subplan);
    stats->vectorize_ms += vectorize_watch.ElapsedMillis();
    Stopwatch oracle_watch;
    const float cost =
        ml_model_->Predict(features.data(), features.size());
    stats->oracle_ms += oracle_watch.ElapsedMillis();
    return cost;
  }
  // RHEEMix: materialize the assignment and walk it with the cost model.
  Stopwatch oracle_watch;
  ExecutionPlan exec(ctx_->plan, ctx_->registry);
  std::vector<uint8_t> mask(ctx_->plan->num_operators(), 0);
  for (const auto& obj : subplan.ops) {
    exec.Assign(obj->op, obj->alt);
    mask[obj->op] = 1;
  }
  const double cost = cost_model_->SubplanCost(exec, ctx_->cards, mask);
  stats->oracle_ms += oracle_watch.ElapsedMillis();
  return cost;
}

StatusOr<TraditionalResult> TraditionalEnumerator::Run() {
  Stopwatch total_watch;
  const LogicalPlan& plan = *ctx_->plan;
  const int n = plan.num_operators();
  TraditionalResult result;

  if (options_.oracle == TraditionalOracle::kCostModel &&
      cost_model_ == nullptr) {
    return Status::InvalidArgument("cost model oracle requires a CostModel");
  }
  if (options_.oracle == TraditionalOracle::kMlModel && ml_model_ == nullptr) {
    return Status::InvalidArgument("ML oracle requires a RuntimeModel");
  }

  // Singleton sub-plan groups, one per operator.
  std::vector<std::vector<ObjectSubplan>> groups(n);
  std::vector<uint8_t> alive(n, 1);
  std::vector<size_t> owner(n);
  for (int op = 0; op < n; ++op) {
    owner[op] = op;
    for (size_t a = 0; a < ctx_->allowed_alts[op].size(); ++a) {
      ObjectSubplan single;
      auto obj = std::make_shared<ObjectOperator>();
      obj->op = static_cast<OperatorId>(op);
      obj->alt = ctx_->allowed_alts[op][a];
      single.ops.push_back(std::move(obj));
      single.scope.set(op);
      groups[op].push_back(std::move(single));
      ++result.stats.subplans_created;
    }
  }

  auto children_of = [&](size_t index) {
    std::set<size_t> children;
    for (int op = 0; op < n; ++op) {
      if (!groups[index].empty() && groups[index][0].scope.test(op)) {
        for (OperatorId child : plan.AllChildren(static_cast<OperatorId>(op))) {
          if (owner[child] != index) children.insert(owner[child]);
        }
      }
    }
    return children;
  };

  auto concat_pair = [&](const ObjectSubplan& a,
                         const ObjectSubplan& b) {
    // Deep-copy both object graphs into a fresh sub-plan (Rheem's
    // concatenation allocates new plan objects).
    ObjectSubplan out;
    out.scope = a.scope | b.scope;
    std::unordered_map<const ObjectOperator*, std::shared_ptr<ObjectOperator>>
        cloned;
    for (const ObjectSubplan* side : {&a, &b}) {
      for (const auto& obj : side->ops) {
        auto copy = std::make_shared<ObjectOperator>();
        copy->op = obj->op;
        copy->alt = obj->alt;
        cloned[obj.get()] = copy;
        out.ops.push_back(std::move(copy));
      }
    }
    for (const ObjectSubplan* side : {&a, &b}) {
      for (const auto& obj : side->ops) {
        for (const auto& up : obj->upstream) {
          cloned[obj.get()]->upstream.push_back(cloned[up.get()]);
        }
      }
    }
    // Wire new cross edges.
    std::unordered_map<OperatorId, std::shared_ptr<ObjectOperator>> by_id;
    for (const auto& obj : out.ops) by_id[obj->op] = obj;
    for (const EnumerationContext::Edge& edge : ctx_->edges) {
      const bool cross = (a.scope.test(edge.from) && b.scope.test(edge.to)) ||
                         (b.scope.test(edge.from) && a.scope.test(edge.to));
      if (cross) by_id[edge.to]->upstream.push_back(by_id[edge.from]);
    }
    return out;
  };

  auto prune_group = [&](std::vector<ObjectSubplan>& group) {
    if (!options_.prune || group.size() <= 1) return;
    const std::vector<OperatorId> boundary =
        ComputeBoundary(*ctx_, group[0].scope);
    // Footprints first: a sub-plan alone in its footprint is kept whatever
    // it costs, so only sub-plans with a rival are costed (as in Robopt).
    std::vector<std::string> keys(group.size());
    struct Champion {
      size_t members = 0;
      double cost = 0.0;
      size_t row = SIZE_MAX;
    };
    std::map<std::string, Champion> best;
    for (size_t i = 0; i < group.size(); ++i) {
      std::unordered_map<OperatorId, PlatformId> platform_of;
      for (const auto& obj : group[i].ops) {
        platform_of[obj->op] = ctx_->alt_platform[obj->op][obj->alt];
      }
      keys[i].assign(boundary.size(), '\0');
      for (size_t bi = 0; bi < boundary.size(); ++bi) {
        keys[i][bi] = static_cast<char>(platform_of[boundary[bi]] + 1);
      }
      ++best[keys[i]].members;
    }
    for (size_t i = 0; i < group.size(); ++i) {
      Champion& champion = best[keys[i]];
      if (champion.members == 1) {
        champion.row = i;
        continue;
      }
      const double cost = CostOf(group[i], &result.stats);
      if (champion.row == SIZE_MAX || cost < champion.cost) {
        champion.cost = cost;
        champion.row = i;
      }
    }
    std::vector<ObjectSubplan> kept;
    kept.reserve(best.size());
    std::vector<size_t> keep_rows;
    for (const auto& [key, champion] : best) keep_rows.push_back(champion.row);
    std::sort(keep_rows.begin(), keep_rows.end());
    for (size_t row : keep_rows) kept.push_back(std::move(group[row]));
    group = std::move(kept);
  };

  std::vector<uint64_t> seq(n, 0);
  uint64_t seq_counter = n;
  size_t alive_count = n;
  while (alive_count > 1) {
    // Paper priority: |V| x prod |children|; ties by smaller boundary, then
    // queue-entry order — identical to the vectorized enumerator, so both
    // explore the same sub-plans.
    size_t best = SIZE_MAX;
    double best_priority = -1.0;
    std::vector<size_t> best_children;
    for (int i = 0; i < n; ++i) {
      if (!alive[i]) continue;
      const auto children = children_of(i);
      if (children.empty()) continue;
      double priority = static_cast<double>(groups[i].size());
      for (size_t child : children) {
        priority *= static_cast<double>(groups[child].size());
      }
      const bool wins =
          best == SIZE_MAX || priority > best_priority ||
          (priority == best_priority &&
           (ComputeBoundary(*ctx_, groups[i][0].scope).size() <
                ComputeBoundary(*ctx_, groups[best][0].scope).size() ||
            (ComputeBoundary(*ctx_, groups[i][0].scope).size() ==
                 ComputeBoundary(*ctx_, groups[best][0].scope).size() &&
             seq[i] < seq[best])));
      if (wins) {
        best = i;
        best_priority = priority;
        best_children.assign(children.begin(), children.end());
      }
    }
    if (best == SIZE_MAX) {
      return Status::Internal("traditional enumeration stuck (disconnected)");
    }
    for (size_t child : best_children) {
      if (!alive[child] || child == best) continue;
      std::vector<ObjectSubplan> merged;
      merged.reserve(groups[best].size() * groups[child].size());
      for (const ObjectSubplan& a : groups[best]) {
        for (const ObjectSubplan& b : groups[child]) {
          merged.push_back(concat_pair(a, b));
          ++result.stats.subplans_created;
        }
      }
      prune_group(merged);
      groups[best] = std::move(merged);
      alive[child] = 0;
      --alive_count;
      groups[child].clear();
      for (int op = 0; op < n; ++op) {
        if (owner[op] == static_cast<size_t>(child)) owner[op] = best;
      }
    }
    seq[best] = ++seq_counter;
  }

  size_t final_index = SIZE_MAX;
  for (int i = 0; i < n; ++i) {
    if (alive[i]) final_index = i;
  }
  ROBOPT_CHECK(final_index != SIZE_MAX);
  std::vector<ObjectSubplan>& final_group = groups[final_index];
  if (final_group.empty()) {
    return Status::Internal("traditional enumeration produced no plans");
  }
  double best_cost = std::numeric_limits<double>::infinity();
  size_t best_row = 0;
  for (size_t i = 0; i < final_group.size(); ++i) {
    const double cost = CostOf(final_group[i], &result.stats);
    if (cost < best_cost) {
      best_cost = cost;
      best_row = i;
    }
  }
  ExecutionPlan exec(ctx_->plan, ctx_->registry);
  for (const auto& obj : final_group[best_row].ops) {
    exec.Assign(obj->op, obj->alt);
  }
  result.plan = std::move(exec);
  result.predicted_cost = best_cost;
  result.stats.total_ms = total_watch.ElapsedMillis();
  return result;
}

}  // namespace robopt
