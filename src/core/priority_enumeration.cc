#include "core/priority_enumeration.h"

#include <algorithm>

#include "common/check.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "obs/trace.h"

namespace robopt {

namespace {

/// Longest-path distance of every operator from the sink side (`to_sink`)
/// or from the sources, over main and side edges alike.
std::vector<int> LongestPathDistances(const LogicalPlan& plan, bool to_sink) {
  std::vector<int> dist(plan.num_operators(), 0);
  const std::vector<OperatorId> order = plan.TopologicalOrder();
  if (to_sink) {
    for (auto it = order.rbegin(); it != order.rend(); ++it) {
      for (OperatorId child : plan.children(*it)) {
        dist[*it] = std::max(dist[*it], dist[child] + 1);
      }
      for (OperatorId child : plan.side_children(*it)) {
        dist[*it] = std::max(dist[*it], dist[child] + 1);
      }
    }
  } else {
    for (OperatorId op : order) {
      for (OperatorId parent : plan.parents(op)) {
        dist[op] = std::max(dist[op], dist[parent] + 1);
      }
      for (OperatorId parent : plan.side_parents(op)) {
        dist[op] = std::max(dist[op], dist[parent] + 1);
      }
    }
  }
  return dist;
}

}  // namespace

PriorityEnumerator::PriorityEnumerator(const EnumerationContext* ctx,
                                       const CostOracle* oracle,
                                       EnumeratorOptions options)
    : ctx_(ctx),
      oracle_(oracle),
      options_(options),
      num_threads_(options.num_threads == 0 ? ThreadPool::HardwareThreads()
                                            : options.num_threads) {}

StatusOr<EnumerationResult> PriorityEnumerator::Run() const {
  const LogicalPlan& plan = *ctx_->plan;
  const int n = plan.num_operators();
  EnumerationResult result;

  // Observability: all instrumentation below is gated on `timed`, so with
  // obs disabled the run takes the exact pre-instrumentation code path
  // (bit-identical results either way — spans and micros never feed back
  // into the search).
  Tracer* const tracer = ROBOPT_OBS_ON(options_.obs) ? options_.obs.tracer
                                                     : nullptr;
  OptimizeProfile* const prof = options_.profile;
  const bool timed = tracer != nullptr || prof != nullptr;
  const uint64_t trace = options_.obs.trace_id;
  const uint64_t parent = options_.obs.parent_span;
  Stopwatch phase_clock;

  // Lines 2-5: vectorize, split into singletons, enumerate each, enqueue.
  if (timed) phase_clock.Restart();
  SpanScope vectorize_span(tracer, trace, parent, "vectorize");
  const AbstractPlanVector abstract = Vectorize(*ctx_);
  const std::vector<AbstractPlanVector> singles = Split(*ctx_, abstract);
  std::vector<PlanVectorEnumeration> enums;
  enums.reserve(singles.size());
  for (const AbstractPlanVector& single : singles) {
    enums.push_back(Enumerate(*ctx_, single));
    result.stats.vectors_created += enums.back().size();
  }
  if (timed) {
    vectorize_span.SetArgA("singletons", static_cast<int64_t>(enums.size()));
    vectorize_span.SetArgB("vectors",
                           static_cast<int64_t>(result.stats.vectors_created));
    if (prof != nullptr) prof->phase.vectorize_us += phase_clock.ElapsedMicros();
  }
  vectorize_span.End();

  // The queue of Algorithm 1, kept incrementally (see DESIGN.md, "Algorithm
  // 1"). Per enumeration: its child enumerations — those owning a child
  // operator of its scope — and, mirrored, its parents (the enumerations
  // listing it), both ascending; and its cached queue keys. A merge updates
  // only the lists and priorities it changes; nothing rescans operators.
  if (timed) phase_clock.Restart();
  const size_t count = enums.size();
  std::vector<uint8_t> alive(count, 1);
  std::vector<std::vector<size_t>> children(count);
  std::vector<std::vector<size_t>> parents(count);
  std::vector<double> priority(count, 0.0);
  std::vector<size_t> boundary_size(count);
  std::vector<uint64_t> seq(count, 0);  // Queue-entry order for tie-breaks.
  {
    std::vector<size_t> owner(n, 0);  // Op id -> singleton index.
    for (size_t i = 0; i < count; ++i) {
      for (OperatorId op : singles[i].ops) owner[op] = i;
    }
    for (size_t i = 0; i < count; ++i) {
      std::vector<size_t>& list = children[i];
      for (OperatorId op : singles[i].ops) {
        for (OperatorId child : plan.children(op)) list.push_back(owner[child]);
        for (OperatorId child : plan.side_children(op)) {
          list.push_back(owner[child]);
        }
      }
      std::sort(list.begin(), list.end());
      list.erase(std::unique(list.begin(), list.end()), list.end());
      list.erase(std::remove(list.begin(), list.end(), i), list.end());
      for (size_t child : list) parents[child].push_back(i);  // Ascending.
      boundary_size[i] = enums[i].boundary().size();
    }
  }
  // kPaper: |V| x prod of children's sizes (Definition 3). The product is
  // taken in ascending child index: floating-point rounding depends on the
  // order, and with it which priorities tie (see DESIGN.md).
  auto paper_priority = [&](size_t i) {
    double p = static_cast<double>(enums[i].size());
    for (size_t child : children[i]) {
      p *= static_cast<double>(enums[child].size());
    }
    return p;
  };
  if (options_.priority == PriorityMode::kPaper) {
    for (size_t i = 0; i < count; ++i) priority[i] = paper_priority(i);
  } else {
    // Top-down ranks by distance from the sources, bottom-up by distance
    // from the sink; an enumeration's priority is the max over its scope.
    const std::vector<int> dist = LongestPathDistances(
        plan, /*to_sink=*/options_.priority == PriorityMode::kBottomUp);
    for (size_t i = 0; i < count; ++i) {
      for (OperatorId op : singles[i].ops) {
        priority[i] = std::max(priority[i], static_cast<double>(dist[op]));
      }
    }
  }
  uint64_t seq_counter = count;
  if (timed && prof != nullptr) {
    prof->phase.schedule_us += phase_clock.ElapsedMicros();
  }

  const size_t oracle_rows_before = oracle_->rows_estimated();
  const size_t oracle_batches_before = oracle_->batches();

  // Runner-up harvest off the *final* prune's cost batch. The final
  // concat's prune scores every full-plan candidate and then — with
  // boundary pruning — typically keeps one row per footprint (often just
  // the winner's), so the discarded rows are the real runner-ups. Earlier
  // prunes see partial plans whose harvest would be overwritten anyway, so
  // only the call that merges the last two enumerations (harvest_runners)
  // pays for the scan. Zero extra oracle work, no stat changes.
  std::vector<std::pair<std::vector<uint8_t>, float>> prune_harvest;
  std::vector<std::pair<size_t, float>> prune_cheapest;

  auto prune = [&](PlanVectorEnumeration&& merged, uint64_t span_parent,
                   bool harvest_runners) -> PlanVectorEnumeration {
    const bool harvest = harvest_runners && options_.top_k_runners > 0;
    PruneStats prune_stats;
    PlanVectorEnumeration pruned(0, 0);
    if (timed) phase_clock.Restart();
    SpanScope prune_span(tracer, trace, span_parent, "prune");
    switch (options_.prune) {
      case PruneMode::kNone:
        return std::move(merged);
      case PruneMode::kBoundary:
        pruned = PruneBoundary(*ctx_, merged, *oracle_, &prune_stats,
                               num_threads_,
                               harvest ? &prune_cheapest : nullptr,
                               options_.top_k_runners + 1);
        if (harvest) {
          // Overwrite in place: the inner byte vectors keep their capacity
          // across prune calls, so the steady state allocates nothing.
          prune_harvest.resize(prune_cheapest.size());
          for (size_t i = 0; i < prune_cheapest.size(); ++i) {
            const auto& [row, cost] = prune_cheapest[i];
            prune_harvest[i].first.assign(
                merged.assignment(row),
                merged.assignment(row) + merged.num_ops());
            prune_harvest[i].second = cost;
          }
        }
        break;
      case PruneMode::kSwitchCap:
        pruned = PruneSwitchCap(*ctx_, merged, options_.beta, &prune_stats);
        break;
    }
    if (timed) {
      prune_span.SetArgA("rows_in", static_cast<int64_t>(prune_stats.rows_in));
      prune_span.SetArgB("rows_out",
                         static_cast<int64_t>(prune_stats.rows_out));
      if (prof != nullptr) {
        prof->phase.prune_us += phase_clock.ElapsedMicros();
        if (options_.prune == PruneMode::kBoundary) {
          prof->boundary_prune_rows_in += prune_stats.rows_in;
          prof->boundary_prune_rows_out += prune_stats.rows_out;
        } else {
          prof->switch_prune_rows_in += prune_stats.rows_in;
          prof->switch_prune_rows_out += prune_stats.rows_out;
        }
      }
    }
    prune_span.End();
    result.stats.vectors_pruned += prune_stats.rows_in - prune_stats.rows_out;
    result.stats.rows_unscored += prune_stats.rows_unscored;
    const size_t cap = options_.max_rows_per_enumeration;
    if (cap > 0 && pruned.size() > cap) {
      PlanVectorEnumeration sampled(pruned.width(), pruned.num_ops());
      sampled.mutable_scope() = pruned.scope();
      sampled.set_boundary(pruned.boundary());
      sampled.Reserve(cap);
      const double stride =
          static_cast<double>(pruned.size()) / static_cast<double>(cap);
      for (size_t i = 0; i < cap; ++i) {
        sampled.AppendCopy(pruned, static_cast<size_t>(i * stride));
      }
      return sampled;
    }
    return pruned;
  };

  size_t alive_count = count;
  std::vector<size_t> round_children;
  SpanScope enumerate_span(tracer, trace, parent, "enumerate");
  while (alive_count > 1) {
    // Dequeue: highest priority among enumerations that have children; ties
    // broken by smaller boundary (fewer new boundary operators), then queue
    // entry order.
    if (timed) phase_clock.Restart();
    size_t best = SIZE_MAX;
    for (size_t i = 0; i < count; ++i) {
      if (!alive[i] || children[i].empty()) continue;
      const bool wins =
          best == SIZE_MAX || priority[i] > priority[best] ||
          (priority[i] == priority[best] &&
           (boundary_size[i] < boundary_size[best] ||
            (boundary_size[i] == boundary_size[best] && seq[i] < seq[best])));
      if (wins) best = i;
    }

    if (best == SIZE_MAX) {
      // Disconnected plan components: merge the first two alive directly.
      size_t first = SIZE_MAX;
      size_t second = SIZE_MAX;
      for (size_t i = 0; i < count && second == SIZE_MAX; ++i) {
        if (!alive[i]) continue;
        if (first == SIZE_MAX) {
          first = i;
        } else {
          second = i;
        }
      }
      ROBOPT_CHECK(second != SIZE_MAX);
      best = first;
      children[best] = {second};
    }
    round_children.swap(children[best]);
    if (timed && prof != nullptr) {
      prof->phase.schedule_us += phase_clock.ElapsedMicros();
    }

    // Lines 8-14: concatenate with each child, pruning after each step.
    for (size_t child : round_children) {
      if (timed) phase_clock.Restart();
      SpanScope concat_span(tracer, trace, enumerate_span.id(), "concat");
      PlanVectorEnumeration merged =
          Concat(*ctx_, enums[best], enums[child], num_threads_);
      result.stats.vectors_created += merged.size();
      ++result.stats.concat_steps;
      if (timed) {
        concat_span.SetArgA("rows", static_cast<int64_t>(merged.size()));
        if (prof != nullptr) {
          prof->phase.concat_us += phase_clock.ElapsedMicros();
        }
      }
      concat_span.End();
      if (result.stats.vectors_created > options_.max_vectors) {
        return Status::ResourceExhausted(
            "enumeration exceeded max_vectors; use pruning");
      }
      // alive_count == 2 here means this merge leaves one enumeration —
      // the final, full-scope one whose prune batch feeds the harvest.
      enums[best] = prune(std::move(merged), enumerate_span.id(),
                          /*harvest_runners=*/alive_count == 2);
      alive[child] = 0;
      --alive_count;
      enums[child] = PlanVectorEnumeration(0, 0);  // Release memory.
    }

    // Bookkeeping. Lists only ever hold alive enumerations, so every dead
    // entry met below is a child merged into `best` this round: best takes
    // over the merged children's children and parents, and their lists
    // swap the dead entries for `best`.
    if (timed) phase_clock.Restart();
    auto absorbed = [&](size_t e) { return !alive[e] || e == best; };
    std::vector<size_t>& best_children = children[best];
    std::vector<size_t>& best_parents = parents[best];
    for (size_t child : round_children) {
      best_children.insert(best_children.end(), children[child].begin(),
                           children[child].end());
      best_parents.insert(best_parents.end(), parents[child].begin(),
                          parents[child].end());
      if (options_.priority != PriorityMode::kPaper) {
        priority[best] = std::max(priority[best], priority[child]);
      }
    }
    round_children.clear();
    for (std::vector<size_t>* list : {&best_children, &best_parents}) {
      list->erase(std::remove_if(list->begin(), list->end(), absorbed),
                  list->end());
      std::sort(list->begin(), list->end());
      list->erase(std::unique(list->begin(), list->end()), list->end());
    }
    auto relink = [&](std::vector<size_t>& list) {
      list.erase(std::remove_if(list.begin(), list.end(), absorbed),
                 list.end());
      list.insert(std::lower_bound(list.begin(), list.end(), best), best);
    };
    for (size_t grandchild : best_children) relink(parents[grandchild]);
    for (size_t lister : best_parents) {
      relink(children[lister]);
      // Under kPaper a lister's priority reads best's new size.
      if (options_.priority == PriorityMode::kPaper) {
        priority[lister] = paper_priority(lister);
      }
    }
    if (options_.priority == PriorityMode::kPaper) {
      priority[best] = paper_priority(best);
    }
    boundary_size[best] = enums[best].boundary().size();
    seq[best] = ++seq_counter;
    if (timed && prof != nullptr) {
      prof->phase.schedule_us += phase_clock.ElapsedMicros();
    }
  }

  enumerate_span.End();

  // Line 18: pick the cheapest full plan vector and unvectorize it.
  size_t final_index = SIZE_MAX;
  for (size_t i = 0; i < count; ++i) {
    if (alive[i]) final_index = i;
  }
  ROBOPT_CHECK(final_index != SIZE_MAX);
  PlanVectorEnumeration& final_enum = enums[final_index];
  if (final_enum.size() == 0) {
    return Status::Internal("enumeration produced no plans");
  }
  if (timed) phase_clock.Restart();
  SpanScope predict_span(tracer, trace, parent, "predict-batch");
  float best_cost = 0.0f;
  // The runner-up selection reuses the cost batch ArgMinCost computes
  // anyway; requesting it changes neither the winner nor any stat.
  std::vector<float> final_costs;
  std::vector<float>* const costs_out =
      options_.top_k_runners > 0 ? &final_costs : nullptr;
  const size_t best_row = ArgMinCost(*ctx_, final_enum, *oracle_, &best_cost,
                                     num_threads_, costs_out);
  if (options_.top_k_runners > 0) {
    // Candidate pool: the final enumeration's kept rows (costs from the
    // getOptimal batch) plus the final prune's harvest (rows the prune
    // discarded). Kept rows appear in both with identical costs — the
    // oracle is deterministic over identical feature rows — so dedup by
    // assignment, drop the winner, and keep the k cheapest by
    // (cost, assignment bytes): a fully deterministic order.
    const size_t num_ops = static_cast<size_t>(final_enum.num_ops());
    const std::vector<uint8_t> winner(
        final_enum.assignment(best_row),
        final_enum.assignment(best_row) + num_ops);
    std::vector<std::pair<std::vector<uint8_t>, float>> candidates;
    candidates.reserve(final_enum.size() + prune_harvest.size());
    for (size_t i = 0; i < final_enum.size(); ++i) {
      if (i == best_row) continue;
      candidates.emplace_back(
          std::vector<uint8_t>(final_enum.assignment(i),
                               final_enum.assignment(i) + num_ops),
          final_costs[i]);
    }
    for (auto& harvested : prune_harvest) {
      candidates.push_back(std::move(harvested));
    }
    std::sort(candidates.begin(), candidates.end(),
              [](const auto& a, const auto& b) {
                if (a.second != b.second) return a.second < b.second;
                return a.first < b.first;
              });
    for (auto& candidate : candidates) {
      if (result.runner_ups.size() >= options_.top_k_runners) break;
      if (candidate.first == winner) continue;
      if (!result.runner_ups.empty() &&
          result.runner_ups.back().first == candidate.first) {
        continue;
      }
      result.runner_ups.push_back(std::move(candidate));
    }
  }
  if (timed) {
    predict_span.SetArgA("rows", static_cast<int64_t>(final_enum.size()));
    if (prof != nullptr) prof->phase.predict_us += phase_clock.ElapsedMicros();
  }
  predict_span.End();
  if (timed) phase_clock.Restart();
  SpanScope unvectorize_span(tracer, trace, parent, "unvectorize");
  result.plan = Unvectorize(*ctx_, final_enum, best_row);
  if (timed && prof != nullptr) {
    prof->phase.unvectorize_us += phase_clock.ElapsedMicros();
  }
  unvectorize_span.End();
  result.predicted_runtime_s = best_cost;
  result.best_row = best_row;
  result.stats.final_vectors = final_enum.size();
  result.stats.oracle_rows = oracle_->rows_estimated() - oracle_rows_before;
  result.stats.oracle_batches = oracle_->batches() - oracle_batches_before;
  result.final_enumeration = std::move(final_enum);
  return result;
}

}  // namespace robopt
