#include "tdgen/tdgen.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.h"
#include "common/rng.h"
#include "core/cost_oracle.h"
#include "core/priority_enumeration.h"
#include "obs/trace.h"
#include "tdgen/interpolation.h"
#include "workloads/synthetic.h"

namespace robopt {

Tdgen::Tdgen(const PlatformRegistry* registry, const FeatureSchema* schema,
             const Executor* executor, TdgenOptions options)
    : registry_(registry),
      schema_(schema),
      executor_(executor),
      options_(std::move(options)) {}

StatusOr<MlDataset> Tdgen::Generate(TdgenReport* report) {
  constexpr double kBaseCardinality = 1e6;
  Tracer* const tracer =
      ROBOPT_OBS_ON(options_.obs) ? options_.obs.tracer : nullptr;
  uint64_t trace_id = options_.obs.trace_id;
  if (tracer != nullptr && trace_id == 0) trace_id = tracer->NewTrace();
  SpanScope span(tracer, trace_id, options_.obs.parent_span, "tdgen_generate");
  MlDataset data(schema_->width());
  TdgenReport local_report;
  Rng rng(options_.seed);
  ZeroCostOracle no_cost;

  const bool has_relational =
      !registry_->AlternativesFor(LogicalOpKind::kTableSource).empty();

  // Mode (i): derive shapes and maximum size from the user's workload.
  if (!options_.workload.empty()) {
    bool any_loop = false;
    bool any_juncture = false;
    int max_ops = 5;
    for (const LogicalPlan* query : options_.workload) {
      const TopologyCounts counts = query->CountTopologies();
      any_loop |= counts.loop > 0;
      any_juncture |= counts.juncture > 0;
      max_ops = std::max(max_ops, query->num_operators());
    }
    options_.shapes = {"pipeline"};
    if (any_juncture) options_.shapes.push_back("juncture");
    if (any_loop) options_.shapes.push_back("loop");
    options_.max_operators = max_ops;
  }

  for (const std::string& shape : options_.shapes) {
    for (int p = 0; p < options_.plans_per_shape; ++p) {
      const uint64_t plan_seed = rng.Next();
      const int num_ops =
          static_cast<int>(rng.NextInt(5, options_.max_operators));
      // A share of the plans reads from relational tables when a DBMS
      // platform is registered, so the model sees Export conversions.
      const bool table_source = has_relational && rng.NextBernoulli(0.35);
      LogicalPlan plan;
      if (shape == "pipeline") {
        plan = MakeSyntheticPipeline(std::max(3, num_ops), kBaseCardinality,
                                     plan_seed, table_source);
      } else if (shape == "juncture") {
        const int joins = std::clamp((num_ops - 3) / 3, 1, 6);
        plan = MakeSyntheticJoinTree(joins, kBaseCardinality, plan_seed,
                                     table_source);
      } else if (shape == "loop") {
        // Vary the iteration count so the model sees short and long loops
        // (the evaluation sweeps iterations; Fig. 12).
        const int iters = std::max(
            1, static_cast<int>(options_.loop_iterations *
                                std::pow(4.0, rng.NextUniform(-1.5, 1.5))));
        plan = MakeSyntheticLoopPlan(std::max(9, num_ops), kBaseCardinality,
                                     iters, plan_seed);
      } else {
        return Status::InvalidArgument("unknown TDGEN shape: " + shape);
      }
      ++local_report.logical_plans;

      // Remember the base source cardinalities so configuration profiles
      // can rescale them.
      std::vector<std::pair<OperatorId, double>> base_cards;
      for (const LogicalOperator& op : plan.operators()) {
        if (IsSource(op.kind)) {
          base_cards.emplace_back(op.id, op.source_cardinality);
        }
      }

      // Job generation: enumerate candidate plan structures with the
      // beta-switch pruning (Section VI-A).
      auto base_ctx =
          EnumerationContext::Make(&plan, registry_, schema_, nullptr);
      if (!base_ctx.ok()) return base_ctx.status();
      EnumeratorOptions enum_options;
      enum_options.prune = PruneMode::kSwitchCap;
      enum_options.beta = options_.beta;
      enum_options.max_rows_per_enumeration =
          options_.max_structures_per_plan * 4;
      PriorityEnumerator enumerator(&base_ctx.value(), &no_cost, enum_options);
      auto run = enumerator.Run();
      if (!run.ok()) return run.status();
      const PlanVectorEnumeration& final_enum = run->final_enumeration;

      std::vector<std::vector<uint8_t>> structures;
      const size_t keep =
          std::min(final_enum.size(), options_.max_structures_per_plan);
      const double stride = final_enum.size() / static_cast<double>(keep);
      for (size_t i = 0; i < keep; ++i) {
        const uint8_t* assignment =
            final_enum.assignment(static_cast<size_t>(i * stride));
        structures.emplace_back(assignment,
                                assignment + final_enum.num_ops());
      }
      local_report.structures += structures.size();

      // Log generation: instantiate each structure with the cardinality
      // profiles; execute the J_r subset, impute the rest (Section VI-B).
      for (const std::vector<uint8_t>& assignment : structures) {
        struct ProfilePoint {
          double card = 0.0;
          std::vector<float> features;
          double label = -1.0;  // <0 = pending imputation.
        };
        std::vector<ProfilePoint> points;
        std::vector<double> exec_x;
        std::vector<double> exec_y;
        double first_failing_card = std::numeric_limits<double>::infinity();

        for (size_t ci = 0; ci < options_.cardinality_grid.size(); ++ci) {
          const double card = options_.cardinality_grid[ci];
          const double factor = card / kBaseCardinality;
          for (const auto& [op_id, base] : base_cards) {
            plan.mutable_op(op_id).source_cardinality =
                std::max(1.0, base * factor);
          }
          auto ctx =
              EnumerationContext::Make(&plan, registry_, schema_, nullptr);
          if (!ctx.ok()) return ctx.status();

          ProfilePoint point;
          point.card = card;
          point.features = EncodeAssignment(ctx.value(), assignment.data());
          ++local_report.jobs_total;

          const bool execute =
              std::find(options_.executed_points.begin(),
                        options_.executed_points.end(),
                        static_cast<int>(ci)) != options_.executed_points.end();
          if (execute) {
            const ExecutionPlan exec_plan =
                AssignmentToPlan(ctx.value(), assignment.data());
            const CostBreakdown cost =
                executor_->Simulate(exec_plan, ctx->cards);
            ++local_report.jobs_executed;
            if (cost.oom || !std::isfinite(cost.total_s)) {
              ++local_report.jobs_failed;
              point.label = options_.failure_penalty_s;
              first_failing_card = std::min(first_failing_card, card);
            } else {
              point.label = cost.total_s;
              // Interpolation nodes live in log-log space: cardinalities
              // span many decades and runtimes are near power laws there,
              // which keeps the degree-5 pieces well conditioned (the paper
              // does not specify the space; linear space oscillates).
              exec_x.push_back(std::log10(card));
              exec_y.push_back(std::log1p(cost.total_s));
            }
          }
          points.push_back(std::move(point));
        }

        // Impute pending labels. Monotone failure assumption: anything at
        // or beyond the smallest failing cardinality also fails.
        for (ProfilePoint& point : points) {
          if (point.label >= 0.0) continue;
          ++local_report.jobs_imputed;
          if (point.card >= first_failing_card || exec_x.empty()) {
            point.label = options_.failure_penalty_s;
            continue;
          }
          const PiecewisePolynomial poly = PiecewisePolynomial::Fit(
              exec_x, exec_y, options_.interpolation_degree);
          point.label =
              std::max(std::expm1(poly.Eval(std::log10(point.card))), 1e-4);
        }
        for (const ProfilePoint& point : points) {
          data.Add(point.features, static_cast<float>(point.label));
        }
      }

      // Restore the base cardinalities (the plan is about to go away, but
      // keep the invariant for clarity).
      for (const auto& [op_id, base] : base_cards) {
        plan.mutable_op(op_id).source_cardinality = base;
      }
    }
  }

  if (report != nullptr) *report = local_report;
  span.SetArgA("rows", static_cast<int64_t>(data.size()));
  span.SetArgB("jobs_executed",
               static_cast<int64_t>(local_report.jobs_executed));
  return data;
}

StatusOr<std::unique_ptr<RandomForest>> TrainRuntimeModel(
    const PlatformRegistry* registry, const FeatureSchema* schema,
    const Executor* executor, TdgenOptions options,
    RegressionMetrics* holdout, TdgenReport* report) {
  // Generation and fit share one trace.
  if (ROBOPT_OBS_ON(options.obs) && options.obs.tracer != nullptr &&
      options.obs.trace_id == 0) {
    options.obs.trace_id = options.obs.tracer->NewTrace();
  }
  Tdgen tdgen(registry, schema, executor, options);
  auto data = tdgen.Generate(report);
  if (!data.ok()) return data.status();

  MlDataset train(schema->width());
  MlDataset test(schema->width());
  data->Split(0.9, options.seed ^ 0xabcdefULL, &train, &test);

  RandomForest::Params params;
  params.seed = options.seed;
  params.num_trees = 80;
  // Regression forests do better with ~d/3 features per split than sqrt(d):
  // only a handful of the plan-vector cells matter for any one plan shape.
  params.tree.max_features = static_cast<int>(schema->width() / 3);
  params.obs = options.obs;
  auto forest = std::make_unique<RandomForest>(params);
  ROBOPT_RETURN_IF_ERROR(forest->Train(train));
  if (holdout != nullptr) *holdout = Evaluate(*forest, test);
  return forest;
}

}  // namespace robopt
