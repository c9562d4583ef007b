#include "plan/logical_plan.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

namespace robopt {
namespace {

/// Builds the Fig. 3(a) running example: customers x transactions join.
LogicalPlan RunningExample() {
  LogicalPlan plan;
  LogicalOperator src1;
  src1.kind = LogicalOpKind::kTextFileSource;
  src1.name = "Transactions";
  src1.source_cardinality = 40e6;
  const OperatorId o1 = plan.Add(std::move(src1));
  const OperatorId o2 =
      plan.Add(LogicalOpKind::kFilter, "month", UdfComplexity::kLinear, 0.1);
  plan.Connect(o1, o2);
  LogicalOperator src2;
  src2.kind = LogicalOpKind::kTextFileSource;
  src2.name = "Customers";
  src2.source_cardinality = 2e6;
  const OperatorId o3 = plan.Add(std::move(src2));
  const OperatorId o4 =
      plan.Add(LogicalOpKind::kFilter, "country", UdfComplexity::kLinear, 0.1);
  plan.Connect(o3, o4);
  const OperatorId o5 = plan.Add(LogicalOpKind::kMap, "project");
  plan.Connect(o4, o5);
  const OperatorId o6 = plan.Add(LogicalOpKind::kJoin, "customer_id",
                                 UdfComplexity::kLinear, 0.5);
  plan.Connect(o2, o6);
  plan.Connect(o5, o6);
  const OperatorId o7 = plan.Add(LogicalOpKind::kReduceBy, "sum_count",
                                 UdfComplexity::kLinear, 0.01);
  plan.Connect(o6, o7);
  const OperatorId o8 = plan.Add(LogicalOpKind::kMap, "label");
  plan.Connect(o7, o8);
  const OperatorId o9 = plan.Add(LogicalOpKind::kCollectionSink, "sink");
  plan.Connect(o8, o9);
  return plan;
}

TEST(LogicalPlanTest, AddAssignsSequentialIds) {
  LogicalPlan plan;
  EXPECT_EQ(plan.Add(LogicalOpKind::kMap, "a"), 0);
  EXPECT_EQ(plan.Add(LogicalOpKind::kMap, "b"), 1);
  EXPECT_EQ(plan.num_operators(), 2);
}

TEST(LogicalPlanTest, ConnectTracksBothDirections) {
  LogicalPlan plan = RunningExample();
  EXPECT_EQ(plan.children(0).size(), 1u);
  EXPECT_EQ(plan.children(0)[0], 1);
  EXPECT_EQ(plan.parents(5).size(), 2u);  // Join has two inputs.
}

TEST(LogicalPlanTest, RunningExampleValidates) {
  EXPECT_TRUE(RunningExample().Validate().ok());
}

TEST(LogicalPlanTest, SourcesAndSinks) {
  LogicalPlan plan = RunningExample();
  const auto sources = plan.SourceIds();
  const auto sinks = plan.SinkIds();
  ASSERT_EQ(sources.size(), 2u);
  EXPECT_EQ(sources[0], 0);
  EXPECT_EQ(sources[1], 2);
  ASSERT_EQ(sinks.size(), 1u);
  EXPECT_EQ(sinks[0], 8);
}

TEST(LogicalPlanTest, TopologicalOrderRespectsEdges) {
  LogicalPlan plan = RunningExample();
  const auto order = plan.TopologicalOrder();
  ASSERT_EQ(order.size(), 9u);
  std::vector<int> position(9);
  for (size_t i = 0; i < order.size(); ++i) position[order[i]] = i;
  for (const LogicalOperator& op : plan.operators()) {
    for (OperatorId child : plan.children(op.id)) {
      EXPECT_LT(position[op.id], position[child]);
    }
  }
}

TEST(LogicalPlanTest, ValidateRejectsEmptyPlan) {
  LogicalPlan plan;
  EXPECT_FALSE(plan.Validate().ok());
}

TEST(LogicalPlanTest, ValidateRejectsSourceWithoutCardinality) {
  LogicalPlan plan;
  plan.Add(LogicalOpKind::kTextFileSource, "src");
  EXPECT_FALSE(plan.Validate().ok());
}

TEST(LogicalPlanTest, ValidateRejectsDisconnectedUnary) {
  LogicalPlan plan;
  plan.Add(LogicalOpKind::kMap, "floating");
  EXPECT_FALSE(plan.Validate().ok());
}

TEST(LogicalPlanTest, ValidateRejectsJoinWithOneInput) {
  LogicalPlan plan;
  LogicalOperator src;
  src.kind = LogicalOpKind::kTextFileSource;
  src.source_cardinality = 10;
  const OperatorId s = plan.Add(std::move(src));
  const OperatorId j = plan.Add(LogicalOpKind::kJoin, "join");
  plan.Connect(s, j);
  EXPECT_FALSE(plan.Validate().ok());
}

TEST(LogicalPlanTest, ValidateRejectsUnpairedLoopEnd) {
  LogicalPlan plan;
  LogicalOperator src;
  src.kind = LogicalOpKind::kCollectionSource;
  src.source_cardinality = 10;
  const OperatorId s = plan.Add(std::move(src));
  LogicalOperator end;
  end.kind = LogicalOpKind::kLoopEnd;
  const OperatorId e = plan.Add(std::move(end));
  plan.Connect(s, e);
  EXPECT_FALSE(plan.Validate().ok());
}

TEST(LogicalPlanTest, ValidateRejectsLoopBeginWithoutIterations) {
  LogicalPlan plan;
  LogicalOperator src;
  src.kind = LogicalOpKind::kCollectionSource;
  src.source_cardinality = 10;
  const OperatorId s = plan.Add(std::move(src));
  LogicalOperator begin;
  begin.kind = LogicalOpKind::kLoopBegin;
  const OperatorId b = plan.Add(std::move(begin));
  plan.Connect(s, b);
  LogicalOperator end;
  end.kind = LogicalOpKind::kLoopEnd;
  end.loop_begin = b;
  const OperatorId e = plan.Add(std::move(end));
  plan.Connect(b, e);
  EXPECT_FALSE(plan.Validate().ok());
}

LogicalPlan LoopPlan(int iterations) {
  LogicalPlan plan;
  LogicalOperator data;
  data.kind = LogicalOpKind::kTextFileSource;
  data.source_cardinality = 1000;
  const OperatorId src = plan.Add(std::move(data));
  LogicalOperator init;
  init.kind = LogicalOpKind::kCollectionSource;
  init.source_cardinality = 3;
  const OperatorId i = plan.Add(std::move(init));
  LogicalOperator begin;
  begin.kind = LogicalOpKind::kLoopBegin;
  begin.loop_iterations = iterations;
  const OperatorId b = plan.Add(std::move(begin));
  plan.Connect(i, b);
  const OperatorId bcast = plan.Add(LogicalOpKind::kBroadcast, "state");
  plan.Connect(b, bcast);
  const OperatorId map = plan.Add(LogicalOpKind::kMap, "body");
  plan.Connect(src, map);
  plan.ConnectBroadcast(bcast, map);
  const OperatorId agg =
      plan.Add(LogicalOpKind::kReduceBy, "update", UdfComplexity::kLinear,
               0.01);
  plan.Connect(map, agg);
  LogicalOperator end;
  end.kind = LogicalOpKind::kLoopEnd;
  end.loop_begin = b;
  const OperatorId e = plan.Add(std::move(end));
  plan.Connect(agg, e);
  const OperatorId sink = plan.Add(LogicalOpKind::kCollectionSink, "sink");
  plan.Connect(e, sink);
  return plan;
}

TEST(LogicalPlanTest, LoopMembershipViaBroadcastEdges) {
  LogicalPlan plan = LoopPlan(10);
  ASSERT_TRUE(plan.Validate().ok());
  EXPECT_FALSE(plan.InLoop(0));  // Data source.
  EXPECT_FALSE(plan.InLoop(1));  // Init source.
  EXPECT_TRUE(plan.InLoop(2));   // LoopBegin.
  EXPECT_TRUE(plan.InLoop(3));   // Broadcast.
  EXPECT_TRUE(plan.InLoop(4));   // Body map (reached via side edge).
  EXPECT_TRUE(plan.InLoop(5));   // ReduceBy.
  EXPECT_TRUE(plan.InLoop(6));   // LoopEnd.
  EXPECT_FALSE(plan.InLoop(7));  // Sink.
}

TEST(LogicalPlanTest, LoopIterationsMultiplier) {
  LogicalPlan plan = LoopPlan(25);
  EXPECT_EQ(plan.LoopIterations(4), 25);
  EXPECT_EQ(plan.LoopIterations(0), 1);
}

TEST(LogicalPlanTest, ConcurrentConstQueriesAgreeOnLoopMembership) {
  // Serving threads optimize one shared plan at once: the first const
  // queries race to fill the lazy loop cache (run under TSan).
  const LogicalPlan plan = LoopPlan(25);
  constexpr int kThreads = 4;
  std::atomic<int> wrong{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      const std::vector<Topology> topologies = plan.OperatorTopologies();
      if (topologies[4] != Topology::kLoop || plan.LoopIterations(4) != 25 ||
          plan.InLoop(0)) {
        wrong.fetch_add(1);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(wrong.load(), 0);
  // A copy carries the filled cache, and a copy of an unfilled plan fills
  // its own.
  const LogicalPlan filled_copy = plan;
  EXPECT_EQ(filled_copy.LoopIterations(4), 25);
  const LogicalPlan fresh_copy = LoopPlan(7);
  const LogicalPlan second = fresh_copy;
  EXPECT_EQ(second.LoopIterations(4), 7);
  EXPECT_EQ(fresh_copy.LoopIterations(4), 7);
}

TEST(LogicalPlanTest, LoopBodyContainsExactlyBodyOps) {
  LogicalPlan plan = LoopPlan(10);
  const auto body = plan.LoopBody(2);
  EXPECT_EQ(body.size(), 5u);  // begin, broadcast, map, reduce, end.
  for (OperatorId id : body) {
    EXPECT_TRUE(plan.InLoop(id));
  }
}

TEST(LogicalPlanTest, AllParentsIncludesSideEdges) {
  LogicalPlan plan = LoopPlan(10);
  EXPECT_EQ(plan.parents(4).size(), 1u);      // Data edge only.
  EXPECT_EQ(plan.AllParents(4).size(), 2u);   // + broadcast edge.
  EXPECT_EQ(plan.side_parents(4).size(), 1u);
}

TEST(LogicalPlanTest, DebugStringMentionsOperators) {
  LogicalPlan plan = RunningExample();
  const std::string dump = plan.DebugString();
  EXPECT_NE(dump.find("Join"), std::string::npos);
  EXPECT_NE(dump.find("o0"), std::string::npos);
}

}  // namespace
}  // namespace robopt
