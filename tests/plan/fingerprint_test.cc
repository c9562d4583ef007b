#include "plan/fingerprint.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <iterator>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "workload/generators.h"
#include "workloads/synthetic.h"

namespace robopt {
namespace {

LogicalOperator Source(double cardinality) {
  LogicalOperator op;
  op.kind = LogicalOpKind::kCollectionSource;
  op.name = "source";
  op.source_cardinality = cardinality;
  return op;
}

LogicalOperator Op(LogicalOpKind kind, double selectivity = 1.0) {
  LogicalOperator op;
  op.kind = kind;
  op.selectivity = selectivity;
  return op;
}

/// The reference shape: two sources joined, then filtered into a sink.
LogicalPlan JoinPlan(bool swap_insertion_order, bool swap_join_sides = false) {
  LogicalPlan plan;
  OperatorId left, right, join, filter, sink;
  if (!swap_insertion_order) {
    left = plan.Add(Source(1e6));
    right = plan.Add(Source(1e3));
    join = plan.Add(Op(LogicalOpKind::kJoin, 0.01));
    filter = plan.Add(Op(LogicalOpKind::kFilter, 0.5));
    sink = plan.Add(Op(LogicalOpKind::kCollectionSink));
  } else {
    // Same graph, operators added back to front.
    sink = plan.Add(Op(LogicalOpKind::kCollectionSink));
    filter = plan.Add(Op(LogicalOpKind::kFilter, 0.5));
    join = plan.Add(Op(LogicalOpKind::kJoin, 0.01));
    right = plan.Add(Source(1e3));
    left = plan.Add(Source(1e6));
  }
  if (swap_join_sides) {
    plan.Connect(right, join);
    plan.Connect(left, join);
  } else {
    plan.Connect(left, join);
    plan.Connect(right, join);
  }
  plan.Connect(join, filter);
  plan.Connect(filter, sink);
  return plan;
}

/// The golden plan set: the Table II pool (loops, broadcast edges, kernel
/// strings), a Fig. 9 pipeline and join tree, and the JoinPlan variants the
/// tests below compare, including the +/-0 selectivity pair.
std::vector<std::pair<std::string, LogicalPlan>> GoldenPlans() {
  std::vector<std::pair<std::string, LogicalPlan>> plans;
  std::vector<LogicalPlan> pool = MakePaperPlanPool(2.0);
  for (size_t i = 0; i < pool.size(); ++i) {
    plans.emplace_back("paper" + std::to_string(i), std::move(pool[i]));
  }
  plans.emplace_back("pipeline80", MakeSyntheticPipeline(80, 1e7, 3));
  plans.emplace_back("jointree8", MakeSyntheticJoinTree(8, 1e7, 3));
  plans.emplace_back("join", JoinPlan(false));
  plans.emplace_back("join_reversed", JoinPlan(true));
  plans.emplace_back("join_swapped_sides", JoinPlan(false, true));
  LogicalPlan selectivity = JoinPlan(false);
  selectivity.mutable_op(3).selectivity = 0.25;
  plans.emplace_back("join_selectivity", std::move(selectivity));
  LogicalPlan udf = JoinPlan(false);
  udf.mutable_op(3).udf = UdfComplexity::kQuadratic;
  plans.emplace_back("join_udf", std::move(udf));
  LogicalPlan kernel = JoinPlan(false);
  kernel.mutable_op(3).kernel = "custom_filter";
  plans.emplace_back("join_kernel", std::move(kernel));
  LogicalPlan cardinality = JoinPlan(false);
  cardinality.mutable_op(0).source_cardinality = 2e6;
  plans.emplace_back("join_cardinality", std::move(cardinality));
  LogicalPlan pos = JoinPlan(false);
  pos.mutable_op(3).selectivity = 0.0;
  plans.emplace_back("join_pos_zero", std::move(pos));
  LogicalPlan neg = JoinPlan(false);
  neg.mutable_op(3).selectivity = -0.0;
  plans.emplace_back("join_neg_zero", std::move(neg));
  return plans;
}

TEST(PlanFingerprintTest, GoldenValuesAreBitStable) {
  // RBTRACE v1 traces store fingerprints, so their bits are a file format:
  // any change here must come with a trace-format version bump.
  struct Golden {
    const char* name;
    uint64_t lo;
    uint64_t hi;
  };
  const Golden kGolden[] = {
      {"paper0", 0xd40c41880e481e1fULL, 0x4dfdc9b2d401cacbULL},
      {"paper1", 0x64990dfd6fd872dbULL, 0xb9b77ace0091d131ULL},
      {"paper2", 0xc79181ace5dbfe05ULL, 0xe1335718a03d1cf4ULL},
      {"paper3", 0x14e6abb59a5c5257ULL, 0x136da7b489e6c40eULL},
      {"paper4", 0xc8f105fae69a2f96ULL, 0x1b2d33f65154680bULL},
      {"paper5", 0x7a6de8db677f8e15ULL, 0x9c163cb0401081c2ULL},
      {"paper6", 0x9b61ec72c6581540ULL, 0x5935adc550155b48ULL},
      {"paper7", 0x0fa2d2c23d6b7951ULL, 0xc2b92848e0370066ULL},
      {"paper8", 0x2ae07768662c9507ULL, 0xb55a8a83225df7b8ULL},
      {"paper9", 0xb8fad9d9374c06f3ULL, 0x3e9668fc6f974356ULL},
      {"pipeline80", 0x369cf4916c724cecULL, 0xd2c89d941daff0b1ULL},
      {"jointree8", 0xb281baf7eb851259ULL, 0x895c9611b211d5a2ULL},
      {"join", 0xefc96db3ce882b17ULL, 0xd32f42297ae3193fULL},
      {"join_reversed", 0xefc96db3ce882b17ULL, 0xd32f42297ae3193fULL},
      {"join_swapped_sides", 0x1c138fed249df03eULL, 0x6696c9a736fe4653ULL},
      {"join_selectivity", 0x33a6326b42b26734ULL, 0xfe711d997a211c07ULL},
      {"join_udf", 0x8e23f7e009ca3250ULL, 0x1230443a83d81567ULL},
      {"join_kernel", 0x5dc61b9e833fbee3ULL, 0x38a1d4e13c7722fdULL},
      {"join_cardinality", 0x39db35fc2d3ff944ULL, 0xb618cae6919d0561ULL},
      {"join_pos_zero", 0xd78625444e7e53a2ULL, 0x49c24c2b606cfebcULL},
      {"join_neg_zero", 0xd78625444e7e53a2ULL, 0x49c24c2b606cfebcULL},
  };
  const auto plans = GoldenPlans();
  ASSERT_EQ(plans.size(), std::size(kGolden));
  for (size_t i = 0; i < plans.size(); ++i) {
    SCOPED_TRACE(plans[i].first);
    ASSERT_EQ(plans[i].first, kGolden[i].name);
    const PlanFingerprint fp = FingerprintPlan(plans[i].second);
    EXPECT_EQ(fp.lo, kGolden[i].lo);
    EXPECT_EQ(fp.hi, kGolden[i].hi);
  }

  Cardinalities a;
  a.input = {10.0, 20.0, 0.0};
  a.output = {5.0, 2.0, 1e9};
  Cardinalities b;
  b.input = {-0.0};
  EXPECT_EQ(FingerprintCards(a), 0xc1c7c2c3541fc13dULL);
  EXPECT_EQ(FingerprintCards(b), 0xf591f0c50abbababULL);
}

TEST(PlanFingerprintTest, ConcurrentCallsAgree) {
  // Serving threads fingerprint shared plans at once (run under TSan).
  const std::vector<LogicalPlan> pool = MakePaperPlanPool(2.0);
  std::vector<PlanFingerprint> serial;
  std::vector<CanonicalOrder> serial_orders(pool.size());
  for (size_t i = 0; i < pool.size(); ++i) {
    serial.push_back(FingerprintPlan(pool[i], &serial_orders[i]));
  }
  constexpr int kThreads = 4;
  std::atomic<int> wrong{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < 20; ++round) {
        for (size_t k = 0; k < pool.size(); ++k) {
          const size_t i = (k + t) % pool.size();
          CanonicalOrder order;
          if (FingerprintPlan(pool[i], &order) != serial[i] ||
              order.hashes != serial_orders[i].hashes ||
              order.ids != serial_orders[i].ids) {
            wrong.fetch_add(1);
          }
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(wrong.load(), 0);
}

TEST(PlanFingerprintTest, DeterministicAcrossCalls) {
  const LogicalPlan plan = JoinPlan(false);
  const PlanFingerprint a = FingerprintPlan(plan);
  const PlanFingerprint b = FingerprintPlan(plan);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, PlanFingerprint{});  // Not the zero value.
}

TEST(PlanFingerprintTest, InsertionOrderDoesNotMatter) {
  // The same dataflow graph built in two different Add() orders must
  // fingerprint identically — that is the cache key's whole contract.
  EXPECT_EQ(FingerprintPlan(JoinPlan(false)), FingerprintPlan(JoinPlan(true)));
}

/// Each operator's node hash, indexed by id, read back from the canonical
/// order.
std::vector<uint64_t> HashesById(const CanonicalOrder& canonical) {
  std::vector<uint64_t> by_id(canonical.ids.size());
  for (size_t i = 0; i < canonical.ids.size(); ++i) {
    by_id[canonical.ids[i]] = canonical.hashes[i];
  }
  return by_id;
}

TEST(PlanFingerprintTest, NodeHashesGiveCanonicalCorrespondence) {
  // The fingerprint is insertion-order independent, but operator ids are
  // not: the same operator gets a different id in each build. The per-node
  // hashes are the canonical correspondence between the two id spaces —
  // anything cached per operator under the fingerprint must transfer
  // through them, never by raw id (the serving plan cache relies on this).
  LogicalPlan a = JoinPlan(false);  // ids: left 0, right 1, join 2, ...
  LogicalPlan b = JoinPlan(true);   // ids: sink 0, filter 1, join 2, ...
  CanonicalOrder ca, cb;
  EXPECT_EQ(FingerprintPlan(a, &ca), FingerprintPlan(b, &cb));
  ASSERT_EQ(ca.hashes.size(), 5u);
  ASSERT_EQ(cb.hashes.size(), 5u);
  ASSERT_EQ(ca.ids.size(), 5u);
  ASSERT_EQ(cb.ids.size(), 5u);

  // The hash multisets are equal (the canonical hash sequences are sorted)
  // even though the id-indexed sequences are permuted relative to each
  // other.
  EXPECT_TRUE(std::is_sorted(ca.hashes.begin(), ca.hashes.end()));
  EXPECT_EQ(ca.hashes, cb.hashes);
  const std::vector<uint64_t> ha = HashesById(ca);
  const std::vector<uint64_t> hb = HashesById(cb);
  EXPECT_NE(ha, hb);

  // Each operator keeps its hash across builds; b's ids run back to front.
  EXPECT_EQ(ha[0], hb[4]);  // source 1e6
  EXPECT_EQ(ha[1], hb[3]);  // source 1e3
  EXPECT_EQ(ha[2], hb[2]);  // join
  EXPECT_EQ(ha[3], hb[1]);  // filter
  EXPECT_EQ(ha[4], hb[0]);  // sink

  // The canonical-order overload computes the same fingerprint as the plain
  // one.
  EXPECT_EQ(FingerprintPlan(a, &ca), FingerprintPlan(a));
}

TEST(PlanFingerprintTest, NamesDoNotMatter) {
  LogicalPlan a = JoinPlan(false);
  LogicalPlan b = JoinPlan(false);
  b.mutable_op(0).name = "renamed";
  EXPECT_EQ(FingerprintPlan(a), FingerprintPlan(b));
}

TEST(PlanFingerprintTest, JoinSidesArePositional) {
  // Build vs probe side is semantic: swapping the join inputs is a
  // different plan even though the operator multiset is unchanged.
  EXPECT_NE(FingerprintPlan(JoinPlan(false, false)),
            FingerprintPlan(JoinPlan(false, true)));
}

TEST(PlanFingerprintTest, LocalFieldsMatter) {
  const PlanFingerprint base = FingerprintPlan(JoinPlan(false));

  LogicalPlan selectivity = JoinPlan(false);
  selectivity.mutable_op(3).selectivity = 0.25;
  EXPECT_NE(FingerprintPlan(selectivity), base);

  LogicalPlan udf = JoinPlan(false);
  udf.mutable_op(3).udf = UdfComplexity::kQuadratic;
  EXPECT_NE(FingerprintPlan(udf), base);

  LogicalPlan kernel = JoinPlan(false);
  kernel.mutable_op(3).kernel = "custom_filter";
  EXPECT_NE(FingerprintPlan(kernel), base);

  LogicalPlan cardinality = JoinPlan(false);
  cardinality.mutable_op(0).source_cardinality = 2e6;
  EXPECT_NE(FingerprintPlan(cardinality), base);
}

TEST(PlanFingerprintTest, SignedZeroSelectivityIsCanonical) {
  LogicalPlan pos = JoinPlan(false);
  LogicalPlan neg = JoinPlan(false);
  pos.mutable_op(3).selectivity = 0.0;
  neg.mutable_op(3).selectivity = -0.0;
  EXPECT_EQ(FingerprintPlan(pos), FingerprintPlan(neg));
}

TEST(PlanFingerprintTest, StructureMatters) {
  // source -> a -> b -> sink  vs  source -> b -> a -> sink: same operator
  // multiset, different wiring.
  LogicalPlan ab;
  {
    const OperatorId src = ab.Add(Source(1e5));
    const OperatorId a = ab.Add(Op(LogicalOpKind::kFilter, 0.5));
    const OperatorId b = ab.Add(Op(LogicalOpKind::kMap));
    const OperatorId sink = ab.Add(Op(LogicalOpKind::kCollectionSink));
    ab.Connect(src, a);
    ab.Connect(a, b);
    ab.Connect(b, sink);
  }
  LogicalPlan ba;
  {
    const OperatorId src = ba.Add(Source(1e5));
    const OperatorId a = ba.Add(Op(LogicalOpKind::kFilter, 0.5));
    const OperatorId b = ba.Add(Op(LogicalOpKind::kMap));
    const OperatorId sink = ba.Add(Op(LogicalOpKind::kCollectionSink));
    ba.Connect(src, b);
    ba.Connect(b, a);
    ba.Connect(a, sink);
  }
  EXPECT_NE(FingerprintPlan(ab), FingerprintPlan(ba));
}

TEST(PlanFingerprintTest, BroadcastEdgesAreDistinctFromDataEdges) {
  LogicalPlan data;
  {
    const OperatorId src = data.Add(Source(1e5));
    const OperatorId side = data.Add(Source(100));
    const OperatorId join = data.Add(Op(LogicalOpKind::kJoin, 0.1));
    const OperatorId sink = data.Add(Op(LogicalOpKind::kCollectionSink));
    data.Connect(src, join);
    data.Connect(side, join);
    data.Connect(join, sink);
  }
  LogicalPlan broadcast;
  {
    const OperatorId src = broadcast.Add(Source(1e5));
    const OperatorId side = broadcast.Add(Source(100));
    const OperatorId map = broadcast.Add(Op(LogicalOpKind::kJoin, 0.1));
    const OperatorId sink = broadcast.Add(Op(LogicalOpKind::kCollectionSink));
    broadcast.Connect(src, map);
    broadcast.ConnectBroadcast(side, map);
    broadcast.Connect(map, sink);
  }
  EXPECT_NE(FingerprintPlan(data), FingerprintPlan(broadcast));
}

TEST(PlanFingerprintTest, ToStringIs32HexDigits) {
  const PlanFingerprint fp = FingerprintPlan(JoinPlan(false));
  const std::string hex = fp.ToString();
  ASSERT_EQ(hex.size(), 32u);
  for (const char c : hex) {
    EXPECT_TRUE((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')) << c;
  }
  EXPECT_NE(hex, PlanFingerprint{}.ToString());
}

TEST(PlanFingerprintTest, CardsHashIsOrderAndValueSensitive) {
  Cardinalities a;
  a.input = {10.0, 20.0};
  a.output = {5.0, 2.0};
  Cardinalities b = a;
  EXPECT_EQ(FingerprintCards(a), FingerprintCards(b));
  b.output = {2.0, 5.0};
  EXPECT_NE(FingerprintCards(a), FingerprintCards(b));
  Cardinalities zero;
  zero.input = {0.0};
  Cardinalities negzero;
  negzero.input = {-0.0};
  EXPECT_EQ(FingerprintCards(zero), FingerprintCards(negzero));
}

}  // namespace
}  // namespace robopt
