// Property test: the one-pass FingerprintPlan against the two-pass
// implementation it replaced (kept below verbatim as the reference), on
// seeded random DAGs.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <deque>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "plan/fingerprint.h"

namespace robopt {
namespace {

// ---- Reference: the two-pass fingerprint and the service's Canonicalize.

uint64_t RefSplitMix(uint64_t z) {
  z += 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

uint64_t RefMix(uint64_t h, uint64_t v) {
  return RefSplitMix(h ^ RefSplitMix(v));
}

uint64_t RefDoubleBits(double d) {
  if (d == 0.0) d = 0.0;
  uint64_t bits;
  std::memcpy(&bits, &d, sizeof(bits));
  return bits;
}

uint64_t RefStringHash(const std::string& s) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : s) {
    h ^= static_cast<uint8_t>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

uint64_t RefLocalHash(const LogicalOperator& op) {
  uint64_t h = RefSplitMix(0x524f424f50545631ULL);
  h = RefMix(h, static_cast<uint64_t>(op.kind));
  h = RefMix(h, static_cast<uint64_t>(op.udf));
  h = RefMix(h, RefDoubleBits(op.selectivity));
  h = RefMix(h, RefDoubleBits(op.source_cardinality));
  h = RefMix(h, RefDoubleBits(op.tuple_bytes));
  h = RefMix(h, RefDoubleBits(op.param));
  h = RefMix(h, RefStringHash(op.kernel));
  h = RefMix(h,
             static_cast<uint64_t>(static_cast<int64_t>(op.loop_iterations)));
  return h;
}

uint64_t RefMixNeighbors(uint64_t h, const std::vector<OperatorId>& neighbors,
                         const std::vector<uint64_t>& hashes, uint64_t tag) {
  h = RefMix(h, RefMix(tag, neighbors.size()));
  for (const OperatorId n : neighbors) h = RefMix(h, hashes[n]);
  return h;
}

uint64_t RefCombineSorted(std::vector<uint64_t> hashes, uint64_t seed) {
  std::sort(hashes.begin(), hashes.end());
  uint64_t h = RefSplitMix(seed);
  for (const uint64_t v : hashes) h = RefMix(h, v);
  return h;
}

std::vector<OperatorId> RefTopologicalOrder(const LogicalPlan& plan) {
  const int n = plan.num_operators();
  std::vector<int> pending(n);
  std::deque<OperatorId> ready;
  for (int id = 0; id < n; ++id) {
    pending[id] = static_cast<int>(plan.parents(id).size() +
                                   plan.side_parents(id).size());
    if (pending[id] == 0) ready.push_back(static_cast<OperatorId>(id));
  }
  std::vector<OperatorId> order;
  while (!ready.empty()) {
    const OperatorId id = ready.front();
    ready.pop_front();
    order.push_back(id);
    for (OperatorId child : plan.children(id)) {
      if (--pending[child] == 0) ready.push_back(child);
    }
    for (OperatorId child : plan.side_children(id)) {
      if (--pending[child] == 0) ready.push_back(child);
    }
  }
  return order;
}

PlanFingerprint RefFingerprintPlan(const LogicalPlan& plan,
                                   std::vector<uint64_t>* node_hashes) {
  const int n = plan.num_operators();
  const std::vector<OperatorId> order = RefTopologicalOrder(plan);
  std::vector<uint64_t> up(n, 0);
  for (const OperatorId id : order) {
    uint64_t h = RefLocalHash(plan.op(id));
    h = RefMixNeighbors(h, plan.parents(id), up, 1);
    h = RefMixNeighbors(h, plan.side_parents(id), up, 2);
    const LogicalOperator& op = plan.op(id);
    if (op.loop_begin != kInvalidOperatorId) h = RefMix(h, up[op.loop_begin]);
    up[id] = h;
  }
  std::vector<uint64_t> down(n, 0);
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const OperatorId id = *it;
    uint64_t h = RefLocalHash(plan.op(id));
    h = RefMixNeighbors(h, plan.children(id), down, 3);
    h = RefMixNeighbors(h, plan.side_children(id), down, 4);
    down[id] = h;
  }
  std::vector<uint64_t> combined(n);
  for (int i = 0; i < n; ++i) combined[i] = RefMix(up[i], down[i]);
  *node_hashes = combined;
  PlanFingerprint fp;
  fp.lo = RefMix(RefCombineSorted(combined, 0x6c6f5f6c616e6531ULL),
                 static_cast<uint64_t>(n));
  fp.hi = RefMix(RefCombineSorted(std::move(combined), 0x68695f6c616e6532ULL),
                 static_cast<uint64_t>(n));
  return fp;
}

std::vector<std::pair<uint64_t, OperatorId>> RefCanonicalize(
    const std::vector<uint64_t>& node_hashes) {
  std::vector<std::pair<uint64_t, OperatorId>> canonical;
  for (size_t id = 0; id < node_hashes.size(); ++id) {
    canonical.emplace_back(node_hashes[id], static_cast<OperatorId>(id));
  }
  std::sort(canonical.begin(), canonical.end());
  return canonical;
}

// ---- Random DAGs.

/// Local fields drawn from small sets, so unrelated operators collide on
/// them often; selectivity and param include -0.0, kernels are mostly
/// empty.
LogicalOperator RandomOp(Rng* rng) {
  static const LogicalOpKind kKinds[] = {
      LogicalOpKind::kCollectionSource, LogicalOpKind::kFilter,
      LogicalOpKind::kMap, LogicalOpKind::kJoin,
      LogicalOpKind::kCollectionSink};
  static const double kSelectivities[] = {0.5, 0.0, -0.0, 1.0};
  static const char* kKernels[] = {"", "", "wc_split", "kmeans_update"};
  LogicalOperator op;
  op.kind = kKinds[rng->NextBounded(std::size(kKinds))];
  op.udf = rng->NextBernoulli(0.5) ? UdfComplexity::kNone
                                   : UdfComplexity::kLinear;
  op.selectivity = kSelectivities[rng->NextBounded(std::size(kSelectivities))];
  op.source_cardinality = rng->NextBernoulli(0.5) ? 0.0 : 1e3;
  op.param = rng->NextBernoulli(0.8) ? 0.0 : -0.0;
  op.kernel = kKernels[rng->NextBounded(std::size(kKernels))];
  return op;
}

/// A seeded random DAG: data and broadcast edges, LoopBegin/LoopEnd pairs,
/// leaf "twins" (operators with the same fields and the same parent, whose
/// node hashes tie), and ids assigned in a shuffled order, so id order is
/// not a topological order.
LogicalPlan RandomDag(uint64_t seed) {
  Rng rng(seed);
  const int base = static_cast<int>(rng.NextInt(0, 40));
  // Operators by topological rank, then edges between ranks.
  std::vector<LogicalOperator> ops;
  std::vector<std::pair<int, int>> edges;       // (from rank, to rank)
  std::vector<std::pair<int, int>> broadcasts;  // (from rank, to rank)
  for (int r = 0; r < base; ++r) {
    ops.push_back(RandomOp(&rng));
    if (r == 0) continue;
    const int num_parents = static_cast<int>(rng.NextInt(0, 2));
    for (int p = 0; p < num_parents; ++p) {
      edges.emplace_back(static_cast<int>(rng.NextBounded(r)), r);
    }
    if (rng.NextBernoulli(0.2)) {
      broadcasts.emplace_back(static_cast<int>(rng.NextBounded(r)), r);
    }
  }
  std::vector<std::pair<int, int>> loops;  // (LoopBegin rank, LoopEnd rank)
  for (int l = 0; base >= 4 && l < 2 && rng.NextBernoulli(0.5); ++l) {
    const int begin = static_cast<int>(rng.NextBounded(base - 1));
    const int end = begin + 1 + static_cast<int>(rng.NextBounded(
                                    static_cast<uint64_t>(base - begin - 1)));
    if (ops[begin].kind == LogicalOpKind::kLoopBegin ||
        ops[end].kind == LogicalOpKind::kLoopBegin) {
      continue;
    }
    ops[begin].kind = LogicalOpKind::kLoopBegin;
    ops[begin].loop_iterations = static_cast<int>(rng.NextInt(1, 30));
    ops[end].kind = LogicalOpKind::kLoopEnd;
    edges.emplace_back(begin, end);
    loops.emplace_back(begin, end);
  }
  if (base > 0 && rng.NextBernoulli(0.6)) {
    const int parent = static_cast<int>(rng.NextBounded(base));
    const LogicalOperator twin = RandomOp(&rng);
    const int copies = static_cast<int>(rng.NextInt(2, 5));
    for (int c = 0; c < copies; ++c) {
      edges.emplace_back(parent, static_cast<int>(ops.size()));
      ops.push_back(twin);
    }
  }

  const int n = static_cast<int>(ops.size());
  std::vector<OperatorId> id_of_rank(n);
  for (int r = 0; r < n; ++r) id_of_rank[r] = static_cast<OperatorId>(r);
  for (int i = n - 1; i > 0; --i) {
    std::swap(id_of_rank[i], id_of_rank[rng.NextBounded(i + 1)]);
  }
  std::vector<int> rank_of_id(n);
  for (int r = 0; r < n; ++r) rank_of_id[id_of_rank[r]] = r;
  for (const auto& [begin, end] : loops) {
    ops[end].loop_begin = id_of_rank[begin];
  }

  LogicalPlan plan;
  for (int id = 0; id < n; ++id) plan.Add(ops[rank_of_id[id]]);
  for (const auto& [from, to] : edges) {
    plan.Connect(id_of_rank[from], id_of_rank[to]);
  }
  for (const auto& [from, to] : broadcasts) {
    plan.ConnectBroadcast(id_of_rank[from], id_of_rank[to]);
  }
  return plan;
}

TEST(PlanFingerprintReferenceTest, MatchesTwoPassReferenceOnRandomDags) {
  constexpr int kDags = 100;
  int with_ties = 0, with_loops = 0, with_broadcasts = 0, with_neg_zero = 0,
      with_empty_kernel = 0;
  for (int seed = 0; seed < kDags; ++seed) {
    SCOPED_TRACE(seed);
    const LogicalPlan plan = RandomDag(0x5eed0000ULL + seed);
    std::vector<uint64_t> ref_node_hashes;
    const PlanFingerprint ref = RefFingerprintPlan(plan, &ref_node_hashes);
    const auto ref_canonical = RefCanonicalize(ref_node_hashes);

    CanonicalOrder canonical;
    const PlanFingerprint fp = FingerprintPlan(plan, &canonical);
    EXPECT_EQ(fp.lo, ref.lo);
    EXPECT_EQ(fp.hi, ref.hi);
    EXPECT_EQ(FingerprintPlan(plan), fp);
    ASSERT_EQ(canonical.hashes.size(), ref_canonical.size());
    ASSERT_EQ(canonical.ids.size(), ref_canonical.size());
    for (size_t i = 0; i < ref_canonical.size(); ++i) {
      EXPECT_EQ(canonical.hashes[i], ref_canonical[i].first) << i;
      EXPECT_EQ(canonical.ids[i], ref_canonical[i].second) << i;
    }

    // Coverage of the shapes the generator is meant to produce.
    bool ties = false, loops = false, broadcasts = false, neg_zero = false,
         empty_kernel = false;
    for (size_t i = 1; i < ref_canonical.size(); ++i) {
      ties |= ref_canonical[i].first == ref_canonical[i - 1].first;
    }
    for (const LogicalOperator& op : plan.operators()) {
      loops |= op.loop_begin != kInvalidOperatorId;
      broadcasts |= !plan.side_parents(op.id).empty();
      neg_zero |= std::signbit(op.selectivity) && op.selectivity == 0.0;
      empty_kernel |= op.kernel.empty();
    }
    with_ties += ties;
    with_loops += loops;
    with_broadcasts += broadcasts;
    with_neg_zero += neg_zero;
    with_empty_kernel += empty_kernel;
  }
  EXPECT_GE(with_ties, 20);
  EXPECT_GE(with_loops, 20);
  EXPECT_GE(with_broadcasts, 20);
  EXPECT_GE(with_neg_zero, 20);
  EXPECT_GE(with_empty_kernel, 20);
}

}  // namespace
}  // namespace robopt
