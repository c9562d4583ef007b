#include "plan/fingerprint.h"

#include <algorithm>
#include <cstring>
#include <vector>

namespace robopt {

namespace {

/// splitmix64 finalizer — the same mixer the Rng seeds with.
uint64_t SplitMix(uint64_t z) {
  z += 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

uint64_t Mix(uint64_t h, uint64_t v) { return SplitMix(h ^ SplitMix(v)); }

uint64_t DoubleBits(double d) {
  // +0.0 and -0.0 compare equal but differ in bits; canonicalize.
  if (d == 0.0) d = 0.0;
  uint64_t bits;
  std::memcpy(&bits, &d, sizeof(bits));
  return bits;
}

/// FNV-1a over a string (kernel names are short; quality is ample).
uint64_t StringHash(const std::string& s) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : s) {
    h ^= static_cast<uint8_t>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// Hash of one operator's local fields (no graph context).
uint64_t LocalHash(const LogicalOperator& op) {
  uint64_t h = SplitMix(0x524f424f50545631ULL);  // "ROBOPTV1"
  h = Mix(h, static_cast<uint64_t>(op.kind));
  h = Mix(h, static_cast<uint64_t>(op.udf));
  h = Mix(h, DoubleBits(op.selectivity));
  h = Mix(h, DoubleBits(op.source_cardinality));
  h = Mix(h, DoubleBits(op.tuple_bytes));
  h = Mix(h, DoubleBits(op.param));
  h = Mix(h, StringHash(op.kernel));
  h = Mix(h, static_cast<uint64_t>(static_cast<int64_t>(op.loop_iterations)));
  return h;
}

/// Folds the hashes of one adjacency list into `h`, tagged by edge class.
/// Positional: parent order is semantic (Join build/probe sides).
uint64_t MixNeighbors(uint64_t h, const std::vector<OperatorId>& neighbors,
                      const std::vector<uint64_t>& hashes, uint64_t tag) {
  h = Mix(h, Mix(tag, neighbors.size()));
  for (const OperatorId n : neighbors) h = Mix(h, hashes[n]);
  return h;
}

}  // namespace

std::string PlanFingerprint::ToString() const {
  static const char* kHex = "0123456789abcdef";
  std::string out(32, '0');
  for (int i = 0; i < 16; ++i) {
    out[15 - i] = kHex[(hi >> (4 * i)) & 0xf];
    out[31 - i] = kHex[(lo >> (4 * i)) & 0xf];
  }
  return out;
}

PlanFingerprint FingerprintPlan(const LogicalPlan& plan) {
  CanonicalOrder canonical;
  return FingerprintPlan(plan, &canonical);
}

PlanFingerprint FingerprintPlan(const LogicalPlan& plan,
                                CanonicalOrder* canonical) {
  const int n = plan.num_operators();
  const std::vector<OperatorId> order = plan.TopologicalOrder();

  // Forward pass: each operator over its local fields + parent hashes. The
  // local hash also seeds the backward pass, so it is kept in `down`.
  std::vector<uint64_t> up(n, 0), down(n, 0);
  for (const OperatorId id : order) {
    const LogicalOperator& op = plan.op(id);
    down[id] = LocalHash(op);
    uint64_t h = MixNeighbors(down[id], plan.parents(id), up, /*tag=*/1);
    h = MixNeighbors(h, plan.side_parents(id), up, /*tag=*/2);
    // LoopEnd's pairing edge, so distinct loops cannot be confused even if
    // their bodies hash alike.
    if (op.loop_begin != kInvalidOperatorId) h = Mix(h, up[op.loop_begin]);
    up[id] = h;
  }

  // Backward pass: each operator over its children hashes, so a node's
  // value also encodes how its output is consumed downstream. Children come
  // later in `order`, so their slots already hold their final values.
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const OperatorId id = *it;
    uint64_t h = MixNeighbors(down[id], plan.children(id), down, /*tag=*/3);
    down[id] = MixNeighbors(h, plan.side_children(id), down, /*tag=*/4);
  }

  // Combined per-node hashes (in `up`), sorted once by (hash, id); both
  // lanes fold the same sorted sequence under different seeds.
  for (int i = 0; i < n; ++i) up[i] = Mix(up[i], down[i]);
  std::vector<OperatorId>& ids = canonical->ids;
  ids.resize(n);
  for (int i = 0; i < n; ++i) ids[i] = static_cast<OperatorId>(i);
  std::sort(ids.begin(), ids.end(), [&up](OperatorId a, OperatorId b) {
    return up[a] != up[b] ? up[a] < up[b] : a < b;
  });
  canonical->hashes.resize(n);
  uint64_t lo = SplitMix(0x6c6f5f6c616e6531ULL);
  uint64_t hi = SplitMix(0x68695f6c616e6532ULL);
  for (int i = 0; i < n; ++i) {
    const uint64_t v = up[ids[i]];
    canonical->hashes[i] = v;
    // Mix(h, v) for both lanes, sharing the SplitMix of v.
    const uint64_t mixed = SplitMix(v);
    lo = SplitMix(lo ^ mixed);
    hi = SplitMix(hi ^ mixed);
  }

  PlanFingerprint fp;
  fp.lo = Mix(lo, static_cast<uint64_t>(n));
  fp.hi = Mix(hi, static_cast<uint64_t>(n));
  return fp;
}

uint64_t FingerprintCards(const Cardinalities& cards) {
  uint64_t h = SplitMix(0x63617264735f6670ULL);
  h = Mix(h, cards.input.size());
  for (const double v : cards.input) h = Mix(h, DoubleBits(v));
  h = Mix(h, cards.output.size());
  for (const double v : cards.output) h = Mix(h, DoubleBits(v));
  return h;
}

}  // namespace robopt
