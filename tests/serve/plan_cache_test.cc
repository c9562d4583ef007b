#include "serve/plan_cache.h"

#include <gtest/gtest.h>

namespace robopt {
namespace {

PlanCacheKey Key(uint64_t lo) {
  PlanCacheKey key;
  key.plan.lo = lo;
  key.plan.hi = ~lo;
  return key;
}

/// Canonical node-hash sequence every test entry is stored under.
const std::vector<uint64_t> kHashes = {10, 20, 30};

PlanCache::Entry Entry(uint64_t version, float predicted = 1.0f) {
  PlanCache::Entry entry;
  entry.assignment = {{10, 0}, {20, 1}, {30, 2}};
  entry.predicted_runtime_s = predicted;
  entry.model_version = version;
  return entry;
}

TEST(PlanCacheTest, HitReturnsInsertedEntry) {
  PlanCache cache(4);
  EXPECT_TRUE(cache.enabled());
  cache.Insert(Key(1), Entry(7, 3.5f));
  PlanCache::Entry out;
  ASSERT_TRUE(cache.Lookup(Key(1), /*current_version=*/7, kHashes, &out));
  EXPECT_EQ(out.model_version, 7u);
  EXPECT_FLOAT_EQ(out.predicted_runtime_s, 3.5f);
  EXPECT_EQ(out.assignment, Entry(7).assignment);
  EXPECT_FALSE(cache.Lookup(Key(2), 7, kHashes, &out));
  const PlanCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
}

TEST(PlanCacheTest, KeyDistinguishesCardsAndOptions) {
  PlanCache cache(8);
  PlanCacheKey base = Key(1);
  cache.Insert(base, Entry(1));
  PlanCacheKey other_cards = base;
  other_cards.cards_hash = 99;
  PlanCacheKey other_options = base;
  other_options.options.prune = PruneMode::kNone;
  PlanCache::Entry out;
  EXPECT_TRUE(cache.Lookup(base, 1, kHashes, &out));
  EXPECT_FALSE(cache.Lookup(other_cards, 1, kHashes, &out));
  EXPECT_FALSE(cache.Lookup(other_options, 1, kHashes, &out));
}

TEST(PlanCacheTest, StaleVersionIsLazilyInvalidated) {
  PlanCache cache(4);
  cache.Insert(Key(1), Entry(1));
  PlanCache::Entry out;
  // A promotion happened: the same key under version 2 must miss, and the
  // stale entry must be gone afterwards (not resurrected by version 1).
  EXPECT_FALSE(cache.Lookup(Key(1), 2, kHashes, &out));
  EXPECT_FALSE(cache.Lookup(Key(1), 1, kHashes, &out));
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.stats().invalidations, 1u);
}

TEST(PlanCacheTest, NodeHashMismatchIsAMissAndDropsTheEntry) {
  PlanCache cache(4);
  cache.Insert(Key(1), Entry(1));
  PlanCache::Entry out;
  // Same full key, different canonical node hashes: a fingerprint collision
  // between structurally different plans. Serving the entry would put alts
  // on the wrong operators — it must miss and be dropped, never returned.
  const std::vector<uint64_t> other = {10, 20, 31};
  EXPECT_FALSE(cache.Lookup(Key(1), 1, other, &out));
  const std::vector<uint64_t> shorter = {10, 20};
  cache.Insert(Key(1), Entry(1));
  EXPECT_FALSE(cache.Lookup(Key(1), 1, shorter, &out));
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.stats().invalidations, 2u);
  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_EQ(cache.stats().misses, 2u);
}

TEST(PlanCacheTest, EvictsLeastRecentlyUsed) {
  PlanCache cache(2);
  cache.Insert(Key(1), Entry(1));
  cache.Insert(Key(2), Entry(1));
  PlanCache::Entry out;
  // Touch key 1 so key 2 becomes the LRU victim.
  ASSERT_TRUE(cache.Lookup(Key(1), 1, kHashes, &out));
  cache.Insert(Key(3), Entry(1));
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_TRUE(cache.Lookup(Key(1), 1, kHashes, &out));
  EXPECT_FALSE(cache.Lookup(Key(2), 1, kHashes, &out));
  EXPECT_TRUE(cache.Lookup(Key(3), 1, kHashes, &out));
  EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST(PlanCacheTest, ReinsertReplacesInPlace) {
  PlanCache cache(2);
  cache.Insert(Key(1), Entry(1, 1.0f));
  cache.Insert(Key(1), Entry(2, 2.0f));
  EXPECT_EQ(cache.size(), 1u);
  PlanCache::Entry out;
  ASSERT_TRUE(cache.Lookup(Key(1), 2, kHashes, &out));
  EXPECT_FLOAT_EQ(out.predicted_runtime_s, 2.0f);
}

TEST(PlanCacheTest, ZeroCapacityDisablesCaching) {
  PlanCache cache(0);
  EXPECT_FALSE(cache.enabled());
  cache.Insert(Key(1), Entry(1));
  EXPECT_EQ(cache.size(), 0u);
  PlanCache::Entry out;
  EXPECT_FALSE(cache.Lookup(Key(1), 1, kHashes, &out));
}

TEST(PlanCacheTest, HashOptionsCoversSearchRelevantFields) {
  OptimizeOptions base;
  const uint64_t h = PlanCache::HashOptions(base);

  OptimizeOptions mask = base;
  mask.allowed_platform_mask = 0b11;
  EXPECT_NE(PlanCache::HashOptions(mask), h);

  OptimizeOptions single = base;
  single.single_platform = true;
  EXPECT_NE(PlanCache::HashOptions(single), h);

  OptimizeOptions prune = base;
  prune.prune = PruneMode::kNone;
  EXPECT_NE(PlanCache::HashOptions(prune), h);

  // num_threads is documented as a bit-identical knob: it must NOT
  // change the key, or repeat queries would miss.
  OptimizeOptions threads = base;
  threads.num_threads = 7;
  EXPECT_EQ(PlanCache::HashOptions(threads), h);
}

/// Two option sets whose HashOptions values collide (the hash_combine mix
/// has structured collisions): A searches only platform 0, 1 or 3 as a
/// single platform, B mixes platforms 3 and 4.
OptimizeOptions CollidingA() {
  OptimizeOptions a;
  a.allowed_platform_mask = 0b01111;
  a.excluded_platform_mask = 0b00100;
  a.single_platform = true;
  return a;
}

OptimizeOptions CollidingB() {
  OptimizeOptions b;
  b.allowed_platform_mask = 0b11100;
  b.excluded_platform_mask = 0b00101;
  return b;
}

TEST(PlanCacheTest, CollidingOptionHashesNeverShareAnEntry) {
  ASSERT_EQ(PlanCache::HashOptions(CollidingA()),
            PlanCache::HashOptions(CollidingB()));
  PlanCache cache(4);
  PlanCacheKey a = Key(1);
  a.options = PlanSearchOptions::Of(CollidingA());
  PlanCacheKey b = Key(1);
  b.options = PlanSearchOptions::Of(CollidingB());
  cache.Insert(a, Entry(1));
  PlanCache::Entry out;
  PlanCacheMissCause cause = PlanCacheMissCause::kNone;
  EXPECT_FALSE(cache.Lookup(b, 1, kHashes, &out, &cause));
  EXPECT_EQ(cause, PlanCacheMissCause::kCold);
  EXPECT_TRUE(cache.Lookup(a, 1, kHashes, &out));
}

TEST(PlanCacheTest, HashOptionsValuesAreStable) {
  // Recorded trace records carry these values (RBTRACE v1 options_hash),
  // and replay counts a mismatch for every record whose hash moved.
  OptimizeOptions masks;
  masks.allowed_platform_mask = 0b11;
  OptimizeOptions exhaustive;
  exhaustive.prune = PruneMode::kNone;
  OptimizeOptions switch_cap;
  switch_cap.prune = PruneMode::kSwitchCap;
  switch_cap.priority = PriorityMode::kTopDown;
  OptimizeOptions bottom_up;
  bottom_up.priority = PriorityMode::kBottomUp;
  bottom_up.excluded_platform_mask = 0b1;
  bottom_up.num_threads = 3;
  EXPECT_EQ(PlanCache::HashOptions(OptimizeOptions{}), 0x4b7efa2d23c5d8a6ull);
  EXPECT_EQ(PlanCache::HashOptions(masks), 0x822b05da617f1dacull);
  EXPECT_EQ(PlanCache::HashOptions(CollidingA()), 0x822b05dc754bc25eull);
  EXPECT_EQ(PlanCache::HashOptions(CollidingB()), 0x822b05dc754bc25eull);
  EXPECT_EQ(PlanCache::HashOptions(exhaustive), 0x4b7efa2d23c5d8e7ull);
  EXPECT_EQ(PlanCache::HashOptions(switch_cap), 0x4b7efa2d23c52d75ull);
  EXPECT_EQ(PlanCache::HashOptions(bottom_up), 0x4b7efa2d20c3943eull);
}

}  // namespace
}  // namespace robopt
