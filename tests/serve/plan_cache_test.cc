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
  other_options.options_hash = 99;
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

  // num_threads and oracle_cache_bytes are documented as bit-identical
  // knobs: they must NOT change the key, or repeat queries would miss.
  OptimizeOptions threads = base;
  threads.num_threads = 7;
  threads.oracle_cache_bytes = 1 << 20;
  EXPECT_EQ(PlanCache::HashOptions(threads), h);
}

}  // namespace
}  // namespace robopt
