#include "serve/model_registry.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"

namespace robopt {
namespace {

/// A tiny forest predicting (roughly) a constant, distinguishable per label.
std::shared_ptr<RandomForest> TinyForest(float label, uint64_t seed = 1) {
  MlDataset data(1);
  Rng rng(seed);
  for (int i = 0; i < 50; ++i) {
    const float x = static_cast<float>(rng.NextUniform(0, 1));
    data.Add({x}, label);
  }
  RandomForest::Params params;
  params.num_trees = 5;
  params.log_label = false;
  params.seed = seed;
  auto forest = std::make_shared<RandomForest>(params);
  EXPECT_TRUE(forest->Train(data).ok());
  return forest;
}

float PredictVia(const CostOracle& oracle) {
  const float x = 0.5f;
  float out = 0.0f;
  oracle.EstimateBatch(&x, 1, 1, &out);
  return out;
}

TEST(ModelRegistryTest, StartsEmpty) {
  ModelRegistry registry;
  EXPECT_EQ(registry.Current(), nullptr);
  EXPECT_EQ(registry.current_version(), 0u);
  EXPECT_EQ(registry.num_published(), 0u);
  const PinnedOracle pinned = registry.Acquire();
  EXPECT_EQ(pinned.oracle, nullptr);
  EXPECT_EQ(pinned.version, 0u);
}

TEST(ModelRegistryTest, PublishesSequentialVersionsAndStampsMeta) {
  ModelRegistry registry;
  auto v1 = TinyForest(1.0f);
  auto v2 = TinyForest(2.0f);
  EXPECT_EQ(registry.Publish(v1, 0.25), 1u);
  EXPECT_EQ(v1->meta().version, 1u);
  EXPECT_EQ(registry.Publish(v2, 0.125), 2u);
  EXPECT_EQ(v2->meta().version, 2u);
  EXPECT_EQ(registry.current_version(), 2u);
  EXPECT_EQ(registry.num_published(), 2u);
  const auto current = registry.Current();
  ASSERT_NE(current, nullptr);
  EXPECT_EQ(current->version(), 2u);
  EXPECT_DOUBLE_EQ(current->holdout_mae(), 0.125);
  EXPECT_DOUBLE_EQ(registry.Get(1)->holdout_mae(), 0.25);
}

TEST(ModelRegistryTest, HistoryIsBounded) {
  ModelRegistry registry(/*history=*/2);
  for (int i = 0; i < 4; ++i) {
    registry.Publish(TinyForest(static_cast<float>(i + 1)), 0.0);
  }
  EXPECT_EQ(registry.Get(1), nullptr);
  EXPECT_EQ(registry.Get(2), nullptr);
  ASSERT_NE(registry.Get(3), nullptr);
  ASSERT_NE(registry.Get(4), nullptr);
  EXPECT_EQ(registry.current_version(), 4u);
  EXPECT_EQ(registry.num_published(), 4u);
}

TEST(ModelRegistryTest, AcquirePinsAcrossPublish) {
  ModelRegistry registry;
  registry.Publish(TinyForest(10.0f), 0.0);
  const PinnedOracle pinned = registry.Acquire();
  ASSERT_NE(pinned.oracle, nullptr);
  EXPECT_EQ(pinned.version, 1u);
  const float before = PredictVia(*pinned.oracle);

  // Hot-swap in a very different model; the pinned oracle must keep
  // predicting from version 1 — even after the registry's history forgets
  // it entirely.
  ModelRegistry* reg = &registry;
  for (int i = 0; i < 20; ++i) reg->Publish(TinyForest(1000.0f), 0.0);
  EXPECT_EQ(registry.Get(1), nullptr);  // Evicted from history.
  EXPECT_EQ(registry.current_version(), 21u);
  EXPECT_EQ(PredictVia(*pinned.oracle), before);
  EXPECT_NEAR(before, 10.0f, 1.0f);
  EXPECT_GT(PredictVia(*registry.Acquire().oracle), 500.0f);
}

TEST(ModelRegistryTest, DriftEwmaSeedsThenSmooths) {
  ModelRegistry registry;
  registry.Publish(TinyForest(1.0f), 0.0);
  const auto snapshot = registry.Current();
  EXPECT_EQ(snapshot->drift().observations, 0u);
  snapshot->ObserveError(1.0, /*alpha=*/0.5);
  // First observation seeds the EWMA rather than decaying from zero.
  EXPECT_DOUBLE_EQ(snapshot->drift().error_ewma, 1.0);
  snapshot->ObserveError(2.0, 0.5);
  EXPECT_DOUBLE_EQ(snapshot->drift().error_ewma, 1.5);
  EXPECT_EQ(snapshot->drift().observations, 2u);
  // Drift is per-version: a new version starts a fresh curve.
  registry.Publish(TinyForest(2.0f), 0.0);
  EXPECT_EQ(registry.Current()->drift().observations, 0u);
}

TEST(ModelRegistryTest, UnvalidatedPublishRecordsNanMae) {
  ModelRegistry registry;
  registry.Publish(TinyForest(1.0f), std::nan(""));
  EXPECT_TRUE(std::isnan(registry.Current()->holdout_mae()));
}

}  // namespace
}  // namespace robopt
