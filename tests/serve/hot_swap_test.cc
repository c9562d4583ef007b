#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <thread>
#include <vector>

#include "core/optimizer.h"
#include "serve/model_registry.h"
#include "serve/optimizer_service.h"
#include "workloads/synthetic.h"

namespace robopt {
namespace {

/// Concurrent hot-swap contract (run under TSan in CI): N optimizer threads
/// race Optimize() against a publisher thread doing repeated promotions.
/// Every call must see one complete model — the result of a call that
/// reports version v must be bit-identical to a single-threaded optimization
/// against v's forest, no matter how many swaps happened mid-call.
class HotSwapTest : public ::testing::Test {
 protected:
  HotSwapTest()
      : registry_(PlatformRegistry::Default(2)),
        schema_(&registry_),
        plan_(MakeSyntheticPipeline(5, 1e5, 1)) {}

  /// Trains a forest on every plan vector of plan_, labeled by `label`.
  std::shared_ptr<RandomForest> TrainOn(float (*label)(const float*, size_t)) {
    auto ctx = EnumerationContext::Make(&plan_, &registry_, &schema_);
    EXPECT_TRUE(ctx.ok());
    const PlanVectorEnumeration all = Enumerate(*ctx, Vectorize(*ctx));
    MlDataset data(schema_.width());
    for (size_t row = 0; row < all.size(); ++row) {
      data.Add(all.features(row), label(all.features(row), schema_.width()));
    }
    RandomForest::Params params;
    params.num_trees = 10;
    params.log_label = false;
    auto forest = std::make_shared<RandomForest>(params);
    EXPECT_TRUE(forest->Train(data).ok());
    return forest;
  }

  struct Expected {
    std::vector<int> alts;
    float predicted = 0.0f;
  };

  /// Single-threaded reference optimization against one fixed forest.
  Expected ExpectedFor(const RandomForest& forest) {
    const MlCostOracle oracle(&forest);
    const RoboptOptimizer optimizer(&registry_, &schema_, &oracle);
    auto result = optimizer.Optimize(plan_);
    EXPECT_TRUE(result.ok());
    Expected expected;
    expected.predicted = result->predicted_runtime_s;
    for (const LogicalOperator& op : plan_.operators()) {
      expected.alts.push_back(result->plan.alt_index(op.id));
    }
    return expected;
  }

  PlatformRegistry registry_;
  FeatureSchema schema_;
  LogicalPlan plan_;
};

float SumLabel(const float* row, size_t width) {
  float sum = 1.0f;
  for (size_t i = 0; i < width; ++i) sum += std::fabs(row[i]);
  return sum;
}

/// Reversed preference order relative to SumLabel, so the two models choose
/// different plans and a torn read would be observable.
float InverseLabel(const float* row, size_t width) {
  return 1e9f / SumLabel(row, width);
}

TEST_F(HotSwapTest, RacingOptimizeAlwaysSeesOneCompleteModel) {
  auto forest_a = TrainOn(SumLabel);     // Odd versions.
  auto forest_b = TrainOn(InverseLabel); // Even versions.
  const Expected expected_a = ExpectedFor(*forest_a);
  const Expected expected_b = ExpectedFor(*forest_b);

  ModelRegistry models;
  models.Publish(forest_a, 0.0);  // v1.
  const RoboptOptimizer optimizer(&registry_, &schema_,
                                  static_cast<const OracleProvider*>(&models));

  constexpr int kOptimizerThreads = 4;
  constexpr int kMinIterations = 25;
  constexpr int kMaxIterations = 2000;
  constexpr int kPromotions = 60;
  std::atomic<bool> done_publishing{false};
  std::atomic<int> failures{0};

  std::thread publisher([&] {
    for (int i = 0; i < kPromotions; ++i) {
      models.Publish(i % 2 == 0 ? forest_b : forest_a, 0.0);
      std::this_thread::yield();
    }
    done_publishing.store(true);
  });

  std::vector<std::thread> optimizers;
  optimizers.reserve(kOptimizerThreads);
  for (int t = 0; t < kOptimizerThreads; ++t) {
    optimizers.emplace_back([&] {
      // Keep racing until every promotion has happened, so swaps land
      // while calls are genuinely in flight.
      for (int i = 0; (i < kMinIterations || !done_publishing.load()) &&
                      i < kMaxIterations;
           ++i) {
        auto result = optimizer.Optimize(plan_);
        if (!result.ok()) {
          ++failures;
          continue;
        }
        const uint64_t version = result->model_version;
        if (version == 0) {
          ++failures;
          continue;
        }
        // Odd versions republished forest_a, even ones forest_b; the whole
        // call must match that forest's single-threaded result bit for bit.
        const Expected& expected =
            version % 2 == 1 ? expected_a : expected_b;
        if (result->predicted_runtime_s != expected.predicted) {
          ++failures;
          continue;
        }
        for (const LogicalOperator& op : plan_.operators()) {
          if (result->plan.alt_index(op.id) != expected.alts[op.id]) {
            ++failures;
            break;
          }
        }
      }
    });
  }
  for (std::thread& thread : optimizers) thread.join();
  publisher.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(models.num_published(), size_t{kPromotions} + 1);
  // The two models must actually disagree, or this test proves nothing.
  EXPECT_NE(expected_a.alts, expected_b.alts);
}

TEST_F(HotSwapTest, PinnedVersionSurvivesPublishMidCall) {
  // Deterministic (non-racing) version of the same contract: acquire a pin,
  // publish, and check the pinned oracle still serves the old model.
  auto forest_a = TrainOn(SumLabel);
  auto forest_b = TrainOn(InverseLabel);
  ModelRegistry models;
  models.Publish(forest_a, 0.0);
  const PinnedOracle pinned = models.Acquire();
  models.Publish(forest_b, 0.0);

  auto ctx = EnumerationContext::Make(&plan_, &registry_, &schema_);
  ASSERT_TRUE(ctx.ok());
  const PlanVectorEnumeration all = Enumerate(*ctx, Vectorize(*ctx));
  ASSERT_GT(all.size(), 0u);
  float pinned_out = 0.0f;
  float direct_out = 0.0f;
  pinned.oracle->EstimateBatch(all.features(0), 1, schema_.width(),
                               &pinned_out);
  forest_a->PredictBatch(all.features(0), 1, schema_.width(), &direct_out);
  EXPECT_EQ(pinned_out, direct_out);
  EXPECT_EQ(pinned.version, 1u);
  EXPECT_EQ(models.current_version(), 2u);
}

// The same contract one layer up, through the service: plan cache off so
// every call runs the optimizer, two clients, and a publisher that keeps
// republishing the v1 forest via PublishExternal. Every version in the storm
// holds the same weights, so whichever one a call pins, its result must equal
// the single-threaded reference bit for bit.
TEST_F(HotSwapTest, ServicePromotionStormKeepsPredictionsBitIdentical) {
  auto forest = TrainOn(SumLabel);
  const Expected expected = ExpectedFor(*forest);
  ServeOptions options;
  options.background_retrain = false;
  options.plan_cache_capacity = 0;
  auto made = OptimizerService::Create(&registry_, &schema_,
                                       MlDataset(schema_.width()), forest,
                                       options);
  ASSERT_TRUE(made.ok()) << made.status().ToString();
  OptimizerService* service = made->get();

  constexpr int kClients = 2;
  constexpr int kPromotions = 60;
  constexpr int kCallsPerClient = 2 * kPromotions + 2;
  std::atomic<int> calls{0};
  std::atomic<int> mismatches{0};

  // Calls and promotions advance in step: promotion p waits for 2p finished
  // calls, and a client's call i waits for promotion i / 2. So promotions
  // land while the other client's call is in flight, the first finished call
  // saw v1, and each client's last call sees the final version.
  std::thread publisher([&] {
    for (int p = 1; p <= kPromotions; ++p) {
      while (calls.load() < 2 * p) std::this_thread::yield();
      service->PublishExternal(forest);
    }
  });
  std::vector<uint64_t> first_version(kClients, 0);
  std::vector<uint64_t> last_version(kClients, 0);
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int i = 0; i < kCallsPerClient; ++i) {
        const uint64_t floor = 1 + std::min(i / 2, kPromotions);
        while (service->registry().current_version() < floor) {
          std::this_thread::yield();
        }
        auto result = service->Optimize(plan_);
        bool same = result.ok() &&
                    result->optimize.predicted_runtime_s == expected.predicted;
        for (const LogicalOperator& op : plan_.operators()) {
          same = same &&
                 result->optimize.plan.alt_index(op.id) == expected.alts[op.id];
        }
        if (same) {
          if (i == 0) first_version[c] = result->optimize.model_version;
          last_version[c] = result->optimize.model_version;
        } else {
          ++mismatches;
        }
        ++calls;
      }
    });
  }
  for (std::thread& client : clients) client.join();
  publisher.join();

  EXPECT_EQ(mismatches.load(), 0) << "of " << calls.load() << " calls";
  const uint64_t final_version = static_cast<uint64_t>(kPromotions) + 1;
  EXPECT_EQ(service->registry().current_version(), final_version);
  EXPECT_EQ(*std::min_element(first_version.begin(), first_version.end()),
            1u);
  EXPECT_EQ(*std::max_element(last_version.begin(), last_version.end()),
            final_version);
  EXPECT_EQ(service->Stats().plan_cache.hits, 0u);
}

}  // namespace
}  // namespace robopt
