#include "engine/fleet_engine.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "util/rng.hpp"

namespace {

engine::EngineParams small_params() {
  engine::EngineParams p;
  p.forest.n_trees = 10;
  p.forest.tree.n_tests = 64;
  p.forest.tree.min_parent_size = 30;
  p.forest.tree.min_gain = 0.05;
  p.forest.lambda_pos = 1.0;
  p.forest.lambda_neg = 0.2;
  p.queue_capacity = 7;
  p.alarm_threshold = 0.5;
  return p;
}

TEST(OnlinePredictor, QueueDelaysNegativeLabels) {
  engine::FleetEngine predictor(1, small_params(), 7);
  // Seven samples fill the queue; none is released yet.
  for (int day = 0; day < 7; ++day) {
    predictor.observe(0, std::vector<float>{0.1f});
  }
  EXPECT_EQ(predictor.negatives_released(), 0u);
  // The eighth evicts the oldest as a negative.
  predictor.observe(0, std::vector<float>{0.1f});
  EXPECT_EQ(predictor.negatives_released(), 1u);
  EXPECT_EQ(predictor.tracked_disks(), 1u);
}

TEST(OnlinePredictor, FailureLabelsQueueContentsPositive) {
  engine::FleetEngine predictor(1, small_params(), 7);
  for (int day = 0; day < 5; ++day) {
    predictor.observe(3, std::vector<float>{0.9f});
  }
  predictor.disk_failed(3);
  EXPECT_EQ(predictor.positives_released(), 5u);
  EXPECT_EQ(predictor.tracked_disks(), 0u);
}

TEST(OnlinePredictor, FailureOfUnknownDiskIsANoop) {
  engine::FleetEngine predictor(1, small_params(), 7);
  predictor.disk_failed(99);
  EXPECT_EQ(predictor.positives_released(), 0u);
}

TEST(OnlinePredictor, RetiredDiskSamplesStayUnlabeled) {
  engine::FleetEngine predictor(1, small_params(), 7);
  for (int day = 0; day < 5; ++day) {
    predictor.observe(4, std::vector<float>{0.5f});
  }
  predictor.disk_retired(4);
  EXPECT_EQ(predictor.tracked_disks(), 0u);
  EXPECT_EQ(predictor.positives_released(), 0u);
  EXPECT_EQ(predictor.negatives_released(), 0u);
}

TEST(OnlinePredictor, LearnsToAlarmOnFailingPattern) {
  // Healthy disks report low values; failing disks ramp to high values in
  // their final week. After enough failures the predictor must alarm on
  // high values and stay quiet on low ones.
  engine::FleetEngine predictor(1, small_params(), 7);
  util::Rng rng(42);
  data::DiskId next_disk = 0;

  for (int round = 0; round < 60; ++round) {
    // One healthy disk, observed for 30 days then retired.
    const data::DiskId healthy = next_disk++;
    for (int day = 0; day < 30; ++day) {
      predictor.observe(healthy,
                        std::vector<float>{static_cast<float>(
                            rng.uniform(0.0, 0.3))});
    }
    predictor.disk_retired(healthy);
    // One failing disk: 10 healthy days then a 7-day ramp, then failure.
    const data::DiskId failing = next_disk++;
    for (int day = 0; day < 10; ++day) {
      predictor.observe(failing,
                        std::vector<float>{static_cast<float>(
                            rng.uniform(0.0, 0.3))});
    }
    for (int day = 0; day < 7; ++day) {
      predictor.observe(failing,
                        std::vector<float>{static_cast<float>(
                            rng.uniform(0.7, 1.0))});
    }
    predictor.disk_failed(failing);
  }

  EXPECT_GT(predictor.score(std::vector<float>{0.9f}), 0.5);
  EXPECT_LT(predictor.score(std::vector<float>{0.1f}), 0.5);

  const auto risky = predictor.observe(10000, std::vector<float>{0.95f});
  EXPECT_TRUE(risky.alarm);
  const auto healthy_obs = predictor.observe(10001, std::vector<float>{0.05f});
  EXPECT_FALSE(healthy_obs.alarm);
}

TEST(OnlinePredictor, AlarmThresholdAdjustable) {
  engine::FleetEngine predictor(1, small_params(), 7);
  predictor.set_alarm_threshold(0.0);
  const auto always = predictor.observe(1, std::vector<float>{0.5f});
  EXPECT_TRUE(always.alarm);  // any score ≥ 0
  predictor.set_alarm_threshold(1.1);
  const auto never = predictor.observe(1, std::vector<float>{0.5f});
  EXPECT_FALSE(never.alarm);
  EXPECT_DOUBLE_EQ(predictor.alarm_threshold(), 1.1);
}

TEST(OnlinePredictor, ZeroQueueCapacityThrows) {
  auto params = small_params();
  params.queue_capacity = 0;
  EXPECT_THROW(engine::FleetEngine(1, params, 7),
               std::invalid_argument);
}

TEST(OnlinePredictor, ScoreIsPureAndRepeatable) {
  engine::FleetEngine predictor(1, small_params(), 7);
  const double s1 = predictor.score(std::vector<float>{0.4f});
  const double s2 = predictor.score(std::vector<float>{0.4f});
  EXPECT_DOUBLE_EQ(s1, s2);
  EXPECT_EQ(predictor.tracked_disks(), 0u);  // score() touches no state
}

}  // namespace
