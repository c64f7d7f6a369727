#include "eval/fleet_stream.hpp"

#include <gtest/gtest.h>

#include "datagen/fleet_generator.hpp"
#include "datagen/profile.hpp"
#include "engine/fleet_engine.hpp"

namespace {

engine::EngineParams small_params() {
  engine::EngineParams p;
  p.forest.n_trees = 8;
  p.forest.tree.n_tests = 64;
  p.forest.tree.min_parent_size = 60;
  p.forest.lambda_neg = 0.05;
  p.alarm_threshold = 0.5;
  return p;
}

data::Dataset small_fleet() {
  datagen::FleetProfile profile = datagen::sta_profile(0.003);
  profile.n_failed = 12;
  profile.duration_days = 8 * data::kDaysPerMonth;
  return datagen::generate_fleet(profile, 19);
}

TEST(FleetStream, ProcessesEverySampleExactlyOnce) {
  const auto fleet = small_fleet();
  engine::FleetEngine predictor(fleet.feature_count(), small_params(), 5);
  const auto result = eval::stream_fleet(fleet, predictor);
  EXPECT_EQ(result.samples_processed, fleet.sample_count());
  EXPECT_EQ(result.disks.size(), fleet.disks.size());
}

TEST(FleetStream, OutcomesMirrorDiskFates) {
  const auto fleet = small_fleet();
  engine::FleetEngine predictor(fleet.feature_count(), small_params(), 5);
  const auto result = eval::stream_fleet(fleet, predictor);
  for (std::size_t i = 0; i < fleet.disks.size(); ++i) {
    EXPECT_EQ(result.disks[i].failed, fleet.disks[i].failed);
    EXPECT_EQ(result.disks[i].last_day, fleet.disks[i].last_day);
    for (data::Day day : result.disks[i].alarm_days) {
      EXPECT_GE(day, fleet.disks[i].first_day);
      EXPECT_LE(day, fleet.disks[i].last_day);
    }
  }
}

TEST(FleetStream, AlarmDaysAreSorted) {
  const auto fleet = small_fleet();
  engine::FleetEngine predictor(fleet.feature_count(), small_params(), 5);
  const auto result = eval::stream_fleet(fleet, predictor);
  for (const auto& outcome : result.disks) {
    for (std::size_t i = 1; i < outcome.alarm_days.size(); ++i) {
      EXPECT_LT(outcome.alarm_days[i - 1], outcome.alarm_days[i]);
    }
  }
}

TEST(FleetStream, MetricsCountAlarmsByWindow) {
  eval::FleetStreamResult result;
  // Failed disk with an alarm inside the last week.
  eval::FleetStreamResult::DiskOutcome detected;
  detected.failed = true;
  detected.last_day = 100;
  detected.alarm_days = {96};
  // Failed disk alarmed only long before failure (a miss by §4.3).
  eval::FleetStreamResult::DiskOutcome missed;
  missed.failed = true;
  missed.last_day = 100;
  missed.alarm_days = {50};
  // Good disk with an early alarm (false alarm).
  eval::FleetStreamResult::DiskOutcome noisy;
  noisy.failed = false;
  noisy.last_day = 200;
  noisy.alarm_days = {120};
  // Quiet good disk.
  eval::FleetStreamResult::DiskOutcome quiet;
  quiet.failed = false;
  quiet.last_day = 200;
  result.disks = {detected, missed, noisy, quiet};

  const auto m = result.metrics();
  EXPECT_EQ(m.true_positives, 1u);
  EXPECT_EQ(m.failed_disks, 2u);
  EXPECT_EQ(m.false_positives, 1u);
  EXPECT_EQ(m.good_disks, 2u);
  EXPECT_DOUBLE_EQ(m.fdr, 50.0);
  EXPECT_DOUBLE_EQ(m.far, 50.0);
}

TEST(FleetStream, WarmupAlarmsAreForgiven) {
  eval::FleetStreamResult result;
  eval::FleetStreamResult::DiskOutcome early_noise;
  early_noise.failed = false;
  early_noise.last_day = 300;
  early_noise.alarm_days = {10};  // during warm-up
  result.disks = {early_noise};
  EXPECT_DOUBLE_EQ(result.metrics(7, 30).far, 0.0);
  EXPECT_DOUBLE_EQ(result.metrics(7, 0).far, 100.0);
}

TEST(FleetStream, GoodDiskAlarmInLatestWeekIsNotAFalseAlarm) {
  // §4.3: good-disk mis-classification counts only samples *outside* the
  // latest week.
  eval::FleetStreamResult result;
  eval::FleetStreamResult::DiskOutcome tail_alarm;
  tail_alarm.failed = false;
  tail_alarm.last_day = 100;
  tail_alarm.alarm_days = {97};
  result.disks = {tail_alarm};
  EXPECT_DOUBLE_EQ(result.metrics().far, 0.0);
}

}  // namespace
