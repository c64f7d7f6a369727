// End-to-end integration: synthetic fleet → Algorithm 2 deployment loop
// (LabelQueue labeling + online scaling + ORF) → disk-level metrics.
#include <gtest/gtest.h>

#include "data/backblaze_csv.hpp"
#include "data/labeling.hpp"
#include "datagen/fleet_generator.hpp"
#include "datagen/profile.hpp"
#include "engine/fleet_engine.hpp"
#include "eval/fleet_stream.hpp"
#include "eval/metrics.hpp"
#include "eval/replay.hpp"

#include <sstream>

namespace {

engine::EngineParams predictor_params() {
  engine::EngineParams p;
  p.forest.n_trees = 15;
  p.forest.tree.n_tests = 128;
  p.forest.tree.min_parent_size = 120;
  p.forest.tree.min_gain = 0.08;
  p.forest.lambda_pos = 1.0;
  p.forest.lambda_neg = 0.02;
  p.alarm_threshold = 0.5;
  return p;
}

TEST(EndToEnd, OnlinePipelineDetectsFailuresWithFewFalseAlarms) {
  datagen::FleetProfile profile = datagen::sta_profile(0.012);
  profile.duration_days = 15 * data::kDaysPerMonth;
  const auto dataset = datagen::generate_fleet(profile, 17);

  engine::FleetEngine predictor(dataset.feature_count(), predictor_params(),
                                23);
  const auto result = eval::stream_fleet(dataset, predictor);
  EXPECT_EQ(result.samples_processed, dataset.sample_count());

  // Skip the first four months while the model warms up.
  const auto metrics = result.metrics(data::kHorizonDays,
                                      4 * data::kDaysPerMonth);
  EXPECT_GT(metrics.fdr, 50.0);
  EXPECT_LT(metrics.far, 12.0);
  EXPECT_GT(predictor.positives_released(), 0u);
  EXPECT_GT(predictor.negatives_released(), 0u);
}

TEST(EndToEnd, StreamingReleasesMatchQueueSemantics) {
  datagen::FleetProfile profile = datagen::sta_profile(0.003);
  profile.duration_days = 6 * data::kDaysPerMonth;
  const auto dataset = datagen::generate_fleet(profile, 17);

  engine::FleetEngine predictor(dataset.feature_count(), predictor_params(),
                                23);
  eval::stream_fleet(dataset, predictor);

  // Every failed disk contributes min(queue, observed) positives; every
  // sample not positive and not stuck in a queue at retirement was released
  // as a negative.
  std::uint64_t expected_positives = 0;
  std::uint64_t expected_negatives = 0;
  const auto capacity = static_cast<std::uint64_t>(
      predictor_params().queue_capacity);
  for (const auto& disk : dataset.disks) {
    const auto n = static_cast<std::uint64_t>(disk.snapshots.size());
    if (disk.failed) {
      expected_positives += std::min(n, capacity);
      expected_negatives += n - std::min(n, capacity);
    } else {
      expected_negatives += n - std::min(n, capacity);
    }
  }
  EXPECT_EQ(predictor.positives_released(), expected_positives);
  EXPECT_EQ(predictor.negatives_released(), expected_negatives);
}

TEST(EndToEnd, CsvRoundTripFeedsReplayIdentically) {
  // Generate → CSV → parse → offline-label → replay must match replaying
  // the original dataset (the CSV path is how real Backblaze data enters).
  datagen::FleetProfile profile = datagen::sta_profile(0.003);
  profile.duration_days = 6 * data::kDaysPerMonth;
  const auto original = datagen::generate_fleet(profile, 29);

  std::stringstream buffer;
  data::write_backblaze_csv(original, buffer);
  const auto loaded = data::read_backblaze_csv(buffer);

  auto samples_a = data::label_offline_all(original);
  auto samples_b = data::label_offline_all(loaded);
  data::sort_by_time(samples_a);
  data::sort_by_time(samples_b);
  ASSERT_EQ(samples_a.size(), samples_b.size());

  core::OnlineForestParams orf;
  orf.n_trees = 8;
  orf.tree.n_tests = 64;
  orf.tree.min_parent_size = 60;
  orf.lambda_neg = 0.05;
  eval::OrfReplay replay_a(original.feature_count(), orf, 5);
  eval::OrfReplay replay_b(loaded.feature_count(), orf, 5);
  replay_a.advance_all(samples_a);
  replay_b.advance_all(samples_b);
  EXPECT_EQ(replay_a.forest().samples_seen(),
            replay_b.forest().samples_seen());
  EXPECT_EQ(replay_a.forest().trees_replaced(),
            replay_b.forest().trees_replaced());
}

TEST(EndToEnd, OnlineLabelsAgreeWithOfflineLabelsOnCompletedDisks) {
  // For a finished observation window, the queue-based labeling reproduces
  // §4.4's offline rule: failed disks contribute exactly their last-week
  // samples as positives.
  datagen::FleetProfile profile = datagen::sta_profile(0.003);
  profile.duration_days = 6 * data::kDaysPerMonth;
  const auto dataset = datagen::generate_fleet(profile, 31);

  engine::FleetEngine predictor(dataset.feature_count(), predictor_params(),
                                23);
  eval::stream_fleet(dataset, predictor);

  const auto offline = data::label_offline_all(dataset);
  EXPECT_EQ(predictor.positives_released(),
            data::count_positive(offline));
}

}  // namespace
