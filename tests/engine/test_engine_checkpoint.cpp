// Checkpoint portability across shard counts: the engine serialises queues
// in canonical (ascending DiskId) order and re-shards on restore, so a
// deployment checkpointed under one shard layout must resume bit-identically
// under any other. Combined with stream_fleet_window's partition
// equivalence this covers the production restart-with-different-parallelism
// scenario end to end.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "datagen/fleet_generator.hpp"
#include "datagen/profile.hpp"
#include "engine/fleet_engine.hpp"
#include "eval/fleet_stream.hpp"

namespace {

engine::EngineParams monitor_params(std::size_t shards) {
  engine::EngineParams p;
  p.forest.n_trees = 8;
  p.forest.tree.n_tests = 64;
  p.forest.tree.min_parent_size = 60;
  p.forest.lambda_neg = 0.05;
  p.alarm_threshold = 0.5;
  p.shards = shards;
  return p;
}

data::Dataset small_fleet() {
  datagen::FleetProfile profile = datagen::sta_profile(0.003);
  profile.n_failed = 12;
  profile.duration_days = 8 * data::kDaysPerMonth;
  return datagen::generate_fleet(profile, 19);
}

std::string state_of(const engine::FleetEngine& predictor) {
  std::ostringstream os;
  predictor.save(os);
  return os.str();
}

/// Stream [0, cut) under `shards_before`, checkpoint, restore into a fresh
/// monitor with `shards_after`, stream [cut, end) on both, and demand the
/// final alarms + full serialized state agree.
void roundtrip_across_shards(std::size_t shards_before,
                             std::size_t shards_after) {
  const auto fleet = small_fleet();
  const data::Day cut = fleet.duration_days / 2;

  engine::FleetEngine original(fleet.feature_count(),
                               monitor_params(shards_before), 5);
  const auto head = eval::stream_fleet(fleet, original,
                                       {.from_day = 0, .to_day = cut});
  const std::string snapshot = state_of(original);

  engine::FleetEngine resumed(fleet.feature_count(),
                              monitor_params(shards_after), /*seed=*/0);
  {
    std::istringstream is(snapshot);
    resumed.restore(is);
  }
  EXPECT_EQ(resumed.tracked_disks(), original.tracked_disks());
  EXPECT_EQ(resumed.negatives_released(), original.negatives_released());
  EXPECT_EQ(resumed.positives_released(), original.positives_released());
  EXPECT_EQ(resumed.shard_count(), shards_after);

  const auto tail_original =
      eval::stream_fleet(fleet, original,
                         {.from_day = cut, .to_day = fleet.duration_days});
  const auto tail_resumed =
      eval::stream_fleet(fleet, resumed,
                         {.from_day = cut, .to_day = fleet.duration_days});

  EXPECT_EQ(tail_original.total_alarms, tail_resumed.total_alarms);
  EXPECT_EQ(tail_original.samples_processed, tail_resumed.samples_processed);
  ASSERT_EQ(tail_original.disks.size(), tail_resumed.disks.size());
  for (std::size_t i = 0; i < tail_original.disks.size(); ++i) {
    EXPECT_EQ(tail_original.disks[i].alarm_days,
              tail_resumed.disks[i].alarm_days)
        << "disk index " << i;
  }

  EXPECT_GT(head.samples_processed, 0u);
  EXPECT_EQ(state_of(original), state_of(resumed));
}

TEST(EngineCheckpoint, OneShardSavedRestoresIntoEightShards) {
  roundtrip_across_shards(1, 8);
}

TEST(EngineCheckpoint, EightShardsSavedRestoresIntoOneShard) {
  roundtrip_across_shards(8, 1);
}

TEST(EngineCheckpoint, RestoreRejectsMismatchedShape) {
  const auto fleet = small_fleet();
  engine::FleetEngine predictor(fleet.feature_count(), monitor_params(2), 5);
  eval::stream_fleet(fleet, predictor, {.from_day = 0, .to_day = 30});
  const std::string snapshot = state_of(predictor);

  auto params = monitor_params(2);
  params.queue_capacity = 3;  // horizon mismatch must be caught
  engine::FleetEngine other(fleet.feature_count(), params, 5);
  std::istringstream is(snapshot);
  EXPECT_THROW(other.restore(is), std::runtime_error);
}

TEST(EngineCheckpoint, CountersSurviveRoundTrip) {
  const auto fleet = small_fleet();
  engine::FleetEngine predictor(fleet.feature_count(), monitor_params(4), 5);
  eval::stream_fleet(fleet, predictor);
  ASSERT_GT(predictor.negatives_released(), 0u);
  ASSERT_GT(predictor.positives_released(), 0u);

  engine::FleetEngine resumed(fleet.feature_count(), monitor_params(4), 0);
  std::istringstream is(state_of(predictor));
  resumed.restore(is);
  EXPECT_EQ(resumed.negatives_released(), predictor.negatives_released());
  EXPECT_EQ(resumed.positives_released(), predictor.positives_released());
}

}  // namespace
