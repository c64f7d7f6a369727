// The engine's determinism contract (see engine/fleet_engine.hpp): for a
// fixed seed, results are bit-identical with or without a thread pool and
// for any shard count. Verified on the full serialized state — forest
// structure, RNG streams, scaler ranges and queues all have to match, not
// just the headline metrics.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "data/labeling.hpp"
#include "datagen/fleet_generator.hpp"
#include "datagen/profile.hpp"
#include "engine/fleet_engine.hpp"
#include "eval/fleet_stream.hpp"
#include "eval/replay.hpp"
#include "util/thread_pool.hpp"

namespace {

engine::EngineParams stream_params(std::size_t shards) {
  engine::EngineParams p;
  p.forest.n_trees = 8;
  p.forest.tree.n_tests = 64;
  p.forest.tree.min_parent_size = 60;
  p.forest.lambda_neg = 0.05;
  p.alarm_threshold = 0.5;
  p.shards = shards;
  return p;
}

std::string engine_state(const engine::FleetEngine& predictor) {
  std::ostringstream os;
  predictor.save(os);
  return os.str();
}

struct StreamRun {
  eval::FleetStreamResult result;
  std::string state;
};

StreamRun run_stream(const data::Dataset& fleet, std::size_t shards,
                     util::ThreadPool* pool) {
  engine::FleetEngine predictor(fleet.feature_count(), stream_params(shards),
                                /*seed=*/5);
  StreamRun run;
  run.result = eval::stream_fleet(fleet, predictor, {.pool = pool});
  run.state = engine_state(predictor);
  return run;
}

void expect_identical(const StreamRun& a, const StreamRun& b) {
  EXPECT_EQ(a.result.total_alarms, b.result.total_alarms);
  EXPECT_EQ(a.result.samples_processed, b.result.samples_processed);
  ASSERT_EQ(a.result.disks.size(), b.result.disks.size());
  for (std::size_t i = 0; i < a.result.disks.size(); ++i) {
    EXPECT_EQ(a.result.disks[i].alarm_days, b.result.disks[i].alarm_days)
        << "disk index " << i;
  }
  EXPECT_EQ(a.state, b.state);
}

data::Dataset sta_fleet() {
  datagen::FleetProfile profile = datagen::sta_profile(0.003);
  profile.n_failed = 12;
  profile.duration_days = 8 * data::kDaysPerMonth;
  return datagen::generate_fleet(profile, 19);
}

data::Dataset stb_fleet() {
  datagen::FleetProfile profile = datagen::stb_profile(0.01);
  profile.duration_days = 8 * data::kDaysPerMonth;
  return datagen::generate_fleet(profile, 23);
}

TEST(EngineDeterminism, StreamFleetPooledMatchesSequentialSta) {
  const auto fleet = sta_fleet();
  util::ThreadPool pool(4);
  expect_identical(run_stream(fleet, /*shards=*/4, nullptr),
                   run_stream(fleet, /*shards=*/4, &pool));
}

TEST(EngineDeterminism, StreamFleetPooledMatchesSequentialStb) {
  const auto fleet = stb_fleet();
  util::ThreadPool pool(4);
  expect_identical(run_stream(fleet, /*shards=*/4, nullptr),
                   run_stream(fleet, /*shards=*/4, &pool));
}

TEST(EngineDeterminism, ResultsInvariantToShardCount) {
  const auto fleet = sta_fleet();
  util::ThreadPool pool(4);
  const auto one = run_stream(fleet, /*shards=*/1, &pool);
  expect_identical(one, run_stream(fleet, /*shards=*/3, &pool));
  expect_identical(one, run_stream(fleet, /*shards=*/8, nullptr));
}

TEST(EngineDeterminism, ReplayPooledMatchesSequential) {
  const auto fleet = sta_fleet();
  auto samples = data::label_offline_all(fleet);
  data::sort_by_time(samples);

  core::OnlineForestParams params;
  params.n_trees = 8;
  params.tree.n_tests = 64;
  params.tree.min_parent_size = 60;
  params.lambda_neg = 0.05;

  eval::OrfReplay sequential(fleet.feature_count(), params, 7);
  eval::OrfReplay pooled(fleet.feature_count(), params, 7);
  util::ThreadPool pool(4);

  // Incremental windows exercise consume()'s cursor resumption too.
  for (data::Day cut : {60, 150, fleet.duration_days}) {
    sequential.advance_until(samples, cut, nullptr);
    pooled.advance_until(samples, cut, &pool);
    EXPECT_EQ(sequential.consumed(), pooled.consumed());
  }
  EXPECT_EQ(sequential.forest().samples_seen(),
            pooled.forest().samples_seen());

  std::ostringstream a;
  std::ostringstream b;
  sequential.forest().save(a);
  pooled.forest().save(b);
  EXPECT_EQ(a.str(), b.str());
}

}  // namespace
