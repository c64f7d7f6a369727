// Generic conformance suite over every registered model backend.
//
// The ModelBackend contract (engine/model_backend.hpp) — learn_batch
// bit-identical to sequential updates for any pool, shard-count-invariant
// engine results, complete-state checkpoints portable across shard counts —
// is what the engine's determinism and resume guarantees lean on, so each
// property here runs for each backend the factory knows, via
// engine::registered_backends(). A new backend gets this suite for free the
// moment it is registered.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "datagen/fleet_generator.hpp"
#include "datagen/profile.hpp"
#include "engine/fleet_engine.hpp"
#include "engine/model_backend.hpp"
#include "eval/fleet_stream.hpp"
#include "robust/errors.hpp"
#include "util/thread_pool.hpp"

namespace {

engine::EngineParams backend_params(const std::string& backend,
                                    std::size_t shards) {
  engine::EngineParams p;
  p.backend = backend;
  p.forest.n_trees = 8;
  p.forest.tree.n_tests = 64;
  p.forest.tree.min_parent_size = 60;
  p.forest.lambda_neg = 0.05;
  p.mondrian.n_trees = 8;
  p.mondrian.lambda_neg = 0.05;
  p.shards = shards;
  return p;
}

data::Dataset small_fleet() {
  datagen::FleetProfile profile = datagen::sta_profile(0.003);
  profile.n_failed = 12;
  profile.duration_days = 6 * data::kDaysPerMonth;
  return datagen::generate_fleet(profile, 19);
}

std::string engine_state(const engine::FleetEngine& engine) {
  std::ostringstream os;
  engine.save(os);
  return os.str();
}

struct StreamRun {
  eval::FleetStreamResult result;
  std::string state;
};

StreamRun run_stream(const std::string& backend, const data::Dataset& fleet,
                     std::size_t shards, util::ThreadPool* pool) {
  engine::FleetEngine engine(fleet.feature_count(),
                             backend_params(backend, shards), /*seed=*/5);
  StreamRun run;
  run.result = eval::stream_fleet(fleet, engine, {.pool = pool});
  run.state = engine_state(engine);
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

class BackendConformance : public ::testing::TestWithParam<std::string> {};

TEST_P(BackendConformance, StreamFleetPooledMatchesSequential) {
  const auto fleet = small_fleet();
  util::ThreadPool pool(4);
  expect_identical(run_stream(GetParam(), fleet, /*shards=*/4, nullptr),
                   run_stream(GetParam(), fleet, /*shards=*/4, &pool));
}

TEST_P(BackendConformance, ResultsInvariantToShardCount) {
  const auto fleet = small_fleet();
  util::ThreadPool pool(4);
  const auto one = run_stream(GetParam(), fleet, /*shards=*/1, &pool);
  expect_identical(one, run_stream(GetParam(), fleet, /*shards=*/3, &pool));
  expect_identical(one, run_stream(GetParam(), fleet, /*shards=*/8, nullptr));
}

// Checkpoint at mid-deployment, restore into an engine with a different
// shard count, finish the stream on both: bit-identical final states. This
// is the resume path of a real deployment plus the shard-portability
// guarantee in one property.
TEST_P(BackendConformance, MidStreamCheckpointIsShardPortable) {
  const auto fleet = small_fleet();
  const data::Day half = fleet.duration_days / 2;
  util::ThreadPool pool(4);

  engine::FleetEngine uninterrupted(fleet.feature_count(),
                                    backend_params(GetParam(), 4), 5);
  eval::stream_fleet(fleet, uninterrupted, {.to_day = half, .pool = &pool});
  const std::string snapshot = engine_state(uninterrupted);
  eval::stream_fleet(fleet, uninterrupted, {.from_day = half, .pool = &pool});

  engine::FleetEngine resumed(fleet.feature_count(),
                              backend_params(GetParam(), 2), 5);
  std::istringstream is(snapshot);
  resumed.restore(is);
  eval::stream_fleet(fleet, resumed, {.from_day = half, .pool = nullptr});

  EXPECT_EQ(engine_state(uninterrupted), engine_state(resumed));
}

TEST_P(BackendConformance, CheckpointHeaderRecordsBackendName) {
  engine::FleetEngine engine(4, backend_params(GetParam(), 2), 7);
  EXPECT_NE(engine_state(engine).find("backend=" + GetParam()),
            std::string::npos);
  EXPECT_EQ(engine.backend_name(), GetParam());
}

TEST_P(BackendConformance, RestoreIntoDifferentBackendThrows) {
  engine::FleetEngine writer(4, backend_params(GetParam(), 2), 7);
  for (const std::string& other : engine::registered_backends()) {
    if (other == GetParam()) continue;
    engine::FleetEngine reader(4, backend_params(other, 2), 7);
    std::istringstream is(engine_state(writer));
    EXPECT_THROW(reader.restore(is), std::runtime_error) << other;
  }
}

// prepare_day_scoring() lets a backend opt into a batch scoring kernel for
// large day batches; the contract says engaging it never changes a result.
// Streaming with the knob forced off (every backend then answers false and
// the engine takes the per-sample reference path) must be bit-identical to
// the default.
TEST_P(BackendConformance, BatchScoringPathMatchesReferencePath) {
  const auto fleet = small_fleet();
  util::ThreadPool pool(4);

  engine::EngineParams reference = backend_params(GetParam(), 4);
  reference.flat_scoring = false;
  engine::FleetEngine ref_engine(fleet.feature_count(), reference, 5);
  StreamRun ref_run;
  ref_run.result = eval::stream_fleet(fleet, ref_engine, {.pool = &pool});
  ref_run.state = engine_state(ref_engine);

  expect_identical(run_stream(GetParam(), fleet, /*shards=*/4, &pool),
                   ref_run);
}

TEST_P(BackendConformance, QuiesceThenScoreBatchMatchesScoreOne) {
  const auto fleet = small_fleet();
  engine::FleetEngine engine(fleet.feature_count(),
                             backend_params(GetParam(), 2), 5);
  eval::stream_fleet(fleet, engine,
                     {.to_day = static_cast<data::Day>(40), .pool = nullptr});
  engine.backend().quiesce();

  const std::size_t features = engine.feature_count();
  std::vector<float> rows;
  std::vector<double> one_by_one;
  std::vector<float> scaled;
  for (std::size_t d = 0; d < 20 && d < fleet.disks.size(); ++d) {
    const data::Snapshot& snap = fleet.disks[d].snapshots.front();
    engine.scaler().transform(snap.features, scaled);
    rows.insert(rows.end(), scaled.begin(), scaled.end());
    one_by_one.push_back(engine.backend().score_one(scaled));
  }
  std::vector<double> batched(one_by_one.size());
  engine.backend().score_batch(rows, batched);
  ASSERT_EQ(rows.size(), batched.size() * features);
  for (std::size_t i = 0; i < batched.size(); ++i) {
    EXPECT_EQ(batched[i], one_by_one[i]) << "row " << i;
  }
}

TEST_P(BackendConformance, MetricsBindAndPublishThroughTheEngine) {
  engine::FleetEngine engine(4, backend_params(GetParam(), 2), 7);
  const obs::Snapshot snapshot = engine.metrics_snapshot();
  bool info_found = false;
  for (const auto& gauge : snapshot.gauges) {
    if (gauge.id.name != "orf_backend_info") continue;
    info_found = true;
    EXPECT_EQ(gauge.value, 1.0);
    ASSERT_FALSE(gauge.id.labels.empty());
    EXPECT_EQ(gauge.id.labels.front().second, GetParam());
  }
  EXPECT_TRUE(info_found);
}

INSTANTIATE_TEST_SUITE_P(
    backends, BackendConformance,
    ::testing::ValuesIn(engine::registered_backends()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      return info.param;
    });

// ---- factory behavior (not per-backend) ------------------------------------

TEST(BackendFactory, BuiltInsAreRegistered) {
  EXPECT_TRUE(engine::backend_registered("orf"));
  EXPECT_TRUE(engine::backend_registered("mondrian"));
  EXPECT_FALSE(engine::backend_registered("amf"));
  const auto names = engine::registered_backends();
  EXPECT_GE(names.size(), 2u);
}

TEST(BackendFactory, UnknownNameThrowsListingKnownBackends) {
  engine::EngineParams params;
  try {
    engine::make_backend("no-such-model", 4, params, 1);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("no-such-model"), std::string::npos);
    EXPECT_NE(what.find("orf"), std::string::npos);
    EXPECT_NE(what.find("mondrian"), std::string::npos);
  }
}

TEST(BackendFactory, UnknownNameSurfacesThroughEngineConstructor) {
  engine::EngineParams params;
  params.backend = "no-such-model";
  EXPECT_THROW(engine::FleetEngine(4, params, 1), std::invalid_argument);
}

TEST(BackendFactory, DuplicateAndEmptyRegistrationsThrow) {
  EXPECT_THROW(engine::register_backend("orf", nullptr),
               std::invalid_argument);
  EXPECT_THROW(
      engine::register_backend(
          "orf",
          [](std::size_t, const engine::EngineParams&,
             std::uint64_t) -> std::unique_ptr<engine::ModelBackend> {
            return nullptr;
          }),
      std::invalid_argument);
  EXPECT_THROW(
      engine::register_backend(
          "",
          [](std::size_t, const engine::EngineParams&,
             std::uint64_t) -> std::unique_ptr<engine::ModelBackend> {
            return nullptr;
          }),
      std::invalid_argument);
}

// Checkpoints from before the backend= header field have no record of the
// model that wrote them; every backend refuses them with a typed error
// instead of guessing.
TEST(BackendCheckpointCompat, LegacyHeaderWithoutBackendIsRejected) {
  const auto fleet = small_fleet();
  engine::FleetEngine writer(fleet.feature_count(), backend_params("orf", 2),
                             5);
  eval::stream_fleet(fleet, writer,
                     {.to_day = static_cast<data::Day>(45), .pool = nullptr});
  std::string snapshot = engine_state(writer);
  const std::string backend_line = "backend=orf\n";
  const std::size_t at = snapshot.find(backend_line);
  ASSERT_NE(at, std::string::npos);
  snapshot.erase(at, backend_line.size());  // forge a pre-seam checkpoint

  for (const char* backend : {"orf", "mondrian"}) {
    engine::FleetEngine reader(fleet.feature_count(),
                               backend_params(backend, 3), 5);
    std::istringstream is(snapshot);
    EXPECT_THROW(reader.restore(is), robust::CorruptCheckpoint) << backend;
  }
}

TEST(BackendCheckpointCompat, GarbageHeaderTokenThrows) {
  engine::FleetEngine engine(4, backend_params("orf", 2), 7);
  std::istringstream is("fleet-engine-state v1\nbananas 7 0 0\n");
  EXPECT_THROW(engine.restore(is), std::runtime_error);
}

}  // namespace
