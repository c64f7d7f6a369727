// orf::ReplaySpec — the redesigned history-consumption seam. Window
// resolution and its edge cases (empty window, inverted, past the committed
// end, below the retention floor, floor exactly at the window start),
// override handling (Service::replay rejects them; run_replay builds the
// retuned cell), the honored checkpoint cadence, cold-start backfill
// equivalence, and store-path/reader equivalence.
#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include "engine/batch.hpp"
#include "orf/service.hpp"
#include "robust/recovery.hpp"
#include "tsdb/reader.hpp"
#include "tsdb/writer.hpp"

namespace {

namespace fs = std::filesystem;

constexpr std::size_t kFeatures = 4;
constexpr std::size_t kDisks = 5;
constexpr data::Day kDays = 9;

orf::Config base_config() {
  orf::Config config;
  config.forest.n_trees = 5;
  config.forest.tree.n_tests = 16;
  config.engine.shards = 2;
  return config;
}

std::vector<engine::DiskReport> make_batch(
    data::Day day, std::vector<std::vector<float>>& storage) {
  storage.assign(kDisks, {});
  std::vector<engine::DiskReport> reports;
  reports.reserve(kDisks);
  for (std::size_t d = 0; d < kDisks; ++d) {
    storage[d].reserve(kFeatures);
    for (std::size_t f = 0; f < kFeatures; ++f) {
      storage[d].push_back(0.1f * static_cast<float>(day + 1) *
                           static_cast<float>(f + d + 1));
    }
    reports.push_back(engine::DiskReport{
        .disk = static_cast<data::DiskId>(d), .features = storage[d]});
  }
  return reports;
}

std::string state_of(const orf::Service& service) {
  std::ostringstream os;
  service.save(os);
  return os.str();
}

class ReplaySpecTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("orf_replay_spec_" + std::string(::testing::UnitTest::GetInstance()
                                                 ->current_test_info()
                                                 ->name()));
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string tsdb_dir() const { return (dir_ / "tsdb").string(); }

  /// Live-captures kDays through a teeing service; returns its final state.
  std::string capture_live() {
    orf::Config config = base_config();
    config.tsdb.directory = tsdb_dir();
    orf::Service live(kFeatures, config);
    std::vector<std::vector<float>> storage;
    std::vector<engine::DayOutcome> outcomes;
    for (data::Day day = 0; day < kDays; ++day) {
      const auto batch = make_batch(day, storage);
      live.ingest(batch, outcomes);
    }
    live.tsdb_flush();
    return state_of(live);
  }

  /// A store whose replay floor sits above its first day: three blocks of
  /// three days each under retain_days=3 leave floor at day 6.
  data::Day build_floored_store() {
    tsdb::Writer writer({.directory = tsdb_dir(),
                         .feature_count = kFeatures,
                         .retain_days = 3});
    std::vector<std::vector<float>> storage;
    std::vector<tsdb::RowView> rows;
    for (data::Day day = 0; day < kDays; ++day) {
      const auto batch = make_batch(day, storage);
      rows.clear();
      for (const engine::DiskReport& report : batch) {
        rows.push_back(tsdb::RowView{.disk = report.disk,
                                     .fate = 0,
                                     .features = report.features});
      }
      writer.append_day(day, rows);
      if ((day + 1) % 3 == 0) writer.flush();
    }
    writer.flush();
    return writer.floor_day();
  }

  fs::path dir_;
};

TEST_F(ReplaySpecTest, EmptyWindowIsANoOp) {
  capture_live();
  orf::Service service(kFeatures, base_config());
  const std::string fresh = state_of(service);

  orf::ReplaySpec spec;
  spec.store = tsdb_dir();
  spec.from_day = 4;
  spec.to_day = 4;
  const orf::Service::ReplayStats stats = service.replay(spec);
  EXPECT_EQ(stats.days, 0);
  EXPECT_EQ(stats.rows, 0u);
  EXPECT_EQ(service.next_day(), 0);
  EXPECT_EQ(state_of(service), fresh);
}

TEST_F(ReplaySpecTest, MalformedWindowsThrowBeforeTouchingState) {
  capture_live();
  orf::Service service(kFeatures, base_config());
  const std::string fresh = state_of(service);
  orf::ReplaySpec spec;
  spec.store = tsdb_dir();

  spec.from_day = 5;
  spec.to_day = 2;  // inverted
  EXPECT_THROW(service.replay(spec), orf::ReplayError);

  spec.from_day.reset();
  spec.to_day = kDays + 1;  // past the committed end
  EXPECT_THROW(service.replay(spec), orf::ReplayError);

  EXPECT_EQ(state_of(service), fresh);
}

TEST_F(ReplaySpecTest, RetentionFloorBoundsTheWindow) {
  const data::Day floor = build_floored_store();
  ASSERT_GT(floor, 0);

  orf::Service below(kFeatures, base_config());
  orf::ReplaySpec spec;
  spec.store = tsdb_dir();
  spec.from_day = floor - 1;  // retired day: no longer guaranteed complete
  EXPECT_THROW(below.replay(spec), orf::ReplayError);

  // The edge case: a window starting exactly at the floor replays.
  orf::Service at_floor(kFeatures, base_config());
  spec.from_day = floor;
  const orf::Service::ReplayStats stats = at_floor.replay(spec);
  EXPECT_EQ(stats.from_day, floor);
  EXPECT_EQ(stats.to_day, kDays);
  EXPECT_EQ(stats.rows, static_cast<std::uint64_t>(kDays - floor) * kDisks);

  // An empty window below the floor is still a no-op, not an error.
  orf::Service empty(kFeatures, base_config());
  spec.from_day = 0;
  spec.to_day = 0;
  EXPECT_EQ(empty.replay(spec).days, 0);

  // Backfill's default window starts at the floor, not at day 0.
  orf::Service cold(kFeatures, base_config());
  orf::ReplaySpec backfill_spec;
  backfill_spec.store = tsdb_dir();
  const orf::Service::ReplayStats backfill =
      cold.backfill_from_history(backfill_spec);
  EXPECT_EQ(backfill.from_day, floor);
  EXPECT_EQ(state_of(cold), state_of(at_floor));
}

TEST_F(ReplaySpecTest, ServiceReplayRejectsOverrides) {
  capture_live();
  orf::Service service(kFeatures, base_config());
  orf::ReplaySpec spec;
  spec.store = tsdb_dir();
  spec.overrides.set("lambda-pos", "0.5");
  try {
    service.replay(spec);
    FAIL() << "expected ReplayError";
  } catch (const orf::ReplayError& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("lambda-pos=0.5"), std::string::npos) << what;
    EXPECT_NE(what.find("run_replay"), std::string::npos)
        << "the error should point at the consumer that can apply them: "
        << what;
  }
}

TEST_F(ReplaySpecTest, RunReplayBuildsTheRetunedCell) {
  const std::string live_state = capture_live();
  orf::Config base = base_config();
  base.tsdb.directory = tsdb_dir();  // run_replay's store fallback

  // The baseline cell (no overrides) reproduces the live run bit-for-bit.
  orf::ReplayRun baseline = orf::run_replay(kFeatures, base, {});
  EXPECT_EQ(baseline.stats.to_day, kDays);
  EXPECT_EQ(state_of(*baseline.service), live_state);
  // The cell never recaptures into the store it read.
  EXPECT_FALSE(baseline.service->tsdb_enabled());

  // A retuned cell diverges — the override reached the engine.
  orf::ReplaySpec retuned;
  retuned.overrides.set("seed", "99");
  orf::ReplayRun cell = orf::run_replay(kFeatures, base, std::move(retuned));
  EXPECT_EQ(cell.stats.rows, baseline.stats.rows);
  EXPECT_NE(state_of(*cell.service), live_state);
}

TEST_F(ReplaySpecTest, CheckpointCadenceIsHonoredDuringReplay) {
  capture_live();

  orf::Config config = base_config();
  config.robust.checkpoint_dir = (dir_ / "ckpt").string();
  config.robust.wal = false;
  orf::Service service(kFeatures, config);
  orf::ReplaySpec spec;
  spec.store = tsdb_dir();
  spec.checkpoint_every = 3;
  const orf::Service::ReplayStats stats = service.replay(spec);
  // kDays=9: snapshots after days 2, 5, 8 — the same absolute cadence a
  // live run with --checkpoint-every 3 writes.
  EXPECT_EQ(stats.checkpoints, 3u);
  robust::RecoveryManager recovery({.directory = config.robust.checkpoint_dir,
                                    .prefix = "orf-service"});
  EXPECT_EQ(recovery.list().size(), 3u);

  // Without a checkpoint directory the cadence cannot be served — loud
  // error, not the old silent ignore.
  orf::Service undurable(kFeatures, base_config());
  EXPECT_THROW(undurable.replay(spec), orf::ReplayError);
}

TEST_F(ReplaySpecTest, BackfillMatchesTheLiveRunAndRequiresAColdService) {
  const std::string live_state = capture_live();

  orf::Config config = base_config();
  config.tsdb.directory = tsdb_dir();  // the orfd wiring: config's own store
  orf::Service cold(kFeatures, config);
  const orf::Service::ReplayStats stats =
      cold.backfill_from_history(orf::ReplaySpec{});
  EXPECT_EQ(stats.to_day, kDays);
  EXPECT_EQ(state_of(cold), live_state) << "backfill must equal live training";

  // Warm services must refuse: a backfill on top of ingested state would
  // double-train.
  EXPECT_THROW(cold.backfill_from_history(orf::ReplaySpec{}),
               orf::ReplayError);
}

TEST_F(ReplaySpecTest, StorePathAndBorrowedReaderAreEquivalent) {
  capture_live();

  orf::Service by_path(kFeatures, base_config());
  orf::ReplaySpec path_spec;
  path_spec.store = tsdb_dir();
  by_path.replay(path_spec);

  tsdb::Reader reader(tsdb_dir());
  orf::Service by_reader(kFeatures, base_config());
  orf::ReplaySpec reader_spec;
  reader_spec.reader = &reader;
  by_reader.replay(reader_spec);

  EXPECT_EQ(state_of(by_path), state_of(by_reader));

  // Both at once is ambiguous.
  orf::ReplaySpec both;
  both.store = tsdb_dir();
  both.reader = &reader;
  orf::Service confused(kFeatures, base_config());
  EXPECT_THROW(confused.replay(both), orf::ReplayError);

  // Neither, and no configured tsdb.directory: nowhere to read from.
  orf::Service storeless(kFeatures, base_config());
  EXPECT_THROW(storeless.replay(orf::ReplaySpec{}), orf::ReplayError);
}

TEST_F(ReplaySpecTest, ProgressAndDayCallbacksSeeEveryDay) {
  capture_live();
  orf::Service service(kFeatures, base_config());
  orf::ReplaySpec spec;
  spec.store = tsdb_dir();
  std::vector<data::Day> days;
  spec.on_day = [&days](data::Day day, std::span<const engine::DiskReport>,
                        std::span<const engine::DayOutcome> outcomes) {
    days.push_back(day);
    EXPECT_EQ(outcomes.size(), kDisks);
  };
  orf::ReplayProgress last;
  spec.on_progress = [&last](const orf::ReplayProgress& progress) {
    last = progress;
  };
  const orf::Service::ReplayStats stats = service.replay(spec);
  EXPECT_EQ(days.size(), static_cast<std::size_t>(kDays));
  EXPECT_EQ(days.front(), 0);
  EXPECT_EQ(days.back(), kDays - 1);
  EXPECT_EQ(last.day, kDays - 1);
  EXPECT_EQ(last.rows, stats.rows);
  EXPECT_EQ(last.alarms, stats.alarms);
}

}  // namespace
