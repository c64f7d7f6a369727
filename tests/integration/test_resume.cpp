// Restart-resilience integration: a deployment that checkpoints mid-stream,
// dies, and restores into a fresh process must be indistinguishable from one
// that never restarted — even when the death happens *inside* a checkpoint
// save (at any writer stage), and even when the stream carries dirty
// telemetry.
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <limits>
#include <sstream>
#include <string>

#include "datagen/fleet_generator.hpp"
#include "datagen/profile.hpp"
#include "engine/fleet_engine.hpp"
#include "eval/fleet_stream.hpp"
#include "robust/checkpoint_io.hpp"
#include "robust/failpoint.hpp"
#include "robust/recovery.hpp"

namespace {

engine::EngineParams params() {
  engine::EngineParams p;
  p.forest.n_trees = 8;
  p.forest.tree.n_tests = 64;
  p.forest.tree.min_parent_size = 60;
  p.forest.lambda_neg = 0.05;
  p.alarm_threshold = 0.5;
  return p;
}

data::Dataset fleet() {
  datagen::FleetProfile profile = datagen::sta_profile(0.003);
  profile.n_failed = 15;
  profile.duration_days = 8 * data::kDaysPerMonth;
  return datagen::generate_fleet(profile, 23);
}

TEST(Resume, WindowedStreamingEqualsOneShot) {
  const auto dataset = fleet();
  engine::FleetEngine continuous(dataset.feature_count(), params(), 5);
  const auto full = eval::stream_fleet(dataset, continuous);

  engine::FleetEngine windowed(dataset.feature_count(), params(), 5);
  const data::Day mid = dataset.duration_days / 2;
  const auto first = eval::stream_fleet(dataset, windowed,
                                        {.from_day = 0, .to_day = mid});
  const auto second =
      eval::stream_fleet(dataset, windowed,
                         {.from_day = mid, .to_day = dataset.duration_days});

  EXPECT_EQ(first.samples_processed + second.samples_processed,
            full.samples_processed);
  EXPECT_EQ(first.total_alarms + second.total_alarms, full.total_alarms);
  EXPECT_EQ(windowed.positives_released(), continuous.positives_released());
  EXPECT_EQ(windowed.negatives_released(), continuous.negatives_released());
  // Per-disk alarm records concatenate exactly.
  for (std::size_t i = 0; i < full.disks.size(); ++i) {
    auto combined = first.disks[i].alarm_days;
    combined.insert(combined.end(), second.disks[i].alarm_days.begin(),
                    second.disks[i].alarm_days.end());
    EXPECT_EQ(combined, full.disks[i].alarm_days) << "disk " << i;
  }
}

TEST(Resume, CheckpointRestartMatchesUninterruptedRun) {
  const auto dataset = fleet();
  engine::FleetEngine continuous(dataset.feature_count(), params(), 5);
  const auto full = eval::stream_fleet(dataset, continuous);

  // Process A runs the first half, checkpoints, and "crashes".
  engine::FleetEngine process_a(dataset.feature_count(), params(), 5);
  const data::Day mid = dataset.duration_days / 2;
  const auto first = eval::stream_fleet(dataset, process_a,
                                        {.from_day = 0, .to_day = mid});
  std::stringstream checkpoint;
  process_a.save(checkpoint);

  // Process B starts fresh (different seed!), restores, and finishes.
  engine::FleetEngine process_b(dataset.feature_count(), params(), 987654);
  process_b.restore(checkpoint);
  const auto second =
      eval::stream_fleet(dataset, process_b,
                         {.from_day = mid, .to_day = dataset.duration_days});

  EXPECT_EQ(first.total_alarms + second.total_alarms, full.total_alarms);
  EXPECT_EQ(process_b.positives_released(),
            continuous.positives_released());
  EXPECT_EQ(process_b.negatives_released(),
            continuous.negatives_released());
  for (std::size_t i = 0; i < full.disks.size(); ++i) {
    auto combined = first.disks[i].alarm_days;
    combined.insert(combined.end(), second.disks[i].alarm_days.begin(),
                    second.disks[i].alarm_days.end());
    EXPECT_EQ(combined, full.disks[i].alarm_days) << "disk " << i;
  }
  // Final model state is identical too.
  const auto& probe = dataset.disks.front().snapshots.front().features;
  EXPECT_DOUBLE_EQ(process_b.score(probe), continuous.score(probe));
}

std::string snapshot_of(const engine::FleetEngine& predictor,
                        data::Day next_day) {
  std::ostringstream payload;
  payload << "day " << next_day << "\n";
  predictor.save(payload);
  return payload.str();
}

data::Day restore_from(engine::FleetEngine& predictor,
                       const std::string& payload) {
  std::istringstream is(payload);
  std::string keyword;
  data::Day day = 0;
  is >> keyword >> day;
  is.ignore(1, '\n');
  EXPECT_EQ(keyword, "day");
  predictor.restore(is);
  return day;
}

TEST(Resume, KillDuringSaveAtEverySiteStillResumesBitIdentical) {
  // Crash a checkpoint save at every writer failpoint in turn. Whatever the
  // crash point, the recovery directory must yield an intact snapshot whose
  // replay finishes bit-identical to the run that never crashed: pre-rename
  // crashes resume from the older snapshot (more replay), post-rename ones
  // from the newer.
  const auto dataset = fleet();
  engine::FleetEngine continuous(dataset.feature_count(), params(), 5);
  const auto full = eval::stream_fleet(dataset, continuous);
  std::ostringstream final_state;
  continuous.save(final_state);

  const data::Day cut1 = dataset.duration_days / 3;
  const data::Day cut2 = 2 * cut1;
  const auto base = std::filesystem::temp_directory_path() / "orf_kill_save";

  for (const char* site : robust::checkpoint_failpoint_sites()) {
    SCOPED_TRACE(site);
    std::filesystem::remove_all(base);
    robust::RecoveryManager recovery({base.string(), "monitor", 3});

    // Process A: stream to cut1, checkpoint cleanly, stream to cut2, then
    // die inside the second checkpoint save.
    engine::FleetEngine process_a(dataset.feature_count(), params(), 5);
    eval::stream_fleet(dataset, process_a, {.from_day = 0, .to_day = cut1});
    recovery.save({snapshot_of(process_a, cut1)});
    eval::stream_fleet(dataset, process_a, {.from_day = cut1, .to_day = cut2});
    robust::failpoints::arm(site, {robust::FaultKind::kIoError});
    EXPECT_THROW(recovery.save({snapshot_of(process_a, cut2)}),
                 robust::InjectedFault);
    robust::failpoints::disarm_all();

    // Process B: recover from whatever the directory holds and replay the
    // rest of the deployment.
    engine::FleetEngine process_b(dataset.feature_count(), params(), 424242);
    const auto loaded = recovery.load_latest();
    ASSERT_TRUE(loaded.has_value());
    const data::Day resume_day = restore_from(process_b, loaded->payload);
    EXPECT_TRUE(resume_day == cut1 || resume_day == cut2);
    eval::stream_fleet(
        dataset, process_b,
        {.from_day = resume_day, .to_day = dataset.duration_days});

    std::ostringstream resumed_state;
    process_b.save(resumed_state);
    EXPECT_EQ(resumed_state.str(), final_state.str());
    EXPECT_EQ(process_b.positives_released(),
              continuous.positives_released());
    EXPECT_EQ(process_b.negatives_released(),
              continuous.negatives_released());
  }
  std::filesystem::remove_all(base);
}

TEST(Resume, DirtyStreamLeavesAccuracyUntouched) {
  // The acceptance property for the quarantine layer: a fleet stream with
  // ~2% injected dirty reports (junk disks emitting non-finite SMART
  // vectors) under the skip policy ends with the same model, the same
  // per-disk alarm record — hence identical FDR/FAR — and every injected
  // row accounted for in orf_ingest_rejected_total.
  const auto clean = fleet();

  auto dirty = clean;
  std::size_t injected = 0;
  const std::size_t stride = 50;  // 1 junk report per 50 clean ones ≈ 2%
  std::size_t countdown = stride;
  for (const auto& disk : clean.disks) {
    for (const auto& snap : disk.snapshots) {
      if (--countdown > 0) continue;
      countdown = stride;
      data::DiskHistory junk;
      junk.id = static_cast<data::DiskId>(dirty.disks.size());
      junk.serial = "JUNK-" + std::to_string(injected);
      junk.first_day = junk.last_day = snap.day;
      junk.failed = false;
      data::Snapshot bad = snap;
      bad.features.assign(bad.features.size(),
                          std::numeric_limits<float>::quiet_NaN());
      junk.snapshots.push_back(std::move(bad));
      dirty.disks.push_back(std::move(junk));
      ++injected;
    }
  }
  ASSERT_GT(injected, 10u);

  engine::EngineParams strict = params();
  engine::FleetEngine clean_monitor(clean.feature_count(), strict, 5);
  const auto clean_result = eval::stream_fleet(clean, clean_monitor);

  engine::EngineParams lenient = params();
  lenient.ingest_errors = robust::RowErrorPolicy::kSkip;
  engine::FleetEngine dirty_monitor(dirty.feature_count(), lenient, 5);
  const auto dirty_result = eval::stream_fleet(dirty, dirty_monitor);

  // Every injected row was rejected, nothing else.
  EXPECT_EQ(dirty_result.samples_rejected, injected);
  EXPECT_EQ(dirty_result.samples_processed,
            clean_result.samples_processed + injected);
  double rejected_total = 0;
  for (const auto& counter :
       dirty_monitor.metrics_snapshot().counters) {
    if (counter.id.name == "orf_ingest_rejected_total") {
      rejected_total += counter.value;
    }
  }
  EXPECT_EQ(rejected_total, static_cast<double>(injected));

  // The original disks' alarm records are bit-identical, so FDR/FAR over
  // the real fleet are unchanged.
  for (std::size_t i = 0; i < clean.disks.size(); ++i) {
    EXPECT_EQ(dirty_result.disks[i].alarm_days, clean_result.disks[i].alarm_days)
        << "disk " << i;
  }
  auto comparable = dirty_result;
  comparable.disks.resize(clean.disks.size());
  const auto clean_metrics = clean_result.metrics();
  const auto dirty_metrics = comparable.metrics();
  EXPECT_EQ(dirty_metrics.fdr, clean_metrics.fdr);
  EXPECT_EQ(dirty_metrics.far, clean_metrics.far);
  EXPECT_EQ(dirty_metrics.true_positives, clean_metrics.true_positives);
  EXPECT_EQ(dirty_metrics.false_positives, clean_metrics.false_positives);

  // And the model itself never saw the dirt: final states are identical.
  std::ostringstream clean_state, dirty_state;
  clean_monitor.save(clean_state);
  dirty_monitor.save(dirty_state);
  EXPECT_EQ(dirty_state.str(), clean_state.str());
}

TEST(Resume, WindowsOutsideDataAreNoops) {
  const auto dataset = fleet();
  engine::FleetEngine predictor(dataset.feature_count(), params(), 5);
  const auto before = eval::stream_fleet(dataset, predictor,
                                         {.from_day = -100, .to_day = 0});
  EXPECT_EQ(before.samples_processed, 0u);
  const auto after = eval::stream_fleet(
      dataset, predictor,
      {.from_day = dataset.duration_days,
       .to_day = dataset.duration_days + 50});
  EXPECT_EQ(after.samples_processed, 0u);
}

}  // namespace
