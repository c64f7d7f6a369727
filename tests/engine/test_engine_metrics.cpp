// Telemetry must sit outside the determinism surface: an engine observed
// after every day batch (forest gauges published, registry snapshotted,
// JSON rendered) must stay bit-identical — full serialized state — to one
// never observed at all. Also holds the registry-backed counters to the
// flow totals the stream actually produced, and the legacy EngineCounters
// view to the instruments it mirrors.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "datagen/fleet_generator.hpp"
#include "datagen/profile.hpp"
#include "engine/fleet_engine.hpp"
#include "eval/fleet_stream.hpp"
#include "obs/export.hpp"
#include "util/thread_pool.hpp"

namespace {

engine::EngineParams metrics_params(std::size_t shards) {
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
  profile.n_failed = 10;
  profile.duration_days = 5 * data::kDaysPerMonth;
  return datagen::generate_fleet(profile, 31);
}

std::string engine_state(const engine::FleetEngine& predictor) {
  std::ostringstream os;
  predictor.save(os);
  return os.str();
}

TEST(EngineMetrics, SnapshottingEveryDayIsBitIdentical) {
  const data::Dataset fleet = small_fleet();
  util::ThreadPool pool(4);

  engine::FleetEngine plain(fleet.feature_count(), metrics_params(3),
                            /*seed=*/5);
  const auto base = eval::stream_fleet(fleet, plain, {.pool = &pool});

  engine::FleetEngine observed(fleet.feature_count(), metrics_params(3),
                               /*seed=*/5);
  std::size_t snapshots = 0;
  const auto result = eval::stream_fleet(
      fleet, observed,
      {.pool = &pool, .on_day_end = [&](data::Day) {
         const obs::Snapshot snap = observed.metrics_snapshot();
         ASSERT_FALSE(obs::to_json(snap).empty());
         ASSERT_FALSE(obs::to_prometheus(snap).empty());
         ++snapshots;
       }});

  EXPECT_EQ(snapshots, static_cast<std::size_t>(fleet.duration_days));
  EXPECT_EQ(base.total_alarms, result.total_alarms);
  EXPECT_EQ(base.samples_processed, result.samples_processed);
  ASSERT_EQ(base.disks.size(), result.disks.size());
  for (std::size_t i = 0; i < base.disks.size(); ++i) {
    EXPECT_EQ(base.disks[i].alarm_days, result.disks[i].alarm_days)
        << "disk index " << i;
  }
  EXPECT_EQ(engine_state(plain), engine_state(observed));
}

TEST(EngineMetrics, RegistryCountersMatchStreamTotals) {
  const data::Dataset fleet = small_fleet();
  engine::FleetEngine predictor(fleet.feature_count(), metrics_params(4),
                                /*seed=*/5);
  const auto result = eval::stream_fleet(fleet, predictor);

  const engine::FleetEngine& engine = predictor;
  const engine::EngineCounters counters = engine.counters();

  EXPECT_EQ(counters.total.samples_ingested, result.samples_processed);
  EXPECT_EQ(counters.total.alarms, result.total_alarms);
  EXPECT_EQ(counters.total.negatives_released, engine.negatives_released());
  EXPECT_EQ(counters.total.positives_released, engine.positives_released());
  EXPECT_EQ(counters.samples_learned,
            engine.negatives_released() + engine.positives_released());
  EXPECT_GT(counters.learn_passes, 0u);
  EXPECT_GT(counters.learn_seconds, 0.0);

  // The EngineCounters view and the registry are two reads of the same
  // instruments.
  const obs::Snapshot snap = engine.metrics_snapshot();
  std::uint64_t ingested = 0;
  std::uint64_t alarms = 0;
  std::uint64_t shard_series = 0;
  for (const auto& c : snap.counters) {
    if (c.id.name == "orf_engine_shard_ingested_total") {
      ingested += c.value;
      ++shard_series;
    }
    if (c.id.name == "orf_engine_shard_alarms_total") alarms += c.value;
    if (c.id.name == "orf_engine_samples_learned_total") {
      EXPECT_EQ(c.value, counters.samples_learned);
    }
    if (c.id.name == "orf_forest_samples_seen_total") {
      EXPECT_EQ(c.value, engine.forest().samples_seen());
    }
  }
  EXPECT_EQ(shard_series, engine.shard_count());
  EXPECT_EQ(ingested, counters.total.samples_ingested);
  EXPECT_EQ(alarms, counters.total.alarms);

  bool saw_learn_histogram = false;
  for (const auto& h : snap.histograms) {
    if (h.id.name == "orf_engine_stage_seconds" && !h.id.labels.empty() &&
        h.id.labels.front().second == "learn") {
      saw_learn_histogram = true;
      EXPECT_EQ(h.count, counters.learn_passes);
      EXPECT_DOUBLE_EQ(h.sum, counters.learn_seconds);
      EXPECT_GE(h.quantile(0.99), h.quantile(0.50));
    }
  }
  EXPECT_TRUE(saw_learn_histogram);
}

TEST(EngineMetrics, ForestGaugesTrackModelAging) {
  // Tiny replacement thresholds force tree regrowth quickly, which the
  // forest gauges must surface.
  engine::EngineParams p = metrics_params(1);
  p.forest.oobe_threshold = 0.05;
  p.forest.age_threshold = 5;
  p.forest.min_oob_evals = 3;
  p.forest.oobe_decay = 0.5;
  engine::FleetEngine predictor(/*feature_count=*/4, p, /*seed=*/9);

  // Adversarial labels: features carry no signal, so OOBE climbs.
  std::vector<float> x(4, 0.5F);
  for (int i = 0; i < 400; ++i) {
    predictor.learn_labeled(x, i % 2);
  }

  const obs::Snapshot snap = predictor.metrics_snapshot();
  double oobe_mean = -1.0;
  std::uint64_t replaced = 0;
  std::uint64_t seen = 0;
  for (const auto& g : snap.gauges) {
    if (g.id.name == "orf_forest_oobe_mean") oobe_mean = g.value;
  }
  for (const auto& c : snap.counters) {
    if (c.id.name == "orf_forest_trees_replaced_total") replaced = c.value;
    if (c.id.name == "orf_forest_samples_seen_total") seen = c.value;
  }
  EXPECT_EQ(seen, 400u);
  EXPECT_EQ(replaced, predictor.forest().trees_replaced());
  EXPECT_GT(replaced, 0u);
  EXPECT_GE(oobe_mean, 0.0);
  EXPECT_LE(oobe_mean, 1.0);
}

}  // namespace
