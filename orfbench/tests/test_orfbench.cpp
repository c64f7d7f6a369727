// Unit tests of the benchmark's own parts: the percentile rule, open-loop
// due-time accounting, the fdr/far ledger and the correctness digest.
#include <gtest/gtest.h>

#include <vector>

#include "datagen/fleet_generator.hpp"
#include "digest.hpp"
#include "engine/fleet_engine.hpp"
#include "eval/fleet_stream.hpp"
#include "ledger.hpp"
#include "schedule.hpp"
#include "stats.hpp"

namespace orfbench {
namespace {

TEST(PercentileRule, TenSamplesBeyondTheReportedPercentile) {
  EXPECT_EQ(min_samples_for(0.95), 200u);
  EXPECT_EQ(min_samples_for(0.99), 1000u);
  EXPECT_EQ(min_samples_for(0.5), 20u);
  EXPECT_FALSE(percentile_supported(199, 0.95));
  EXPECT_TRUE(percentile_supported(200, 0.95));
  EXPECT_EQ(samples_beyond(200, 0.95), 10u);
  EXPECT_FALSE(percentile_supported(999, 0.99));
  EXPECT_TRUE(percentile_supported(1000, 0.99));
}

TEST(PercentileRule, NearestRankReturnsAnObservedValue) {
  std::vector<double> values;
  for (int i = 200; i >= 1; --i) values.push_back(i);  // 1..200, shuffled order
  EXPECT_EQ(percentile(values, 0.95), 190.0);
  EXPECT_EQ(percentile(values, 0.5), 100.0);
  EXPECT_EQ(percentile(values, 1.0), 200.0);
  EXPECT_EQ(median({3.0, 1.0, 2.0, 4.0}), 2.5);
  EXPECT_EQ(percentile({}, 0.5), 0.0);
}

TEST(PercentileRule, SlicedPercentileIgnoresOneStalledSlice) {
  // 4000 samples of 1 ms with one 50-sample stall of 100 ms: the stall
  // lands in one of four 1000-sample slices, so three slices report 1 ms.
  std::vector<double> values(4000, 1.0);
  for (int i = 500; i < 550; ++i) values[i] = 100.0;
  EXPECT_EQ(percentile(values, 0.99), 100.0);
  EXPECT_EQ(sliced_percentile(values, 0.99), 1.0);
  // Too few samples for two slices: the plain percentile.
  std::vector<double> few(1500, 2.0);
  few[3] = 9.0;
  EXPECT_EQ(sliced_percentile(few, 0.99), percentile(few, 0.99));
}

TEST(OpenLoopScheduler, DueTimesFollowTheRateNotTheServer) {
  // 100 requests/s for 1 s from t = 10: request i is due at 10 + i / 100.
  OpenLoopScheduler schedule(10.0, 100.0, 11.0);
  EXPECT_EQ(schedule.total(), 100u);
  EXPECT_FALSE(schedule.next(9.999, 0.0).has_value());
  const auto first = schedule.next(10.0, 0.0);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->seq, 0u);
  EXPECT_DOUBLE_EQ(first->due, 10.0);
  EXPECT_DOUBLE_EQ(first->late, 0.0);

  // The only connection is busy until t = 10.05 (a 50 ms stall): by then
  // requests 1..5 are due and wait in the generator. Their latency runs
  // from their due times, and the generator is not late: it sends the
  // moment the connection frees.
  const double freed = 10.05;
  EXPECT_EQ(schedule.backlog(freed), 5u);
  const auto second = schedule.next(freed, freed);
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->seq, 1u);
  EXPECT_DOUBLE_EQ(second->due, 10.01);
  EXPECT_NEAR(freed - second->due, 0.04, 1e-12);  // latency charged from due
  EXPECT_DOUBLE_EQ(second->late, 0.0);

  // A generator that wakes 3 ms after request 2 became due on an idle
  // connection is late by those 3 ms.
  const auto third = schedule.next(10.023, 10.0);
  ASSERT_TRUE(third.has_value());
  EXPECT_DOUBLE_EQ(third->due, 10.02);
  EXPECT_NEAR(third->late, 0.003, 1e-12);
  EXPECT_EQ(schedule.sent(), 3u);
}

TEST(OpenLoopScheduler, StopsAtTheWindowEnd) {
  OpenLoopScheduler schedule(0.0, 4.0, 1.0);
  std::uint64_t handed = 0;
  while (schedule.next(5.0, 5.0)) ++handed;
  EXPECT_EQ(handed, 4u);
  EXPECT_TRUE(schedule.exhausted());
  EXPECT_EQ(schedule.backlog(5.0), 0u);
}

data::Dataset tiny_fleet() {
  // Disk 10 fails on day 9, disk 11 runs through day 19, disk 12 retires
  // on day 1 (before the window), disk 13 fails on day 15 (after the cut).
  data::Dataset fleet;
  fleet.duration_days = 20;
  auto add = [&fleet](data::DiskId id, data::Day first, data::Day last,
                      bool failed) {
    data::DiskHistory disk;
    disk.id = id;
    disk.failed = failed;
    disk.first_day = first;
    disk.last_day = last;
    for (data::Day d = first; d <= last; ++d) {
      disk.snapshots.push_back(data::Snapshot{d, {0.0f}});
    }
    fleet.disks.push_back(disk);
  };
  add(10, 0, 9, true);
  add(11, 0, 19, false);
  add(12, 0, 1, false);
  add(13, 0, 15, true);
  return fleet;
}

TEST(AlarmLedger, AppliesTheEvalRuleToTheCutWindow) {
  const data::Dataset fleet = tiny_fleet();
  AlarmLedger ledger(fleet, 2, 12);
  ledger.record_alarm(10, 1);   // warm-up: ignored
  ledger.record_alarm(10, 8);   // within 7 days of failure: detected
  ledger.record_alarm(11, 3);   // good disk, outside its final week: false
  ledger.record_alarm(13, 11);  // fails after the cut: good, final week
  ledger.record_alarm(11, 12);  // after the window: ignored
  ledger.record_alarm(99, 8);   // unknown disk: ignored

  // The same record, written by hand as the eval rule's input.
  eval::FleetStreamResult expected;
  expected.disks.push_back({true, 9, {8}});
  expected.disks.push_back({false, 11, {3}});
  expected.disks.push_back({false, 11, {11}});
  const eval::Metrics want = expected.metrics(data::kHorizonDays, 2);
  const eval::Metrics got = ledger.metrics();
  EXPECT_EQ(got.failed_disks, 1u);
  EXPECT_EQ(got.good_disks, 2u);  // disk 12 left before the window
  EXPECT_EQ(got.true_positives, 1u);
  EXPECT_EQ(got.false_positives, 1u);
  EXPECT_DOUBLE_EQ(got.fdr, want.fdr);
  EXPECT_DOUBLE_EQ(got.far, want.far);
  EXPECT_DOUBLE_EQ(got.fdr, 100.0);
  EXPECT_DOUBLE_EQ(got.far, 50.0);
}

TEST(AlarmLedger, MatchesStreamFleetOverAWholeRun) {
  // Over the whole observation window the ledger, fed the alarms a real
  // stream produced, must agree with the stream's own metrics.
  datagen::FleetProfile profile = datagen::sta_profile(0.004);
  profile.duration_days = 90;
  const data::Dataset fleet = datagen::generate_fleet(profile, 7);
  engine::EngineParams params;
  engine::FleetEngine engine(fleet.feature_count(), params, 42);
  const eval::FleetStreamResult stream = eval::stream_fleet(fleet, engine);
  const data::Day warm = 30;

  AlarmLedger ledger(fleet, warm, fleet.duration_days);
  for (std::size_t i = 0; i < fleet.disks.size(); ++i) {
    for (const data::Day day : stream.disks[i].alarm_days) {
      ledger.record_alarm(fleet.disks[i].id, day);
    }
  }
  // Disks that left during warm-up are outside the ledger's window; the
  // stream counts them with no penalisable alarms, so compare the counts
  // the rule derives from alarms and the rates over the ledger's disks.
  const eval::Metrics want = stream.metrics(data::kHorizonDays, warm);
  const eval::Metrics got = ledger.metrics();
  EXPECT_EQ(got.true_positives, want.true_positives);
  EXPECT_EQ(got.false_positives, want.false_positives);
  EXPECT_GT(got.failed_disks, 0u);
  const eval::FleetStreamResult cut = ledger.result();
  EXPECT_DOUBLE_EQ(got.fdr, cut.metrics(data::kHorizonDays, warm).fdr);
}

TEST(Digest, CatchesASingleFlippedScoreBit) {
  std::vector<double> scores;
  for (int i = 0; i < 3000; ++i) scores.push_back(0.001 * (i % 997));
  Digest clean, flipped;
  for (std::size_t i = 0; i < scores.size(); ++i) {
    clean.add(scores[i], scores[i] >= 0.5);
    double s = scores[i];
    if (i == 1234) s = std::nextafter(s, 1.0);  // one ulp on one row
    flipped.add(s, scores[i] >= 0.5);
  }
  EXPECT_FALSE(clean == flipped);

  Digest again;
  for (double s : scores) again.add(s, s >= 0.5);
  EXPECT_TRUE(clean == again);

  Digest alarm_flipped;
  for (std::size_t i = 0; i < scores.size(); ++i) {
    alarm_flipped.add(scores[i], (scores[i] >= 0.5) != (i == 7));
  }
  EXPECT_FALSE(clean == alarm_flipped);
}

}  // namespace
}  // namespace orfbench
