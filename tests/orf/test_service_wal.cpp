// Service-level durability: WAL-backed crash recovery (resume replays the
// tail bit-identically), day-keyed replay idempotence, degraded score-only
// mode on WAL/checkpoint device failure with in-place recovery, and the
// kill-at-every-failpoint sweep — whatever writer stage faults, a restart
// reproduces exactly the state of an uninterrupted run over the acked
// batches.
#include <gtest/gtest.h>

#include <cfloat>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "engine/batch.hpp"
#include "orf/service.hpp"
#include "robust/checkpoint_io.hpp"
#include "robust/errors.hpp"
#include "robust/failpoint.hpp"
#include "robust/wal.hpp"

namespace {

namespace fs = std::filesystem;

constexpr std::size_t kFeatures = 4;
constexpr std::size_t kDisks = 5;

orf::Config base_config() {
  orf::Config config;
  config.forest.n_trees = 5;
  config.forest.tree.n_tests = 16;
  config.engine.shards = 2;
  return config;
}

/// Deterministic per-day batch; `storage` owns the feature rows the report
/// spans reference.
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

class ServiceWal : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("orf_svc_wal_" + std::string(::testing::UnitTest::GetInstance()
                                             ->current_test_info()
                                             ->name()));
    fs::remove_all(dir_);
  }
  void TearDown() override {
    robust::failpoints::disarm_all();
    fs::remove_all(dir_);
  }

  orf::Config durable_config(data::Day checkpoint_every = 100) {
    orf::Config config = base_config();
    config.robust.checkpoint_dir = dir_.string();
    config.robust.checkpoint_every = checkpoint_every;
    return config;
  }

  void ingest_days(orf::Service& service, data::Day first, data::Day last) {
    std::vector<std::vector<float>> storage;
    std::vector<engine::DayOutcome> outcomes;
    for (data::Day day = first; day < last; ++day) {
      const auto batch = make_batch(day, storage);
      service.ingest(batch, outcomes);
    }
  }

  fs::path dir_;
};

TEST_F(ServiceWal, CrashBeforeAnyCheckpointReplaysTheWalBitIdentically) {
  orf::Service reference(kFeatures, base_config());
  ingest_days(reference, 0, 5);
  {
    orf::Service service(kFeatures, durable_config());
    ingest_days(service, 0, 5);
    // Destroyed with no checkpoint_now(): the crash case. Every acked
    // batch lives only in the WAL.
  }

  orf::Config resume = durable_config();
  resume.robust.resume = true;
  orf::Service recovered(kFeatures, resume);
  EXPECT_EQ(recovered.next_day(), 5);
  EXPECT_EQ(recovered.wal_replayed_records(), 5u);
  EXPECT_EQ(state_of(recovered), state_of(reference));
}

TEST_F(ServiceWal, CrashAfterPeriodicCheckpointReplaysOnlyTheTail) {
  orf::Service reference(kFeatures, base_config());
  ingest_days(reference, 0, 7);
  {
    orf::Service service(kFeatures, durable_config(/*checkpoint_every=*/3));
    ingest_days(service, 0, 7);  // checkpoints after days 2 and 5
  }

  orf::Config resume = durable_config(3);
  resume.robust.resume = true;
  orf::Service recovered(kFeatures, resume);
  EXPECT_TRUE(recovered.resumed());
  EXPECT_EQ(recovered.next_day(), 7);
  // Rotation retired everything the day-5 checkpoint covers: only day 6
  // needed the WAL.
  EXPECT_EQ(recovered.wal_replayed_records(), 1u);
  EXPECT_EQ(state_of(recovered), state_of(reference));
}

TEST_F(ServiceWal, ReplayIsIdempotentAcrossRepeatedResumes) {
  orf::Service reference(kFeatures, base_config());
  ingest_days(reference, 0, 4);
  {
    orf::Service service(kFeatures, durable_config());
    ingest_days(service, 0, 4);
  }

  orf::Config resume = durable_config();
  resume.robust.resume = true;
  {
    // First resume replays; destroyed without checkpointing, so the WAL
    // still holds every record for the second resume.
    orf::Service first(kFeatures, resume);
    EXPECT_EQ(state_of(first), state_of(reference));
  }
  orf::Service second(kFeatures, resume);
  EXPECT_EQ(second.next_day(), 4);
  EXPECT_EQ(state_of(second), state_of(reference));
}

TEST_F(ServiceWal, WalFailureEntersScoreOnlyModeAndRecoversInPlace) {
  orf::Service service(kFeatures, durable_config());
  ingest_days(service, 0, 2);

  robust::failpoints::arm("wal.append", {robust::FaultKind::kIoError});
  std::vector<std::vector<float>> storage;
  std::vector<engine::DayOutcome> outcomes;
  const auto batch = make_batch(2, storage);
  EXPECT_THROW(service.ingest(batch, outcomes), orf::DegradedError);

  // Degraded is score-only: readiness says so, scoring still answers.
  orf::Service::Readiness readiness = service.readiness();
  EXPECT_FALSE(readiness.ready);
  EXPECT_EQ(readiness.state, "degraded");
  EXPECT_NE(readiness.cause.find("wal"), std::string::npos);
  std::vector<float> xs(kFeatures, 0.5f);
  std::vector<orf::Scored> scored;
  EXPECT_NO_THROW(service.score(xs, scored));
  ASSERT_EQ(scored.size(), 1u);

  // Day counter untouched by the refused batch.
  EXPECT_EQ(service.next_day(), 2);

  // Device heals: the next readiness probe recovers without a restart.
  robust::failpoints::disarm_all();
  readiness = service.readiness();
  EXPECT_TRUE(readiness.ready);
  EXPECT_EQ(readiness.state, "ok");
  EXPECT_NO_THROW(service.ingest(batch, outcomes));
  EXPECT_EQ(service.next_day(), 3);
}

TEST_F(ServiceWal, CheckpointFailureDegradesWithoutFailingTheAckedBatch) {
  orf::Service service(kFeatures, durable_config(/*checkpoint_every=*/1));
  robust::failpoints::arm("checkpoint.open_temp",
                          {robust::FaultKind::kIoError});

  std::vector<std::vector<float>> storage;
  std::vector<engine::DayOutcome> outcomes;
  // The batch itself lands (WAL-durable, engine applied, day advanced);
  // only the snapshot cadence failed.
  EXPECT_NO_THROW(service.ingest(make_batch(0, storage), outcomes));
  EXPECT_EQ(service.next_day(), 1);
  EXPECT_FALSE(service.readiness().ready);

  // While the checkpoint device is down, further ingest is refused (its
  // durability story depends on checkpoint+WAL together staying bounded).
  EXPECT_THROW(service.ingest(make_batch(1, storage), outcomes),
               orf::DegradedError);

  robust::failpoints::disarm_all();
  EXPECT_TRUE(service.readiness().ready);
  EXPECT_NO_THROW(service.ingest(make_batch(1, storage), outcomes));
  EXPECT_EQ(service.next_day(), 2);
}

TEST_F(ServiceWal, WalCellsArePrintfHexfloatsAndReplayBitIdentically) {
  // Edge-case cells: both zeros, float subnormals, the extremes, and the
  // non-finite values that reach the WAL before stage-0 rejects their row.
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  const std::vector<std::vector<float>> rows = {
      {0.0f, -0.0f, FLT_TRUE_MIN, -FLT_TRUE_MIN},
      {FLT_MIN / 4, FLT_MAX, -FLT_MAX, 0.1f},
      {nan, inf, -inf, 1.0f},
      {-nan, 1.5f, -2.25f, 3e-39f},
      {FLT_MIN, -FLT_MIN, 1e30f, -1e-30f}};
  std::vector<engine::DiskReport> batch;
  std::string expected = "day 0 " + std::to_string(rows.size()) + "\n";
  for (std::size_t d = 0; d < rows.size(); ++d) {
    const auto fate = d == 4 ? engine::DiskFate::kFailure
                             : engine::DiskFate::kOperating;
    batch.push_back(engine::DiskReport{.disk = static_cast<data::DiskId>(d),
                                       .features = rows[d],
                                       .fate = fate});
    expected +=
        std::to_string(d) + ' ' + std::to_string(static_cast<int>(fate));
    for (const float cell : rows[d]) {
      char text[48];
      std::snprintf(text, sizeof text, " %a", static_cast<double>(cell));
      expected += text;
    }
    expected += '\n';
  }

  // Non-finite rows are skipped, the rest (extremes included) reach the
  // scaler and the forest, so the saved state pins every replayed float.
  orf::Config skip = base_config();
  skip.engine.ingest_errors = robust::RowErrorPolicy::kSkip;
  orf::Config durable = durable_config();
  durable.engine.ingest_errors = robust::RowErrorPolicy::kSkip;
  std::vector<engine::DayOutcome> outcomes;
  orf::Service reference(kFeatures, skip);
  reference.ingest(batch, outcomes);
  ingest_days(reference, 1, 3);
  {
    orf::Service service(kFeatures, durable);
    service.ingest(batch, outcomes);
    ingest_days(service, 1, 3);
  }

  std::vector<std::string> payloads;
  {
    robust::IngestWal wal(
        robust::IngestWal::Options{.directory = (dir_ / "wal").string()});
    wal.replay(0, [&](const robust::IngestWal::Record& record) {
      payloads.emplace_back(record.payload);
    });
  }
  ASSERT_EQ(payloads.size(), 3u);
  EXPECT_EQ(payloads[0], expected);

  durable.robust.resume = true;
  orf::Service recovered(kFeatures, durable);
  EXPECT_EQ(recovered.wal_replayed_records(), 3u);
  EXPECT_EQ(state_of(recovered), state_of(reference));
}

TEST_F(ServiceWal, ProbeRecordsReplayAsNoOps) {
  {
    orf::Service service(kFeatures, durable_config());
    ingest_days(service, 0, 2);
    // Force a degraded→recovered cycle so a probe record lands in the WAL
    // between real batches.
    robust::failpoints::arm("wal.append",
                            {robust::FaultKind::kIoError, 0, 1});
    std::vector<std::vector<float>> storage;
    std::vector<engine::DayOutcome> outcomes;
    const auto batch = make_batch(2, storage);
    EXPECT_THROW(service.ingest(batch, outcomes), orf::DegradedError);
    EXPECT_TRUE(service.readiness().ready);  // probe append succeeded
    EXPECT_NO_THROW(service.ingest(batch, outcomes));
  }
  orf::Service reference(kFeatures, base_config());
  ingest_days(reference, 0, 3);

  orf::Config resume = durable_config();
  resume.robust.resume = true;
  orf::Service recovered(kFeatures, resume);
  EXPECT_EQ(recovered.next_day(), 3);
  EXPECT_EQ(recovered.wal_replayed_records(), 3u);  // probes don't count
  EXPECT_EQ(state_of(recovered), state_of(reference));
}

TEST_F(ServiceWal, KillAtEveryFailpointResumesBitIdentically) {
  // The in-process half of the chaos contract: for every WAL and checkpoint
  // writer failpoint, inject a fault mid-run, let the client-visible retry
  // succeed, "crash" (destroy without a final checkpoint), resume — and the
  // rebuilt state must equal an uninterrupted run over the same batches.
  std::vector<const char*> sites;
  for (const char* site : robust::IngestWal::wal_failpoint_sites()) {
    sites.push_back(site);
  }
  for (const char* site : robust::checkpoint_failpoint_sites()) {
    sites.push_back(site);
  }

  constexpr data::Day kDays = 7;
  for (const char* site : sites) {
    fs::remove_all(dir_);
    orf::Service reference(kFeatures, base_config());
    {
      orf::Service service(kFeatures,
                           durable_config(/*checkpoint_every=*/3));
      robust::FaultSpec spec;
      spec.kind = robust::FaultKind::kIoError;
      spec.after = 1;
      spec.count = 1;
      robust::failpoints::arm(site, spec);

      std::vector<std::vector<float>> storage;
      std::vector<engine::DayOutcome> outcomes;
      for (data::Day day = 0; day < kDays; ++day) {
        const auto batch = make_batch(day, storage);
        bool acked = false;
        for (int attempt = 0; attempt < 5 && !acked; ++attempt) {
          try {
            service.ingest(batch, outcomes);
            acked = true;
          } catch (const orf::DegradedError&) {
            service.readiness();  // in-place recovery attempt
          }
        }
        ASSERT_TRUE(acked) << "site=" << site << " day=" << day;
        reference.ingest(batch, outcomes);
      }
      robust::failpoints::disarm_all();
    }

    orf::Config resume = durable_config(3);
    resume.robust.resume = true;
    orf::Service recovered(kFeatures, resume);
    EXPECT_EQ(recovered.next_day(), kDays) << "site=" << site;
    EXPECT_EQ(state_of(recovered), state_of(reference)) << "site=" << site;
  }
}

TEST_F(ServiceWal, WalDisabledFallsBackToCheckpointOnlyDurability) {
  orf::Config config = durable_config(/*checkpoint_every=*/2);
  config.robust.wal = false;
  {
    orf::Service service(kFeatures, config);
    ingest_days(service, 0, 5);  // checkpoints after days 1 and 3
  }
  EXPECT_FALSE(fs::exists(dir_ / "wal"));

  orf::Config resume = config;
  resume.robust.resume = true;
  orf::Service recovered(kFeatures, resume);
  // Day 4 was acked but never checkpointed: without the WAL it is lost —
  // exactly the gap --wal closes.
  EXPECT_EQ(recovered.next_day(), 4);
  EXPECT_EQ(recovered.wal_replayed_records(), 0u);
}

TEST(ServiceSnapshot, RestoreReadsOnlyTheOrfServiceHeader) {
  // The pre-Service "fleet-monitor v1" header carried the same body; it is
  // refused like any other foreign header rather than read unchecked.
  orf::Service writer(kFeatures, base_config());
  std::vector<std::vector<float>> storage;
  std::vector<engine::DayOutcome> outcomes;
  writer.ingest(make_batch(0, storage), outcomes);
  const std::string snapshot = state_of(writer);
  ASSERT_EQ(snapshot.rfind("orf-service v1\n", 0), 0u);
  const std::string body = snapshot.substr(snapshot.find('\n'));

  orf::Service reader(kFeatures, base_config());
  std::istringstream same(snapshot);
  reader.restore(same);
  EXPECT_EQ(state_of(reader), snapshot);

  for (const char* header : {"fleet-monitor v1", "orf-service v2"}) {
    orf::Service other(kFeatures, base_config());
    std::istringstream is(header + body);
    EXPECT_THROW(other.restore(is), std::runtime_error) << header;
  }
}

}  // namespace
