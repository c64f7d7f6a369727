// Byte identity of the pool-parallel durability encoders.
//
// Checkpoint payloads, WAL records and tsdb segments are formatted on the
// Service's thread pool, but every byte must be the one the sequential
// writer produces. Two oracles hold that at smoke scale:
//   * the original std::ostream savers (tests/support/stream_oracle.hpp):
//     the Service payload of trained orf and mondrian engines must equal
//     them with no pool and with pools of 1, 2 and 4;
//   * a sequential run: a durable service (WAL, tsdb tee, checkpoint
//     cadence) ingesting the same day batches with 1 and with 4 threads
//     must leave byte-identical checkpoint, WAL, segment and catalog files.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "datagen/fleet_generator.hpp"
#include "datagen/profile.hpp"
#include "engine/batch.hpp"
#include "eval/fleet_stream.hpp"
#include "orf/service.hpp"
#include "support/stream_oracle.hpp"
#include "util/thread_pool.hpp"

namespace {

namespace fs = std::filesystem;
using core::checkpoint::StreamOracle;

constexpr data::Day kDays = 100;

/// One captured day batch with owned feature storage.
struct OwnedDay {
  data::Day day = 0;
  std::vector<std::vector<float>> rows;
  std::vector<engine::DiskReport> reports;
};

orf::Config smoke_config(const std::string& backend, std::size_t threads) {
  orf::Config config;
  config.engine.backend = backend;
  config.engine.threads = threads;
  config.engine.shards = 2;
  config.forest.n_trees = 6;
  config.forest.tree.n_tests = 16;
  // Low split bars so the trees grow structure, leaf tests and buffers
  // within the smoke window — every section of the format gets exercised.
  config.forest.tree.min_parent_size = 16;
  config.forest.tree.threshold_pool = 8;
  config.forest.lambda_neg = 0.2;
  config.mondrian.lifetime = 5.0;
  return config;
}

std::string state_of(const orf::Service& service) {
  std::ostringstream os;
  service.save(os);
  return os.str();
}

std::map<std::string, std::string> files_under(const fs::path& root) {
  std::map<std::string, std::string> files;
  for (const auto& entry : fs::recursive_directory_iterator(root)) {
    if (!entry.is_regular_file()) continue;
    std::ifstream is(entry.path(), std::ios::binary);
    std::ostringstream bytes;
    bytes << is.rdbuf();
    files[fs::relative(entry.path(), root).string()] = bytes.str();
  }
  return files;
}

class DurabilityOracle : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    datagen::FleetProfile profile = datagen::sta_profile(0.002);
    profile.duration_days = kDays;
    fleet_ = new data::Dataset(datagen::generate_fleet(profile, 11));
    days_ = new std::vector<OwnedDay>();
    // Capture the day batches once, through eval::stream_fleet as
    // fleet_monitor runs it, so every leg ingests identical reports.
    engine::FleetEngine capture(fleet_->feature_count(),
                                smoke_config("orf", 1).engine_params(), 1);
    eval::stream_fleet(
        *fleet_, capture,
        {.to_day = kDays,
         .on_day_batch = [](data::Day day,
                            std::span<const engine::DiskReport> batch) {
           OwnedDay owned;
           owned.day = day;
           for (const engine::DiskReport& report : batch) {
             owned.rows.emplace_back(report.features.begin(),
                                     report.features.end());
           }
           for (std::size_t i = 0; i < batch.size(); ++i) {
             owned.reports.push_back(engine::DiskReport{
                 .disk = batch[i].disk,
                 .features = owned.rows[i],
                 .fate = batch[i].fate});
           }
           days_->push_back(std::move(owned));
         }});
  }
  static void TearDownTestSuite() {
    delete days_;
    delete fleet_;
  }

  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("orf_durability_oracle_" +
            std::string(::testing::UnitTest::GetInstance()
                            ->current_test_info()
                            ->name()));
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  /// A service ingesting every captured day through Service::ingest.
  static std::unique_ptr<orf::Service> trained(orf::Config config) {
    auto service =
        std::make_unique<orf::Service>(fleet_->feature_count(), config);
    std::vector<engine::DayOutcome> outcomes;
    data::Day expected = 0;
    for (const OwnedDay& day : *days_) {
      // Empty days never reach the batch callback; keep the day counter
      // aligned with the fleet's calendar, as fleet_monitor does.
      if (day.day != expected) service->set_next_day(day.day);
      service->ingest(day.reports, outcomes);
      expected = day.day + 1;
    }
    return service;
  }

  static data::Dataset* fleet_;
  static std::vector<OwnedDay>* days_;
  fs::path dir_;
};

data::Dataset* DurabilityOracle::fleet_ = nullptr;
std::vector<OwnedDay>* DurabilityOracle::days_ = nullptr;

TEST_F(DurabilityOracle, ServicePayloadMatchesTheStreamWriterAtEveryPool) {
  ASSERT_GT(days_->size(), 50u);
  for (const std::string backend : {"orf", "mondrian"}) {
    SCOPED_TRACE(backend);
    const auto service = trained(smoke_config(backend, 1));
    const std::string oracle = StreamOracle::service(*service);
    if (backend == "orf") {
      // Guard against a vacuous pass: the trained forest must carry split
      // structure and label queues must hold samples.
      const auto& forest = service->engine().forest();
      std::size_t nodes = 0;
      for (std::size_t t = 0; t < forest.tree_count(); ++t) {
        nodes += forest.tree(t).node_count();
      }
      EXPECT_GT(nodes, forest.tree_count()) << "no tree ever split";
    }
    EXPECT_GT(oracle.size(), 10000u);
    EXPECT_EQ(state_of(*service), oracle);

    const std::string engine_oracle =
        StreamOracle::engine(service->engine());
    for (const std::size_t threads : {1, 2, 4}) {
      SCOPED_TRACE("pool of " + std::to_string(threads));
      util::ThreadPool pool(threads);
      std::string out;
      service->engine().save(out, &pool);
      EXPECT_EQ(out, engine_oracle);
    }
  }
}

TEST_F(DurabilityOracle, PooledServiceSavesTheSameBytes) {
  for (const std::string backend : {"orf", "mondrian"}) {
    SCOPED_TRACE(backend);
    const auto sequential = trained(smoke_config(backend, 1));
    const auto pooled = trained(smoke_config(backend, 4));
    ASSERT_NE(pooled->pool(), nullptr);
    EXPECT_EQ(state_of(*pooled), StreamOracle::service(*pooled));
    EXPECT_EQ(state_of(*pooled), state_of(*sequential));
  }
}

TEST_F(DurabilityOracle, DurableFilesAreByteIdenticalAcrossThreadCounts) {
  std::map<std::string, std::string> reference;
  for (const std::size_t threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const fs::path root = dir_ / std::to_string(threads);
    orf::Config config = smoke_config("orf", threads);
    config.robust.checkpoint_dir = (root / "ckpt").string();
    config.robust.checkpoint_every = 30;
    config.robust.checkpoint_keep = 100;
    config.tsdb.directory = (root / "tsdb").string();
    // Small segments force rotations inside a flush.
    config.tsdb.segment_max_bytes = 8192;
    // The last checkpoint lands on day 90, so the WAL keeps the records
    // after it and the tsdb buffer holds the days since its last flush.
    trained(config);
    const auto files = files_under(root);
    std::size_t wal = 0, segments = 0, checkpoints = 0;
    for (const auto& [name, bytes] : files) {
      wal += name.find("wal-") != std::string::npos;
      segments += name.find("tsdb-") != std::string::npos;
      checkpoints += name.find(".ckpt") != std::string::npos;
    }
    EXPECT_GT(wal, 0u);
    EXPECT_GT(checkpoints, 2u);
    EXPECT_GT(segments, 2u);
    EXPECT_GT(files.count("tsdb/catalog.tsdb"), 0u);
    if (threads == 1) {
      reference = files;
      continue;
    }
    ASSERT_EQ(files.size(), reference.size());
    for (const auto& [name, bytes] : reference) {
      SCOPED_TRACE(name);
      ASSERT_EQ(files.count(name), 1u);
      EXPECT_TRUE(files.at(name) == bytes) << "bytes differ";
    }
  }
}

}  // namespace
