// RecoveryManager: rotation, fallback past damaged snapshots, crash-at-
// every-writer-stage durability (driven by the failpoint catalog), and the
// recovery telemetry counters.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/registry.hpp"
#include "robust/checkpoint_io.hpp"
#include "robust/errors.hpp"
#include "robust/failpoint.hpp"
#include "robust/recovery.hpp"

namespace {

namespace fs = std::filesystem;

class Recovery : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("orf_recovery_" + std::string(::testing::UnitTest::GetInstance()
                                              ->current_test_info()
                                              ->name()));
    fs::remove_all(dir_);
  }
  void TearDown() override {
    robust::failpoints::disarm_all();
    fs::remove_all(dir_);
  }

  robust::RecoveryManager manager(std::size_t keep = 3) {
    return robust::RecoveryManager({dir_.string(), "ckpt", keep});
  }

  fs::path dir_;
};

TEST_F(Recovery, EmptyDirectoryIsAFreshStart) {
  auto mgr = manager();
  EXPECT_FALSE(mgr.load_latest().has_value());
}

TEST_F(Recovery, SaveThenLoadReturnsNewest) {
  auto mgr = manager();
  mgr.save({"state one"});
  mgr.save({"state two"});
  const auto loaded = mgr.load_latest();
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->payload, "state two");
  EXPECT_EQ(loaded->corrupt_skipped, 0u);
}

TEST_F(Recovery, RotationKeepsOnlyNewestN) {
  auto mgr = manager(/*keep=*/2);
  for (int i = 0; i < 5; ++i) mgr.save({"state " + std::to_string(i)});
  EXPECT_EQ(mgr.list().size(), 2u);
  const auto loaded = mgr.load_latest();
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->payload, "state 4");
}

TEST_F(Recovery, FallsBackPastDamagedNewestSnapshot) {
  auto mgr = manager();
  mgr.save({"good old"});
  const auto newest = mgr.save({"bad new"});
  // Damage the newest snapshot the way a torn write would: truncate it.
  fs::resize_file(newest, fs::file_size(newest) / 2);

  const auto loaded = mgr.load_latest();
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->payload, "good old");
  EXPECT_EQ(loaded->corrupt_skipped, 1u);
}

TEST_F(Recovery, TruncationBelowTheMagicStillFallsBack) {
  // So short the envelope magic is gone — must still be treated as damage.
  auto mgr = manager();
  mgr.save({"good old"});
  const auto newest = mgr.save({"bad new"});
  fs::resize_file(newest, 3);
  const auto loaded = mgr.load_latest();
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->payload, "good old");
}

TEST_F(Recovery, AllSnapshotsDamagedThrowsCorruptCheckpoint) {
  auto mgr = manager();
  for (const auto& path : {mgr.save({"a"}), mgr.save({"b"})}) {
    std::ofstream os(path, std::ios::trunc);
    os << "garbage";
  }
  EXPECT_THROW(mgr.load_latest(), robust::CorruptCheckpoint);
}

TEST_F(Recovery, StaleTmpFilesArePruned) {
  auto mgr = manager();
  fs::create_directories(dir_);
  {
    std::ofstream os(dir_ / "ckpt-000000009.ckpt.tmp");
    os << "half-written by a crashed process";
  }
  mgr.save({"fresh"});
  EXPECT_FALSE(fs::exists(dir_ / "ckpt-000000009.ckpt.tmp"));
  EXPECT_EQ(mgr.load_latest()->payload, "fresh");
}

TEST_F(Recovery, ResumesSequenceNumbersAcrossRestarts) {
  {
    auto mgr = manager();
    mgr.save({"one"});
    mgr.save({"two"});
  }
  auto restarted = manager();
  restarted.save({"three"});
  const auto loaded = restarted.load_latest();
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->payload, "three");
  EXPECT_EQ(restarted.list().size(), 3u);
}

TEST_F(Recovery, CrashAtEveryWriterStageLeavesALoadableDirectory) {
  // The acceptance property: arm each checkpoint.* failpoint in turn, crash
  // one save, and demand load_latest still returns an intact snapshot —
  // the previous one for pre-rename crashes, the new one once the rename
  // (the durability point) has happened.
  for (const char* site : robust::checkpoint_failpoint_sites()) {
    SCOPED_TRACE(site);
    fs::remove_all(dir_);
    auto mgr = manager();
    mgr.save({"previous state"});

    robust::failpoints::arm(site, {robust::FaultKind::kIoError});
    EXPECT_THROW(mgr.save({"next state"}), robust::InjectedFault);
    robust::failpoints::disarm_all();

    const auto loaded = mgr.load_latest();
    ASSERT_TRUE(loaded.has_value());
    const bool durable = std::string(site) == "checkpoint.after_rename";
    EXPECT_EQ(loaded->payload, durable ? "next state" : "previous state");

    // The interrupted save must not wedge the manager: the next save and
    // load work normally.
    mgr.save({"recovered"});
    EXPECT_EQ(mgr.load_latest()->payload, "recovered");
  }
}

TEST_F(Recovery, ShortWriteTearsAreDetectedAndSkipped) {
  auto mgr = manager();
  mgr.save({"previous state"});
  robust::FaultSpec spec;
  spec.kind = robust::FaultKind::kShortWrite;
  spec.keep_fraction = 0.5;
  robust::failpoints::arm("checkpoint.write_payload", spec);
  EXPECT_THROW(mgr.save({"next state"}), robust::InjectedFault);
  robust::failpoints::disarm_all();

  const auto loaded = mgr.load_latest();
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->payload, "previous state");
}

TEST_F(Recovery, MetricsCountSavesAndFallbacks) {
  obs::Registry registry;
  auto mgr = manager();
  mgr.bind_metrics(registry);
  mgr.save({"one"});
  const auto newest = mgr.save({"two"});
  fs::resize_file(newest, 4);
  EXPECT_EQ(mgr.load_latest()->payload, "one");

  double saves = 0, corrupt = 0, fallbacks = 0;
  for (const auto& counter : registry.snapshot().counters) {
    if (counter.id.name == "orf_checkpoint_saves_total") {
      saves = counter.value;
    } else if (counter.id.name == "orf_checkpoint_corrupt_total") {
      corrupt = counter.value;
    } else if (counter.id.name == "orf_checkpoint_fallbacks_total") {
      fallbacks = counter.value;
    }
  }
  EXPECT_EQ(saves, 2.0);
  EXPECT_EQ(corrupt, 1.0);
  EXPECT_EQ(fallbacks, 1.0);
}

TEST_F(Recovery, ConcurrentSaveAndLoadLatestAreSerialised) {
  // The SIGTERM-drain checkpoint can race a readiness-driven recovery read;
  // the manager's internal mutex must make every load observe a complete
  // snapshot. Run under TSan (scripts/check.sh --tsan) to prove it.
  auto mgr = manager(/*keep=*/4);
  mgr.save({"seed"});

  constexpr int kRounds = 50;
  std::thread writer([&mgr] {
    for (int i = 0; i < kRounds; ++i) {
      mgr.save({"state " + std::to_string(i)});
    }
  });
  std::thread reader([&mgr] {
    for (int i = 0; i < kRounds; ++i) {
      const auto loaded = mgr.load_latest();
      ASSERT_TRUE(loaded.has_value());
      // Never a torn payload: always the seed or a full "state N".
      EXPECT_TRUE(loaded->payload == "seed" ||
                  loaded->payload.rfind("state ", 0) == 0)
          << loaded->payload;
    }
  });
  std::thread lister([&mgr] {
    for (int i = 0; i < kRounds; ++i) {
      EXPECT_LE(mgr.list().size(), 5u);  // keep + the one being written
    }
  });
  writer.join();
  reader.join();
  lister.join();
}

}  // namespace
