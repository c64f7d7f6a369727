// Checkpoint/restore of the online learners: a restored object must behave
// bit-for-bit like the original — same predictions AND the same future
// learning trajectory (structure, statistics, buffers, RNG streams).
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/online_forest.hpp"
#include "core/online_tree.hpp"
#include "engine/fleet_engine.hpp"
#include "robust/errors.hpp"
#include "util/rng.hpp"

namespace {

core::OnlineTreeParams tree_params() {
  core::OnlineTreeParams p;
  p.n_tests = 48;
  p.min_parent_size = 40;
  p.min_gain = 0.05;
  p.threshold_pool = 24;
  return p;
}

core::OnlineForestParams forest_params() {
  core::OnlineForestParams p;
  p.n_trees = 6;
  p.tree = tree_params();
  p.lambda_pos = 1.0;
  p.lambda_neg = 0.3;
  p.enable_drift_monitor = true;
  return p;
}

void feed(core::OnlineForest& forest, int n, util::Rng& rng) {
  for (int i = 0; i < n; ++i) {
    const float v = static_cast<float>(rng.uniform());
    forest.update(std::vector<float>{v, 1.0f - v}, v > 0.5f ? 1 : 0);
  }
}

TEST(Checkpoint, TreeRoundTripPredictsIdentically) {
  core::OnlineTree tree(1, tree_params(), util::Rng(3));
  util::Rng rng(42);
  for (int i = 0; i < 800; ++i) {
    const float v = static_cast<float>(rng.uniform());
    tree.update(std::vector<float>{v}, v > 0.5f ? 1 : 0);
  }
  std::stringstream buffer;
  tree.save(buffer);

  core::OnlineTree restored(1, tree_params(), util::Rng(999));
  restored.restore(buffer);
  EXPECT_EQ(restored.node_count(), tree.node_count());
  EXPECT_EQ(restored.samples_seen(), tree.samples_seen());
  util::Rng probe(7);
  for (int i = 0; i < 50; ++i) {
    const std::vector<float> x = {static_cast<float>(probe.uniform())};
    EXPECT_DOUBLE_EQ(restored.predict_proba(x), tree.predict_proba(x));
  }
}

TEST(Checkpoint, TreeResumesIdenticalLearningTrajectory) {
  core::OnlineTree original(1, tree_params(), util::Rng(3));
  util::Rng rng(42);
  for (int i = 0; i < 300; ++i) {
    const float v = static_cast<float>(rng.uniform());
    original.update(std::vector<float>{v}, v > 0.5f ? 1 : 0);
  }
  std::stringstream buffer;
  original.save(buffer);
  core::OnlineTree restored(1, tree_params(), util::Rng(999));
  restored.restore(buffer);

  // Feed both the same continuation; they must stay identical (this only
  // holds if the RNG stream and every buffered sample round-tripped).
  util::Rng cont1(5);
  util::Rng cont2(5);
  for (int i = 0; i < 500; ++i) {
    const float v1 = static_cast<float>(cont1.uniform());
    const float v2 = static_cast<float>(cont2.uniform());
    original.update(std::vector<float>{v1}, v1 > 0.5f ? 1 : 0);
    restored.update(std::vector<float>{v2}, v2 > 0.5f ? 1 : 0);
  }
  EXPECT_EQ(restored.node_count(), original.node_count());
  util::Rng probe(7);
  for (int i = 0; i < 50; ++i) {
    const std::vector<float> x = {static_cast<float>(probe.uniform())};
    EXPECT_DOUBLE_EQ(restored.predict_proba(x), original.predict_proba(x));
  }
}

TEST(Checkpoint, TreeParameterMismatchThrows) {
  core::OnlineTree tree(1, tree_params(), util::Rng(3));
  std::stringstream buffer;
  tree.save(buffer);
  auto other_params = tree_params();
  other_params.n_tests = 99;
  core::OnlineTree other(1, other_params, util::Rng(3));
  EXPECT_THROW(other.restore(buffer), std::runtime_error);
}

// ---- restore rejects trees the kernels cannot run --------------------------

/// A two-feature tree that has split and still holds leaves with tests, as
/// checkpoint text split into lines.
std::vector<std::string> trained_tree_lines() {
  core::OnlineTree tree(2, tree_params(), util::Rng(3));
  util::Rng rng(42);
  for (int i = 0; i < 800; ++i) {
    const float v = static_cast<float>(rng.uniform());
    tree.update(std::vector<float>{v, 1.0f - v}, v > 0.5f ? 1 : 0);
  }
  EXPECT_GT(tree.node_count(), 1u);
  std::string text;
  tree.save(text);
  std::vector<std::string> lines;
  std::istringstream is(text);
  for (std::string line; std::getline(is, line);) lines.push_back(line);
  return lines;
}

std::vector<std::string> fields(const std::string& line) {
  std::istringstream is(line);
  std::vector<std::string> out;
  for (std::string field; is >> field;) out.push_back(field);
  return out;
}

void set_field(std::string& line, std::size_t index, const std::string& value) {
  auto parts = fields(line);
  parts.at(index) = value;
  line.clear();
  for (std::size_t i = 0; i < parts.size(); ++i) {
    line += (i == 0 ? "" : " ") + parts[i];
  }
}

std::string join(const std::vector<std::string>& lines) {
  std::string text;
  for (const auto& line : lines) text += line + "\n";
  return text;
}

std::string restore_error(const std::vector<std::string>& lines) {
  core::OnlineTree tree(2, tree_params(), util::Rng(1));
  std::istringstream is(join(lines));
  try {
    tree.restore(is);
  } catch (const std::runtime_error& error) {
    return error.what();
  }
  return "";
}

// Line 4 is the root; a node line is "left right depth feature θ prob stats".
constexpr std::size_t kRootLine = 4;

TEST(CheckpointRestore, AcceptsTheUntouchedTree) {
  EXPECT_EQ(restore_error(trained_tree_lines()), "");
}

TEST(CheckpointRestore, RejectsOutOfRangeChild) {
  auto lines = trained_tree_lines();
  set_field(lines[kRootLine], 1, "100000");
  EXPECT_EQ(restore_error(lines).rfind("checkpoint: ", 0), 0u);
}

TEST(CheckpointRestore, RejectsSplitFeatureOutOfRange) {
  auto lines = trained_tree_lines();
  set_field(lines[kRootLine], 3, "2");  // F = 2
  EXPECT_EQ(restore_error(lines).rfind("checkpoint: ", 0), 0u);
}

TEST(CheckpointRestore, RejectsSelfLoopedRoot) {
  auto lines = trained_tree_lines();
  set_field(lines[kRootLine], 0, "0");
  set_field(lines[kRootLine], 1, "0");
  EXPECT_EQ(restore_error(lines).rfind("checkpoint: ", 0), 0u);
}

TEST(CheckpointRestore, RejectsRightCountAboveClassCount) {
  auto lines = trained_tree_lines();
  // Find the first leaf with tests: its stats line is
  // "n0 n1 ready tests buffered", then one "feature θ r0 r1" line per test.
  for (std::size_t i = kRootLine; i + 2 < lines.size();) {
    const auto node = fields(lines[i]);
    if (node.at(6) == "0") {
      ++i;
      continue;
    }
    const auto stats = fields(lines[i + 1]);
    const auto tests = std::stoul(stats.at(3));
    if (tests > 0) {
      set_field(lines[i + 2], 2, std::to_string(std::stoul(stats.at(0)) + 1));
      EXPECT_EQ(restore_error(lines).rfind("checkpoint: ", 0), 0u);
      return;
    }
    i += 2 + tests + std::stoul(stats.at(4));
  }
  FAIL() << "no leaf with tests in the trained tree";
}

TEST(CheckpointRestore, RejectsBadBufferLabelAndTestFeature) {
  // A fresh root buffering samples: "left right depth feature θ prob 1",
  // its stats line, then one "label x0 x1" line per buffered sample.
  core::OnlineTree tree(2, tree_params(), util::Rng(3));
  tree.update(std::vector<float>{0.25f, 0.75f}, 1);
  std::string text;
  tree.save(text);
  std::vector<std::string> lines;
  std::istringstream is(text);
  for (std::string line; std::getline(is, line);) lines.push_back(line);
  EXPECT_EQ(restore_error(lines), "");
  auto bad_label = lines;
  set_field(bad_label[kRootLine + 2], 0, "2");
  EXPECT_EQ(restore_error(bad_label).rfind("checkpoint: ", 0), 0u);

  auto trained = trained_tree_lines();
  for (std::size_t i = kRootLine; i + 2 < trained.size(); ++i) {
    const auto node = fields(trained[i]);
    if (node.size() == 7 && node[6] == "1" &&
        fields(trained[i + 1]).at(3) != "0") {
      set_field(trained[i + 2], 0, "65538");  // wraps to 2 as a uint16
      EXPECT_EQ(restore_error(trained).rfind("checkpoint: ", 0), 0u);
      return;
    }
  }
  FAIL() << "no leaf with tests in the trained tree";
}

TEST(Checkpoint, ForestRoundTripAndResume) {
  core::OnlineForest original(2, forest_params(), 11);
  util::Rng rng(42);
  feed(original, 2500, rng);

  std::stringstream buffer;
  original.save(buffer);
  core::OnlineForest restored(2, forest_params(), 777);
  restored.restore(buffer);

  EXPECT_EQ(restored.samples_seen(), original.samples_seen());
  EXPECT_EQ(restored.trees_replaced(), original.trees_replaced());
  for (std::size_t t = 0; t < original.tree_count(); ++t) {
    EXPECT_EQ(restored.tree_age(t), original.tree_age(t));
    EXPECT_DOUBLE_EQ(restored.oobe(t), original.oobe(t));
  }
  // Identical continuation.
  util::Rng cont1(5);
  util::Rng cont2(5);
  feed(original, 1500, cont1);
  feed(restored, 1500, cont2);
  util::Rng probe(7);
  for (int i = 0; i < 50; ++i) {
    const float v = static_cast<float>(probe.uniform());
    const std::vector<float> x = {v, 1.0f - v};
    EXPECT_DOUBLE_EQ(restored.predict_proba(x), original.predict_proba(x));
  }
}

TEST(Checkpoint, ForestShapeMismatchThrows) {
  core::OnlineForest forest(2, forest_params(), 11);
  std::stringstream buffer;
  forest.save(buffer);
  core::OnlineForest narrow(1, forest_params(), 11);
  EXPECT_THROW(narrow.restore(buffer), std::runtime_error);
}

TEST(Checkpoint, GarbageStreamThrows) {
  core::OnlineForest forest(2, forest_params(), 11);
  std::stringstream buffer("definitely not a checkpoint");
  EXPECT_THROW(forest.restore(buffer), std::runtime_error);
}

TEST(Checkpoint, PredictorFullStateRoundTrip) {
  engine::EngineParams params;
  params.forest = forest_params();
  params.queue_capacity = 5;
  engine::FleetEngine original(2, params, 13);

  util::Rng rng(42);
  for (int day = 0; day < 40; ++day) {
    for (data::DiskId disk = 0; disk < 12; ++disk) {
      const float v = static_cast<float>(rng.uniform());
      original.observe(disk, std::vector<float>{v, 1.0f - v});
    }
    if (day == 25) original.disk_failed(3);
  }

  std::stringstream buffer;
  original.save(buffer);
  engine::FleetEngine restored(2, params, 999);
  restored.restore(buffer);

  EXPECT_EQ(restored.tracked_disks(), original.tracked_disks());
  EXPECT_EQ(restored.positives_released(), original.positives_released());
  EXPECT_EQ(restored.negatives_released(), original.negatives_released());
  // Pure scoring agrees...
  util::Rng probe(7);
  for (int i = 0; i < 30; ++i) {
    const float v = static_cast<float>(probe.uniform());
    const std::vector<float> x = {v, 1.0f - v};
    EXPECT_DOUBLE_EQ(restored.score(x), original.score(x));
  }
  // ...and so does continued operation (queue evictions included).
  util::Rng cont1(9);
  util::Rng cont2(9);
  for (int day = 0; day < 20; ++day) {
    for (data::DiskId disk = 0; disk < 12; ++disk) {
      const float v1 = static_cast<float>(cont1.uniform());
      const float v2 = static_cast<float>(cont2.uniform());
      const auto a = original.observe(disk, std::vector<float>{v1, 1.0f - v1});
      const auto b = restored.observe(disk, std::vector<float>{v2, 1.0f - v2});
      ASSERT_DOUBLE_EQ(a.score, b.score);
      ASSERT_EQ(a.alarm, b.alarm);
    }
  }
  EXPECT_EQ(restored.negatives_released(), original.negatives_released());
}

TEST(Checkpoint, PredictorFileRoundTrip) {
  engine::EngineParams params;
  params.forest = forest_params();
  engine::FleetEngine predictor(2, params, 13);
  util::Rng rng(42);
  for (int i = 0; i < 200; ++i) {
    const float v = static_cast<float>(rng.uniform());
    predictor.observe(static_cast<data::DiskId>(i % 10),
                      std::vector<float>{v, 1.0f - v});
  }
  const std::string path = ::testing::TempDir() + "/orf_monitor_ckpt.txt";
  predictor.save_file(path);
  engine::FleetEngine restored(2, params, 1);
  restored.restore_file(path);
  EXPECT_EQ(restored.tracked_disks(), predictor.tracked_disks());
  EXPECT_THROW(restored.restore_file("/nonexistent/ckpt"),
               std::runtime_error);
  // The same state written without the CRC envelope is refused, not read.
  {
    std::ofstream os(path, std::ios::trunc);
    predictor.save(os);
  }
  EXPECT_THROW(restored.restore_file(path), robust::CorruptCheckpoint);
}

}  // namespace
