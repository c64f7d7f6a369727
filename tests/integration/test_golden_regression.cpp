// Golden end-to-end regression: a fixed synthetic fleet streamed through
// the full deployment loop (datagen → FleetEngine → eval metrics) must
// reproduce the committed numbers in
// tests/golden/fleet_stream.golden EXACTLY — doubles are compared as
// hexfloat strings, so a single ULP of drift anywhere in the pipeline
// (scaler, forest arithmetic, alarm thresholding, metric aggregation) fails
// the test. This is the tripwire for "harmless" refactors that silently
// move the numerics.
//
// Regenerating the golden (only after an INTENTIONAL behaviour change,
// with the diff reviewed like code):
//
//   ./build/tests/test_integration --regen-goldens
//       [--gtest_filter='GoldenRegression.*']
//
// or equivalently ORF_REGEN_GOLDENS=1 with any runner (the env var exists
// because ctest makes passing bare argv flags awkward). The test then
// rewrites tests/golden/fleet_stream.golden in the source tree and FAILS,
// so a regen can never masquerade as a green run.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "data/types.hpp"
#include "datagen/fleet_generator.hpp"
#include "datagen/profile.hpp"
#include "engine/fleet_engine.hpp"
#include "eval/fleet_stream.hpp"
#include "eval/metrics.hpp"

namespace {

const char* const kGoldenRelPath = "/golden/fleet_stream.golden";

bool regen_requested() {
  if (std::getenv("ORF_REGEN_GOLDENS") != nullptr) return true;
  for (const auto& arg : testing::internal::GetArgvs()) {
    if (arg == "--regen-goldens") return true;
  }
  return false;
}

std::string hex(double v) {
  std::ostringstream os;
  os << std::hexfloat << v;
  return os.str();
}

/// The scenario under glass. Deliberately big enough that every stage runs
/// for real (warm-up, failures, alarms, queue releases) yet small enough to
/// finish in about a second.
std::string run_scenario() {
  datagen::FleetProfile profile = datagen::sta_profile(0.012);
  profile.duration_days = 10 * data::kDaysPerMonth;
  const auto dataset = datagen::generate_fleet(profile, /*seed=*/17);

  engine::EngineParams params;
  params.forest.n_trees = 12;
  params.forest.tree.n_tests = 96;
  params.forest.tree.min_parent_size = 100;
  params.forest.tree.min_gain = 0.08;
  params.forest.lambda_pos = 1.0;
  params.forest.lambda_neg = 0.02;
  params.alarm_threshold = 0.5;
  params.shards = 4;  // results are shard-invariant; pick a parallel shape
  engine::FleetEngine predictor(dataset.feature_count(), params, /*seed=*/23);
  const auto result = eval::stream_fleet(dataset, predictor);
  const auto metrics =
      result.metrics(data::kHorizonDays, 3 * data::kDaysPerMonth);

  std::uint64_t alarmed_disks = 0;
  std::uint64_t first_alarm_day_sum = 0;
  for (const auto& disk : result.disks) {
    if (!disk.alarm_days.empty()) {
      ++alarmed_disks;
      first_alarm_day_sum += static_cast<std::uint64_t>(disk.alarm_days[0]);
    }
  }

  std::ostringstream os;
  os << "samples_processed " << result.samples_processed << "\n"
     << "total_alarms " << result.total_alarms << "\n"
     << "alarmed_disks " << alarmed_disks << "\n"
     << "first_alarm_day_sum " << first_alarm_day_sum << "\n"
     << "positives_released " << predictor.positives_released() << "\n"
     << "negatives_released " << predictor.negatives_released() << "\n"
     << "fdr_percent " << hex(metrics.fdr) << "\n"
     << "far_percent " << hex(metrics.far) << "\n"
     << "true_positives " << metrics.true_positives << "\n"
     << "false_positives " << metrics.false_positives << "\n"
     << "failed_disks " << metrics.failed_disks << "\n"
     << "good_disks " << metrics.good_disks << "\n";
  return os.str();
}

TEST(GoldenRegression, FleetStreamReproducesCommittedGolden) {
  const std::string golden_path =
      std::string(ORF_TESTS_SOURCE_DIR) + kGoldenRelPath;
  const std::string actual = run_scenario();

  if (regen_requested()) {
    std::ofstream out(golden_path, std::ios::trunc);
    ASSERT_TRUE(out) << "cannot write " << golden_path;
    out << actual;
    FAIL() << "golden regenerated at " << golden_path
           << " — review the diff and rerun without --regen-goldens";
  }

  std::ifstream in(golden_path);
  ASSERT_TRUE(in) << "missing golden " << golden_path
                  << " (generate with --regen-goldens)";
  std::stringstream expected;
  expected << in.rdbuf();
  EXPECT_EQ(expected.str(), actual)
      << "pipeline output drifted from the committed golden; if the change "
         "is intentional, regenerate with --regen-goldens and review";
}

}  // namespace
