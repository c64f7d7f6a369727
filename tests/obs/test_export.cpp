// Exporter golden tests: exact Prometheus text exposition and exact JSONL
// output for a hand-built registry. These strings are the wire contract —
// change them deliberately or not at all.
#include <gtest/gtest.h>

#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>

#include "obs/export.hpp"
#include "obs/registry.hpp"
#include "util/rng.hpp"

namespace {

obs::Registry golden_registry() {
  obs::Registry registry;
  registry.counter("orf_requests_total", "requests served").inc(3);
  registry.counter("orf_shard_ops_total", "per-shard ops", {{"shard", "0"}})
      .inc(5);
  registry.counter("orf_shard_ops_total", "per-shard ops", {{"shard", "1"}})
      .inc(7);
  registry.gauge("orf_queue_depth", "live queue depth").set(1.5);
  obs::Histogram& h =
      registry.histogram("orf_latency_seconds", "op latency", {0.1, 1.0},
                         {{"stage", "scale"}});
  h.observe(0.05);
  h.observe(0.05);
  h.observe(0.5);
  h.observe(10.0);
  return registry;
}

TEST(PrometheusExport, GoldenExposition) {
  const std::string expected =
      "# HELP orf_requests_total requests served\n"
      "# TYPE orf_requests_total counter\n"
      "orf_requests_total 3\n"
      "# HELP orf_shard_ops_total per-shard ops\n"
      "# TYPE orf_shard_ops_total counter\n"
      "orf_shard_ops_total{shard=\"0\"} 5\n"
      "orf_shard_ops_total{shard=\"1\"} 7\n"
      "# HELP orf_queue_depth live queue depth\n"
      "# TYPE orf_queue_depth gauge\n"
      "orf_queue_depth 1.5\n"
      "# HELP orf_latency_seconds op latency\n"
      "# TYPE orf_latency_seconds histogram\n"
      "orf_latency_seconds_bucket{stage=\"scale\",le=\"0.1\"} 2\n"
      "orf_latency_seconds_bucket{stage=\"scale\",le=\"1\"} 3\n"
      "orf_latency_seconds_bucket{stage=\"scale\",le=\"+Inf\"} 4\n"
      "orf_latency_seconds_sum{stage=\"scale\"} 10.6\n"
      "orf_latency_seconds_count{stage=\"scale\"} 4\n";
  EXPECT_EQ(obs::to_prometheus(golden_registry().snapshot()), expected);
}

TEST(JsonExport, GoldenLine) {
  // p50 of {0.05, 0.05, 0.5, 10}: rank 2 lands at the first bucket's upper
  // bound; p95/p99 land in the overflow bucket → clamped to le=1.
  const std::string expected =
      "{\"day\":117,"
      "\"counters\":{"
      "\"orf_requests_total\":3,"
      "\"orf_shard_ops_total{shard=\\\"0\\\"}\":5,"
      "\"orf_shard_ops_total{shard=\\\"1\\\"}\":7},"
      "\"gauges\":{\"orf_queue_depth\":1.5},"
      "\"histograms\":{\"orf_latency_seconds{stage=\\\"scale\\\"}\":"
      "{\"count\":4,\"sum\":10.6,\"p50\":0.1,\"p95\":1,\"p99\":1,"
      "\"buckets\":{\"0.1\":2,\"1\":3,\"+Inf\":4}}}}";
  EXPECT_EQ(obs::to_json(golden_registry().snapshot(), {{"day", 117.0}}),
            expected);
}

TEST(JsonExport, EmptyRegistry) {
  obs::Registry registry;
  EXPECT_EQ(obs::to_json(registry.snapshot()),
            "{\"counters\":{},\"gauges\":{},\"histograms\":{}}");
}

TEST(PrometheusExport, EscapesLabelValuesAndHelp) {
  obs::Registry registry;
  registry
      .counter("c_total", "line1\nline2 with \\ slash",
               {{"path", "a\"b\\c\nd"}})
      .inc();
  const std::string expected =
      "# HELP c_total line1\\nline2 with \\\\ slash\n"
      "# TYPE c_total counter\n"
      "c_total{path=\"a\\\"b\\\\c\\nd\"} 1\n";
  EXPECT_EQ(obs::to_prometheus(registry.snapshot()), expected);
}

TEST(JsonExport, EscapesKeys) {
  obs::Registry registry;
  registry.counter("c_total", "help", {{"path", "a\"b"}}).inc();
  EXPECT_EQ(obs::to_json(registry.snapshot()),
            "{\"counters\":{\"c_total{path=\\\"a\\\\\\\"b\\\"}\":1},"
            "\"gauges\":{},\"histograms\":{}}");
}

TEST(FormatDouble, ShortestRoundTrip) {
  EXPECT_EQ(obs::format_double(0.0), "0");
  EXPECT_EQ(obs::format_double(1.5), "1.5");
  EXPECT_EQ(obs::format_double(0.1), "0.1");
  EXPECT_EQ(obs::format_double(1.0 / 3.0), "0.3333333333333333");
  EXPECT_EQ(obs::format_double(33.554432), "33.554432");
  EXPECT_EQ(obs::format_double(1e-6), "1e-06");
}

/// The formatting contract spelled out directly: snprintf("%.*g") at
/// precisions 1..17 until strtod gives the value back.
std::string oracle_format(double v) {
  if (std::isnan(v)) return "NaN";
  if (std::isinf(v)) return v > 0 ? "+Inf" : "-Inf";
  char buf[64];
  for (int precision = 1; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof(buf), "%.*g", precision, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  return buf;
}

/// format_double and append_double must both print the oracle's bytes.
void expect_matches_oracle(double v, std::size_t& checked) {
  ++checked;
  const std::string expected = oracle_format(v);
  std::string appended = "x";
  obs::append_double(appended, v);
  if (obs::format_double(v) != expected || appended != "x" + expected) {
    ADD_FAILURE() << "bits 0x" << std::hex << std::bit_cast<std::uint64_t>(v)
                  << ": format_double gave '" << obs::format_double(v)
                  << "', oracle '" << expected << "'";
  }
}

TEST(FormatDouble, MatchesPrintfSearchOnSpecialValues) {
  std::size_t checked = 0;
  const double specials[] = {
      0.0, -0.0, 1.0, -1.0, 0.1, 0.5, 1e-6, 1e21, 1e22, 1e23, 123456789.0,
      std::numeric_limits<double>::min(), std::numeric_limits<double>::max(),
      -std::numeric_limits<double>::max(),
      std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::epsilon(), FLT_MAX, FLT_MIN, FLT_TRUE_MIN,
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::quiet_NaN()};
  for (const double v : specials) expect_matches_oracle(v, checked);
  // Every power of two and its neighbours one ulp either side, both signs.
  for (int e = -1074; e <= 1023; ++e) {
    const double p = std::ldexp(1.0, e);
    for (const double v : {p, std::nextafter(p, 0.0),
                           std::nextafter(p, HUGE_VAL)}) {
      expect_matches_oracle(v, checked);
      expect_matches_oracle(-v, checked);
    }
  }
  EXPECT_GT(checked, 12000u);
}

/// 8 shards × 22k rounds × 6 doubles ≈ 1.06M seeded doubles against the
/// oracle; sharded so ctest can spread the oracle's cost over cores.
class FormatDoubleSeeded : public ::testing::TestWithParam<int> {};

TEST_P(FormatDoubleSeeded, MatchesPrintfSearch) {
  util::Rng rng(0x5eedf0ULL + static_cast<std::uint64_t>(GetParam()));
  std::size_t checked = 0;
  for (int i = 0; i < 22'000; ++i) {
    // Raw bit patterns: every exponent, subnormals included (NaN/inf too).
    expect_matches_oracle(std::bit_cast<double>(rng()), checked);
    // Scores and rates: uniform in [0, 1) and a wide log-uniform span.
    expect_matches_oracle(rng.uniform(), checked);
    expect_matches_oracle(std::copysign(std::exp(rng.uniform(-700.0, 700.0)),
                                        rng.uniform() - 0.5),
                          checked);
    // Float-cast values (every feature cell) and k/n fractions.
    expect_matches_oracle(static_cast<double>(std::bit_cast<float>(
                              static_cast<std::uint32_t>(rng()))),
                          checked);
    expect_matches_oracle(static_cast<double>(rng.below(100'000)) /
                              static_cast<double>(rng.range(1, 999)),
                          checked);
    // Subnormal doubles specifically.
    expect_matches_oracle(
        std::bit_cast<double>(rng() & ((std::uint64_t{1} << 52) - 1)),
        checked);
    if (HasFailure()) return;
  }
  EXPECT_EQ(checked, 6u * 22'000u);
}

INSTANTIATE_TEST_SUITE_P(Shards, FormatDoubleSeeded, ::testing::Range(0, 8));

}  // namespace
