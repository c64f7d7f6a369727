// orf::Config: the one flags+env parser behind every binary. Holds the
// layering (sections → engine params), the precedence contract (flag beats
// ORF_* environment beats default), typed parse errors naming their source,
// and validate() rejecting inconsistent combinations.
#include "orf/config.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

namespace {

util::Flags make_flags(std::vector<std::string> args) {
  args.insert(args.begin(), "test");
  std::vector<char*> argv;
  argv.reserve(args.size());
  for (std::string& arg : args) argv.push_back(arg.data());
  return util::Flags(static_cast<int>(argv.size()), argv.data());
}

/// RAII environment variable (the parser reads ORF_* fallbacks).
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    ::setenv(name, value, /*overwrite=*/1);
  }
  ~ScopedEnv() { ::unsetenv(name_); }

 private:
  const char* name_;
};

TEST(OrfConfig, DefaultsValidateAndMapToEngineParams) {
  const orf::Config config = orf::Config::from_flags(make_flags({}));
  EXPECT_NO_THROW(config.validate());

  const engine::EngineParams params = config.engine_params();
  EXPECT_EQ(params.forest.n_trees, config.forest.n_trees);
  EXPECT_EQ(params.queue_capacity, config.queue.capacity);
  EXPECT_DOUBLE_EQ(params.alarm_threshold, config.engine.alarm_threshold);
  EXPECT_EQ(params.shards, config.engine.shards);
  EXPECT_EQ(params.ingest_errors, config.engine.ingest_errors);
  EXPECT_EQ(params.flat_scoring, config.engine.flat_scoring);
}

TEST(OrfConfig, FlagsReachEverySection) {
  const orf::Config config = orf::Config::from_flags(make_flags(
      {"--trees=12", "--lambda-pos=0.8", "--lambda-neg=0.05", "--seed=7",
       "--shards=3", "--threads=2", "--alarm-threshold=0.7",
       "--flat-scoring=false", "--row-errors=quarantine",
       "--queue-capacity=14", "--checkpoint-dir=/tmp/x",
       "--checkpoint-every=10", "--checkpoint-keep=5", "--bind=0.0.0.0",
       "--port=9999", "--serve-workers=3", "--idle-timeout-ms=5000",
       "--max-in-flight=2", "--max-body-bytes=1024", "--retry-after=3"}));
  EXPECT_EQ(config.forest.n_trees, 12);
  EXPECT_DOUBLE_EQ(config.forest.lambda_pos, 0.8);
  EXPECT_DOUBLE_EQ(config.forest.lambda_neg, 0.05);
  EXPECT_EQ(config.seed, 7u);
  EXPECT_EQ(config.engine.shards, 3u);
  EXPECT_EQ(config.engine.threads, 2u);
  EXPECT_DOUBLE_EQ(config.engine.alarm_threshold, 0.7);
  EXPECT_FALSE(config.engine.flat_scoring);
  EXPECT_EQ(config.engine.ingest_errors, robust::RowErrorPolicy::kQuarantine);
  EXPECT_EQ(config.queue.capacity, 14u);
  EXPECT_EQ(config.robust.checkpoint_dir, "/tmp/x");
  EXPECT_EQ(config.robust.checkpoint_every, 10);
  EXPECT_EQ(config.robust.checkpoint_keep, 5u);
  EXPECT_EQ(config.serve.bind_address, "0.0.0.0");
  EXPECT_EQ(config.serve.port, 9999);
  EXPECT_EQ(config.serve.workers, 3u);
  EXPECT_EQ(config.serve.idle_timeout_ms, 5000);
  EXPECT_EQ(config.serve.max_in_flight, 2u);
  EXPECT_EQ(config.serve.max_body_bytes, 1024u);
  EXPECT_EQ(config.serve.retry_after_seconds, 3);
}

TEST(OrfConfig, DurabilityAndSheddingKnobsReachTheirSections) {
  // Defaults: WAL on with batched fsync, deadline and shedding off.
  const orf::Config defaults = orf::Config::from_flags(make_flags({}));
  EXPECT_TRUE(defaults.robust.wal);
  EXPECT_EQ(defaults.robust.wal_sync, "batch");
  EXPECT_EQ(defaults.serve.request_deadline_ms, 0);
  EXPECT_EQ(defaults.serve.shed_high_water, 0u);

  const orf::Config config = orf::Config::from_flags(make_flags(
      {"--wal=false", "--wal-sync=always", "--request-deadline-ms=250",
       "--shed-high-water=96"}));
  EXPECT_FALSE(config.robust.wal);
  EXPECT_EQ(config.robust.wal_sync, "always");
  EXPECT_EQ(config.serve.request_deadline_ms, 250);
  EXPECT_EQ(config.serve.shed_high_water, 96u);

  const ScopedEnv sync("ORF_WAL_SYNC", "off");
  const ScopedEnv deadline("ORF_REQUEST_DEADLINE_MS", "90");
  const orf::Config from_env = orf::Config::from_flags(make_flags({}));
  EXPECT_EQ(from_env.robust.wal_sync, "off");
  EXPECT_EQ(from_env.serve.request_deadline_ms, 90);
  EXPECT_EQ(orf::Config::from_flags(make_flags({"--wal-sync=batch"}))
                .robust.wal_sync,
            "batch");  // flag beats ORF_WAL_SYNC
}

TEST(OrfConfig, DurabilityKnobsValidate) {
  // wal-sync names its legal values in the error.
  try {
    orf::Config::from_flags(make_flags({"--wal-sync=sometimes"}));
    FAIL() << "expected ConfigError";
  } catch (const orf::ConfigError& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("sometimes"), std::string::npos) << what;
    EXPECT_NE(what.find("always|batch|off"), std::string::npos) << what;
  }
  EXPECT_THROW(
      orf::Config::from_flags(make_flags({"--request-deadline-ms=-5"})),
      orf::ConfigError);
}

TEST(OrfConfig, BackendKnobResolvesFlagThenEnvThenDefault) {
  EXPECT_EQ(orf::Config::from_flags(make_flags({})).engine.backend, "orf");

  const orf::Config flagged =
      orf::Config::from_flags(make_flags({"--backend=mondrian"}));
  EXPECT_EQ(flagged.engine.backend, "mondrian");
  EXPECT_EQ(flagged.engine_params().backend, "mondrian");

  const ScopedEnv env("ORF_BACKEND", "mondrian");
  EXPECT_EQ(orf::Config::from_flags(make_flags({})).engine.backend,
            "mondrian");
  EXPECT_EQ(
      orf::Config::from_flags(make_flags({"--backend=orf"})).engine.backend,
      "orf");  // flag beats ORF_BACKEND
}

TEST(OrfConfig, UnknownBackendFailsValidationNamingTheChoices) {
  try {
    orf::Config::from_flags(make_flags({"--backend=xgboost"}));
    FAIL() << "expected ConfigError";
  } catch (const orf::ConfigError& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("xgboost"), std::string::npos) << what;
    EXPECT_NE(what.find("orf"), std::string::npos) << what;
    EXPECT_NE(what.find("mondrian"), std::string::npos) << what;
  }
}

TEST(OrfConfig, MondrianSectionMapsToEngineParams) {
  const orf::Config config = orf::Config::from_flags(make_flags(
      {"--backend=mondrian", "--mondrian-lifetime=12.5", "--trees=9",
       "--lambda-pos=0.8", "--lambda-neg=0.05"}));
  const engine::EngineParams params = config.engine_params();
  EXPECT_EQ(params.backend, "mondrian");
  EXPECT_DOUBLE_EQ(params.mondrian.lifetime, 12.5);
  // The shared forest knobs configure whichever backend runs.
  EXPECT_EQ(params.mondrian.n_trees, 9);
  EXPECT_DOUBLE_EQ(params.mondrian.lambda_pos, 0.8);
  EXPECT_DOUBLE_EQ(params.mondrian.lambda_neg, 0.05);

  EXPECT_THROW(
      orf::Config::from_flags(make_flags({"--mondrian-lifetime=-1"})),
      orf::ConfigError);
  EXPECT_THROW(
      orf::Config::from_flags(make_flags({"--mondrian-lifetime=soon"})),
      orf::ConfigError);
}

TEST(OrfConfig, EnvironmentIsTheFallbackAndFlagsWin) {
  const ScopedEnv port("ORF_PORT", "7070");
  const ScopedEnv trees("ORF_TREES", "9");
  {
    const orf::Config config = orf::Config::from_flags(make_flags({}));
    EXPECT_EQ(config.serve.port, 7070);
    EXPECT_EQ(config.forest.n_trees, 9);
  }
  {
    const orf::Config config =
        orf::Config::from_flags(make_flags({"--port=8081"}));
    EXPECT_EQ(config.serve.port, 8081);  // flag beats ORF_PORT
    EXPECT_EQ(config.forest.n_trees, 9);
  }
}

TEST(OrfConfig, TypedParseErrorsNameTheSource) {
  try {
    orf::Config::from_flags(make_flags({"--port=http"}));
    FAIL() << "expected ConfigError";
  } catch (const orf::ConfigError& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("--port"), std::string::npos) << what;
    EXPECT_NE(what.find("ORF_PORT"), std::string::npos) << what;
  }
  EXPECT_THROW(orf::Config::from_flags(make_flags({"--flat-scoring=maybe"})),
               orf::ConfigError);
  EXPECT_THROW(orf::Config::from_flags(make_flags({"--row-errors=lenient"})),
               orf::ConfigError);
  const ScopedEnv env("ORF_TREES", "many");
  EXPECT_THROW(orf::Config::from_flags(make_flags({})), orf::ConfigError);
}

TEST(OrfConfig, ValidateRejectsInconsistentCombinations) {
  orf::Config config;
  EXPECT_NO_THROW(config.validate());

  config.forest.n_trees = 0;
  EXPECT_THROW(config.validate(), orf::ConfigError);
  config = {};

  config.engine.alarm_threshold = 1.5;
  EXPECT_THROW(config.validate(), orf::ConfigError);
  config = {};

  config.queue.capacity = 0;
  EXPECT_THROW(config.validate(), orf::ConfigError);
  config = {};

  config.robust.resume = true;  // without a checkpoint directory
  EXPECT_THROW(config.validate(), orf::ConfigError);
  config = {};

  config.serve.port = 70000;
  EXPECT_THROW(config.validate(), orf::ConfigError);
  config = {};

  config.serve.idle_timeout_ms = 0;
  EXPECT_THROW(config.validate(), orf::ConfigError);
}

TEST(OrfConfig, FromFlagsValidates) {
  EXPECT_THROW(orf::Config::from_flags(make_flags({"--trees=0"})),
               orf::ConfigError);
  EXPECT_THROW(orf::Config::from_flags(make_flags({"--resume"})),
               orf::ConfigError);
}

TEST(OrfConfig, ConfigErrorIsAFlagError) {
  // Binaries catch util::FlagError once for both parse and config problems.
  EXPECT_THROW(orf::Config::from_flags(make_flags({"--port=http"})),
               util::FlagError);
}

TEST(OrfConfig, FlagSpecsCoverTheSharedKnobsInUsageText) {
  const std::string usage = util::usage_text("orfd", orf::Config::flag_specs());
  for (const char* flag :
       {"--backend", "--mondrian-lifetime", "--trees", "--port",
        "--checkpoint-dir", "--row-errors", "--resume", "--max-in-flight",
        "--serve-workers", "--idle-timeout-ms", "--wal",
        "--wal-sync",
        "--request-deadline-ms", "--shed-high-water", "--oobe-threshold",
        "--tsdb-retain-days", "--help"}) {
    EXPECT_NE(usage.find(flag), std::string::npos) << flag << "\n" << usage;
  }
}

TEST(OrfConfig, RemovedBatchKnobsAreUnknownFlags) {
  // The score batcher sizes its batches from the queue; the old deadline
  // and row-cap knobs are gone, and orfd rejects them like any typo.
  for (const char* flag :
       {"--batch-max-wait-us=200", "--batch-max-rows=128"}) {
    EXPECT_THROW(make_flags({flag}).enforce("orfd", orf::Config::flag_specs()),
                 util::FlagError)
        << flag;
  }
  const std::string usage = util::usage_text("orfd", orf::Config::flag_specs());
  EXPECT_EQ(usage.find("--batch-max"), std::string::npos) << usage;
}

TEST(OrfConfig, RemovedServeKnobsAreUnknownFlags) {
  // The reactor is the only serving stack; the knobs that picked the
  // thread-per-connection server and sized its pool are gone.
  for (const char* flag : {"--serve-mode=blocking", "--serve-threads=8"}) {
    EXPECT_THROW(make_flags({flag}).enforce("orfd", orf::Config::flag_specs()),
                 util::FlagError)
        << flag;
  }
  const std::string usage = util::usage_text("orfd", orf::Config::flag_specs());
  EXPECT_EQ(usage.find("--serve-mode"), std::string::npos) << usage;
  EXPECT_EQ(usage.find("--serve-threads"), std::string::npos) << usage;
}

TEST(OrfConfig, HistoryConsumerKnobsParseAndValidate) {
  const orf::Config config = orf::Config::from_flags(
      make_flags({"--oobe-threshold=0.3", "--tsdb-retain-days=90"}));
  EXPECT_DOUBLE_EQ(config.forest.oobe_threshold, 0.3);
  EXPECT_EQ(config.tsdb.retain_days, 90);

  EXPECT_THROW(orf::Config::from_flags(make_flags({"--oobe-threshold=1.5"})),
               orf::ConfigError);
  EXPECT_THROW(orf::Config::from_flags(make_flags({"--tsdb-retain-days=-7"})),
               orf::ConfigError);
}

TEST(OrfConfig, WithOverridesClonesAndRetunes) {
  orf::Config base;
  base.forest.n_trees = 7;
  base.seed = 11;

  orf::ConfigOverrides overrides;
  EXPECT_TRUE(overrides.empty());
  overrides.set("lambda-pos", "0.5")
      .set("oobe-threshold", "0.3")
      .set("backend", "mondrian")
      .set("shards", "3");
  EXPECT_FALSE(overrides.empty());

  const orf::Config cell = base.with_overrides(overrides);
  // Retuned knobs land; everything else is the base's.
  EXPECT_DOUBLE_EQ(cell.forest.lambda_pos, 0.5);
  EXPECT_DOUBLE_EQ(cell.forest.oobe_threshold, 0.3);
  EXPECT_EQ(cell.engine.backend, "mondrian");
  EXPECT_EQ(cell.engine.shards, 3u);
  EXPECT_EQ(cell.forest.n_trees, 7);
  EXPECT_EQ(cell.seed, 11u);
  // The base is untouched (clone, not mutate).
  EXPECT_EQ(base.engine.backend, "orf");

  // describe() uses the canonical flag spellings, deterministically.
  const std::string label = overrides.describe();
  for (const char* piece :
       {"lambda-pos=0.5", "oobe-threshold=0.3", "backend=mondrian",
        "shards=3"}) {
    EXPECT_NE(label.find(piece), std::string::npos) << label;
  }
}

TEST(OrfConfig, OverridesRejectUnknownKnobsAndBadValuesAndRevalidate) {
  orf::ConfigOverrides overrides;
  try {
    overrides.set("lambda", "0.5");  // not a knob spelling
    FAIL() << "expected ConfigError";
  } catch (const orf::ConfigError& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("lambda"), std::string::npos) << what;
    EXPECT_NE(what.find("lambda-pos"), std::string::npos)
        << "error should list the knobs: " << what;
  }
  EXPECT_THROW(overrides.set("trees", "many"), orf::ConfigError);

  // with_overrides re-validates the derived config.
  overrides = {};
  overrides.set("oobe-threshold", "1.5");
  EXPECT_THROW((void)orf::Config{}.with_overrides(overrides),
               orf::ConfigError);
}

}  // namespace
