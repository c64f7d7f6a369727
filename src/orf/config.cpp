#include "orf/config.hpp"

#include <array>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <string_view>

namespace orf {

namespace {

/// ORF_<NAME> spelling of a --flag-name.
std::string env_name(std::string_view flag) {
  std::string name = "ORF_";
  for (const char c : flag) {
    name += c == '-' ? '_'
                     : static_cast<char>(std::toupper(
                           static_cast<unsigned char>(c)));
  }
  return name;
}

/// One config knob resolved flag-first, then ORF_* environment, then the
/// built-in default. Typed parses throw ConfigError naming the source.
class Source {
 public:
  explicit Source(const util::Flags& flags) : flags_(flags) {}

  std::string get(const std::string& flag, const std::string& fallback) const {
    if (flags_.has(flag)) return flags_.get(flag, fallback);
    if (const char* env = std::getenv(env_name(flag).c_str())) return env;
    return fallback;
  }

  std::int64_t get_int(const std::string& flag, std::int64_t fallback) const {
    const std::string text = get(flag, "");
    if (text.empty()) return fallback;
    char* end = nullptr;
    const std::int64_t value = std::strtoll(text.c_str(), &end, 10);
    if (end == text.c_str() || *end != '\0') {
      throw ConfigError("--" + flag + " (or " + env_name(flag) +
                        ") expects an integer, got '" + text + "'");
    }
    return value;
  }

  double get_double(const std::string& flag, double fallback) const {
    const std::string text = get(flag, "");
    if (text.empty()) return fallback;
    char* end = nullptr;
    const double value = std::strtod(text.c_str(), &end);
    if (end == text.c_str() || *end != '\0') {
      throw ConfigError("--" + flag + " (or " + env_name(flag) +
                        ") expects a number, got '" + text + "'");
    }
    return value;
  }

  bool get_bool(const std::string& flag, bool fallback) const {
    const std::string v = get(flag, "");
    if (v.empty()) return fallback;
    if (v == "true" || v == "1" || v == "yes" || v == "on") return true;
    if (v == "false" || v == "0" || v == "no" || v == "off") return false;
    throw ConfigError("--" + flag + " (or " + env_name(flag) +
                      ") expects a boolean, got '" + v + "'");
  }

 private:
  const util::Flags& flags_;
};

constexpr std::array kFlagSpecs = {
    util::FlagSpec{"backend", "NAME", "model backend (orf | mondrian)"},
    util::FlagSpec{"trees", "N", "forest size T"},
    util::FlagSpec{"mondrian-lifetime", "F",
                   "Mondrian budget (mondrian backend only)"},
    util::FlagSpec{"lambda-pos", "F", "Poisson rate for positive samples"},
    util::FlagSpec{"lambda-neg", "F", "Poisson rate for negative samples"},
    util::FlagSpec{"oobe-threshold", "F",
                   "tree-replacement OOBE threshold theta_OOBE"},
    util::FlagSpec{"seed", "N", "RNG seed of the whole pipeline"},
    util::FlagSpec{"shards", "N", "engine disk shards (0 = auto)"},
    util::FlagSpec{"threads", "N", "engine stage threads (1 = no pool)"},
    util::FlagSpec{"alarm-threshold", "F", "alarm threshold on the score"},
    util::FlagSpec{"flat-scoring", "BOOL",
                   "score through the compiled flat kernel"},
    util::FlagSpec{"row-errors", "strict|skip|quarantine",
                   "dirty ingest-report policy"},
    util::FlagSpec{"queue-capacity", "DAYS",
                   "label-queue capacity = prediction horizon"},
    util::FlagSpec{"checkpoint-dir", "DIR",
                   "rotating crash-safe snapshots (empty = off)"},
    util::FlagSpec{"checkpoint-every", "DAYS",
                   "day batches between snapshots"},
    util::FlagSpec{"checkpoint-keep", "N", "snapshots retained by rotation"},
    util::FlagSpec{"resume", "", "restart from the newest intact snapshot"},
    util::FlagSpec{"wal", "BOOL",
                   "crash-durable ingest WAL under the checkpoint dir"},
    util::FlagSpec{"wal-sync", "always|batch|off", "WAL fsync policy"},
    util::FlagSpec{"tsdb-dir", "DIR",
                   "append-only SMART history store (empty = off)"},
    util::FlagSpec{"tsdb-segment-bytes", "N",
                   "history segment rotation threshold"},
    util::FlagSpec{"tsdb-retain-days", "DAYS",
                   "history retention window (0 = keep everything)"},
    util::FlagSpec{"bind", "ADDR", "daemon bind address"},
    util::FlagSpec{"port", "N", "daemon TCP port (0 = ephemeral)"},
    util::FlagSpec{"serve-workers", "N",
                   "reactor event-loop threads (0 = auto)"},
    util::FlagSpec{"idle-timeout-ms", "MS",
                   "reactor idle/stalled connection timeout"},
    util::FlagSpec{"max-in-flight", "N",
                   "admission bound before responding 429"},
    util::FlagSpec{"max-body-bytes", "N", "largest accepted request body"},
    util::FlagSpec{"retry-after", "SECONDS",
                   "floor of the computed Retry-After hint"},
    util::FlagSpec{"request-deadline-ms", "MS",
                   "shed requests still queued past this deadline (0 = off)"},
    util::FlagSpec{"shed-high-water", "N",
                   "in-flight mark where ingest-class shedding starts "
                   "(0 = off)"},
};

}  // namespace

void Config::validate() const {
  const auto fail = [](const std::string& what) {
    throw ConfigError("config: " + what);
  };
  if (!engine::backend_registered(engine.backend)) {
    std::string known;
    for (const std::string& name : engine::registered_backends()) {
      known += known.empty() ? name : ", " + name;
    }
    fail("engine.backend '" + engine.backend + "' is not registered (known: " +
         known + ")");
  }
  if (forest.n_trees <= 0) fail("forest.n_trees must be positive");
  if (forest.lambda_pos <= 0 || forest.lambda_neg <= 0) {
    fail("forest lambdas must be positive");
  }
  if (forest.oobe_threshold < 0.0 || forest.oobe_threshold > 1.0) {
    fail("forest.oobe_threshold must lie in [0, 1]");
  }
  if (mondrian.lifetime <= 0) fail("mondrian.lifetime must be positive");
  if (engine.alarm_threshold < 0.0 || engine.alarm_threshold > 1.0) {
    fail("engine.alarm_threshold must lie in [0, 1]");
  }
  if (queue.capacity == 0) fail("queue.capacity must be positive");
  if (robust.resume && robust.checkpoint_dir.empty()) {
    fail("robust.resume requires robust.checkpoint_dir");
  }
  if (!robust.checkpoint_dir.empty() && robust.checkpoint_every <= 0) {
    fail("robust.checkpoint_every must be a positive day count");
  }
  if (robust.checkpoint_keep == 0) fail("robust.checkpoint_keep must be >= 1");
  if (robust.wal_sync != "always" && robust.wal_sync != "batch" &&
      robust.wal_sync != "off") {
    fail("robust.wal_sync must be always|batch|off, got '" + robust.wal_sync +
         "'");
  }
  if (tsdb.retain_days < 0) fail("tsdb.retain_days must be >= 0");
  if (!tsdb.directory.empty()) {
    if (tsdb.segment_max_bytes == 0) {
      fail("tsdb.segment_max_bytes must be positive");
    }
    // The history flush rides the checkpoint cadence even without a
    // checkpoint directory, so the cadence must be meaningful.
    if (robust.checkpoint_every <= 0) {
      fail("robust.checkpoint_every must be a positive day count");
    }
  }
  if (serve.port < 0 || serve.port > 65535) {
    fail("serve.port must lie in [0, 65535]");
  }
  if (serve.idle_timeout_ms <= 0) {
    fail("serve.idle_timeout_ms must be positive");
  }
  if (serve.max_body_bytes == 0) fail("serve.max_body_bytes must be positive");
  if (serve.retry_after_seconds < 0) {
    fail("serve.retry_after_seconds must be >= 0");
  }
  if (serve.request_deadline_ms < 0) {
    fail("serve.request_deadline_ms must be >= 0");
  }
}

engine::EngineParams Config::engine_params() const {
  engine::EngineParams params;
  params.backend = engine.backend;
  params.forest = forest;
  // The mondrian backend shares the ensemble-size and bagging knobs with the
  // forest section (one spelling per knob); only the budget is its own.
  params.mondrian.n_trees = forest.n_trees;
  params.mondrian.lambda_pos = forest.lambda_pos;
  params.mondrian.lambda_neg = forest.lambda_neg;
  params.mondrian.lifetime = mondrian.lifetime;
  params.queue_capacity = queue.capacity;
  params.alarm_threshold = engine.alarm_threshold;
  params.shards = engine.shards;
  params.ingest_errors = engine.ingest_errors;
  params.flat_scoring = engine.flat_scoring;
  return params;
}

namespace {

std::int64_t override_int(std::string_view knob, const std::string& text) {
  char* end = nullptr;
  const std::int64_t value = std::strtoll(text.c_str(), &end, 10);
  if (end == text.c_str() || *end != '\0') {
    throw ConfigError("override " + std::string(knob) +
                      " expects an integer, got '" + text + "'");
  }
  return value;
}

double override_double(std::string_view knob, const std::string& text) {
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (end == text.c_str() || *end != '\0') {
    throw ConfigError("override " + std::string(knob) +
                      " expects a number, got '" + text + "'");
  }
  return value;
}

std::string describe_double(double value) {
  char text[32];
  std::snprintf(text, sizeof text, "%g", value);
  return text;
}

}  // namespace

ConfigOverrides& ConfigOverrides::set(std::string_view knob,
                                      const std::string& value) {
  if (knob == "backend") {
    backend = value;
  } else if (knob == "trees") {
    trees = static_cast<int>(override_int(knob, value));
  } else if (knob == "lambda-pos") {
    lambda_pos = override_double(knob, value);
  } else if (knob == "lambda-neg") {
    lambda_neg = override_double(knob, value);
  } else if (knob == "oobe-threshold") {
    oobe_threshold = override_double(knob, value);
  } else if (knob == "alarm-threshold") {
    alarm_threshold = override_double(knob, value);
  } else if (knob == "mondrian-lifetime") {
    mondrian_lifetime = override_double(knob, value);
  } else if (knob == "seed") {
    seed = static_cast<std::uint64_t>(override_int(knob, value));
  } else if (knob == "shards") {
    shards = static_cast<std::size_t>(override_int(knob, value));
  } else if (knob == "threads") {
    threads = static_cast<std::size_t>(override_int(knob, value));
  } else if (knob == "queue-capacity") {
    queue_capacity = static_cast<std::size_t>(override_int(knob, value));
  } else {
    throw ConfigError("unknown override knob '" + std::string(knob) +
                      "' (known: backend, trees, lambda-pos, lambda-neg, "
                      "oobe-threshold, alarm-threshold, mondrian-lifetime, "
                      "seed, shards, threads, queue-capacity)");
  }
  return *this;
}

bool ConfigOverrides::empty() const {
  return !backend && !trees && !lambda_pos && !lambda_neg &&
         !oobe_threshold && !alarm_threshold && !mondrian_lifetime && !seed &&
         !shards && !threads && !queue_capacity;
}

std::string ConfigOverrides::describe() const {
  std::string out;
  const auto add = [&out](std::string_view knob, const std::string& value) {
    if (!out.empty()) out += ' ';
    out += knob;
    out += '=';
    out += value;
  };
  if (backend) add("backend", *backend);
  if (trees) add("trees", std::to_string(*trees));
  if (lambda_pos) add("lambda-pos", describe_double(*lambda_pos));
  if (lambda_neg) add("lambda-neg", describe_double(*lambda_neg));
  if (oobe_threshold) add("oobe-threshold", describe_double(*oobe_threshold));
  if (alarm_threshold) {
    add("alarm-threshold", describe_double(*alarm_threshold));
  }
  if (mondrian_lifetime) {
    add("mondrian-lifetime", describe_double(*mondrian_lifetime));
  }
  if (seed) add("seed", std::to_string(*seed));
  if (shards) add("shards", std::to_string(*shards));
  if (threads) add("threads", std::to_string(*threads));
  if (queue_capacity) add("queue-capacity", std::to_string(*queue_capacity));
  return out;
}

Config Config::with_overrides(const ConfigOverrides& overrides) const {
  Config out = *this;
  if (overrides.backend) out.engine.backend = *overrides.backend;
  if (overrides.trees) out.forest.n_trees = *overrides.trees;
  if (overrides.lambda_pos) out.forest.lambda_pos = *overrides.lambda_pos;
  if (overrides.lambda_neg) out.forest.lambda_neg = *overrides.lambda_neg;
  if (overrides.oobe_threshold) {
    out.forest.oobe_threshold = *overrides.oobe_threshold;
  }
  if (overrides.alarm_threshold) {
    out.engine.alarm_threshold = *overrides.alarm_threshold;
  }
  if (overrides.mondrian_lifetime) {
    out.mondrian.lifetime = *overrides.mondrian_lifetime;
  }
  if (overrides.seed) out.seed = *overrides.seed;
  if (overrides.shards) out.engine.shards = *overrides.shards;
  if (overrides.threads) out.engine.threads = *overrides.threads;
  if (overrides.queue_capacity) out.queue.capacity = *overrides.queue_capacity;
  out.validate();
  return out;
}

std::span<const util::FlagSpec> Config::flag_specs() { return kFlagSpecs; }

Config Config::from_flags(const util::Flags& flags) {
  const Source source(flags);
  Config config;
  config.engine.backend = source.get("backend", config.engine.backend);
  config.mondrian.lifetime =
      source.get_double("mondrian-lifetime", config.mondrian.lifetime);
  config.forest.n_trees =
      static_cast<int>(source.get_int("trees", config.forest.n_trees));
  config.forest.lambda_pos =
      source.get_double("lambda-pos", config.forest.lambda_pos);
  config.forest.lambda_neg =
      source.get_double("lambda-neg", config.forest.lambda_neg);
  config.forest.oobe_threshold =
      source.get_double("oobe-threshold", config.forest.oobe_threshold);
  config.seed = static_cast<std::uint64_t>(
      source.get_int("seed", static_cast<std::int64_t>(config.seed)));

  config.engine.shards = static_cast<std::size_t>(
      source.get_int("shards", static_cast<std::int64_t>(0)));
  config.engine.threads = static_cast<std::size_t>(
      source.get_int("threads", static_cast<std::int64_t>(1)));
  config.engine.alarm_threshold =
      source.get_double("alarm-threshold", config.engine.alarm_threshold);
  config.engine.flat_scoring =
      source.get_bool("flat-scoring", config.engine.flat_scoring);
  const std::string policy = source.get("row-errors", "strict");
  try {
    config.engine.ingest_errors = robust::parse_row_error_policy(policy);
  } catch (const std::invalid_argument&) {
    throw ConfigError("--row-errors expects strict|skip|quarantine, got '" +
                      policy + "'");
  }

  config.queue.capacity = static_cast<std::size_t>(source.get_int(
      "queue-capacity", static_cast<std::int64_t>(config.queue.capacity)));

  config.robust.checkpoint_dir = source.get("checkpoint-dir", "");
  config.robust.checkpoint_every = static_cast<data::Day>(source.get_int(
      "checkpoint-every", config.robust.checkpoint_every));
  config.robust.checkpoint_keep = static_cast<std::size_t>(source.get_int(
      "checkpoint-keep",
      static_cast<std::int64_t>(config.robust.checkpoint_keep)));
  config.robust.resume = source.get_bool("resume", false);
  config.robust.wal = source.get_bool("wal", config.robust.wal);
  config.robust.wal_sync = source.get("wal-sync", config.robust.wal_sync);

  config.tsdb.directory = source.get("tsdb-dir", "");
  config.tsdb.segment_max_bytes = static_cast<std::size_t>(source.get_int(
      "tsdb-segment-bytes",
      static_cast<std::int64_t>(config.tsdb.segment_max_bytes)));
  config.tsdb.retain_days = static_cast<data::Day>(
      source.get_int("tsdb-retain-days", config.tsdb.retain_days));

  config.serve.bind_address = source.get("bind", config.serve.bind_address);
  config.serve.port =
      static_cast<int>(source.get_int("port", config.serve.port));
  config.serve.workers = static_cast<std::size_t>(source.get_int(
      "serve-workers", static_cast<std::int64_t>(config.serve.workers)));
  config.serve.idle_timeout_ms = static_cast<long>(
      source.get_int("idle-timeout-ms", config.serve.idle_timeout_ms));
  config.serve.max_in_flight = static_cast<std::size_t>(source.get_int(
      "max-in-flight",
      static_cast<std::int64_t>(config.serve.max_in_flight)));
  config.serve.max_body_bytes = static_cast<std::size_t>(source.get_int(
      "max-body-bytes",
      static_cast<std::int64_t>(config.serve.max_body_bytes)));
  config.serve.retry_after_seconds = static_cast<int>(
      source.get_int("retry-after", config.serve.retry_after_seconds));
  config.serve.request_deadline_ms = static_cast<long>(source.get_int(
      "request-deadline-ms", config.serve.request_deadline_ms));
  config.serve.shed_high_water = static_cast<std::size_t>(source.get_int(
      "shed-high-water",
      static_cast<std::int64_t>(config.serve.shed_high_water)));

  config.validate();
  return config;
}

}  // namespace orf
