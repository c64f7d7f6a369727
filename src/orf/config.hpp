// orf::Config — the one layered configuration block of the public API.
//
// Historically every entry point stitched its own parameters together
// (core::OnlinePredictorParams duplicating engine::EngineParams field for
// field, plus ad-hoc flag parsing per binary). The redesigned facade has a
// single Config with one section per subsystem —
//
//   forest  — the Online Random Forest itself (core::OnlineForestParams,
//             reused verbatim: it is already the paper-parameter block)
//   engine  — fleet-engine knobs: shards, threads, alarm threshold, the
//             flat-kernel scoring switch, the dirty-input policy
//   queue   — per-disk label-queue capacity (= prediction horizon, days)
//   robust  — crash-safe checkpointing: directory, cadence, rotation, resume
//   serve   — the orfd HTTP daemon: bind/port, worker pool, admission
//             control, request limits
//
// — one validate() that rejects inconsistent combinations up front, and one
// flags+env parser (flags win over ORF_* environment variables) shared by
// every binary, so `orfd` and `fleet_monitor` accept the same spelling for
// the same knob. Conversion helpers produce the internal layer structs;
// nothing outside src/ should build those by hand anymore.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>

#include "core/online_forest.hpp"
#include "data/types.hpp"
#include "engine/fleet_engine.hpp"
#include "robust/quarantine.hpp"
#include "util/flags.hpp"

namespace orf {

/// An invalid or inconsistent configuration (bad flag value, failed
/// validate()). Derives from FlagError so binaries' existing usage-printing
/// catch blocks handle it too.
class ConfigError : public util::FlagError {
 public:
  using util::FlagError::FlagError;
};

/// Fleet-engine section: parallelism and decision knobs.
struct EngineSection {
  /// Model backend registry name ("orf" | "mondrian" | anything registered
  /// via engine::register_backend). Resolved --backend → ORF_BACKEND →
  /// default, like every knob here.
  std::string backend = "orf";
  /// Disk shards (0 = auto = hardware concurrency clamped to [1, 32]).
  /// Purely a parallelism knob: results never depend on it.
  std::size_t shards = 0;
  /// Threads for the engine's shard-parallel stages (1 = no pool).
  std::size_t threads = 1;
  /// Alarm threshold on the forest score.
  double alarm_threshold = 0.5;
  /// Score day batches through the compiled flat SoA kernel (bit-identical
  /// to the reference traversal; performance knob only).
  bool flat_scoring = true;
  /// Dirty-report policy for ingest (strict | skip | quarantine).
  robust::RowErrorPolicy ingest_errors = robust::RowErrorPolicy::kStrict;
};

/// Mondrian-backend section (used only when engine.backend == "mondrian";
/// tree count and bagging rates are shared with the forest section so both
/// backends keep one spelling per knob).
struct MondrianSection {
  /// Mondrian budget λ: caps split times, bounding tree depth.
  double lifetime = 50.0;
};

/// Label-queue section.
struct QueueSection {
  /// Queue capacity in samples = prediction horizon in days.
  std::size_t capacity = static_cast<std::size_t>(data::kHorizonDays);
};

/// Crash-safety section (see robust::RecoveryManager / robust::IngestWal).
struct RobustSection {
  /// Snapshot directory; empty = checkpointing off.
  std::string checkpoint_dir;
  /// Day batches between periodic snapshots.
  data::Day checkpoint_every = 30;
  /// Rotating snapshots retained.
  std::size_t checkpoint_keep = 3;
  /// Restart from the newest intact snapshot before serving/streaming.
  bool resume = false;
  /// Ingest write-ahead log (lives under <checkpoint_dir>/wal); requires a
  /// checkpoint directory and makes every acked ingest crash-durable.
  bool wal = true;
  /// WAL fsync policy: "always" (per record), "batch" (once per acked
  /// request), "off" (never — durable vs process crash only).
  std::string wal_sync = "batch";
};

/// Embedded SMART history store (see tsdb::Writer / tsdb::Reader and
/// DESIGN.md §15): every acked ingest day is teed into an append-only,
/// Gorilla-compressed per-disk store that replays bit-identically.
struct TsdbSection {
  /// Store directory; empty = history capture off.
  std::string directory;
  /// Segment rotation threshold, bytes.
  std::size_t segment_max_bytes = 4u << 20;
  /// Retention window in days (0 = keep everything): each catalog commit
  /// retires blocks entirely below next_day - retain_days and unlinks
  /// segments the catalog no longer references. Days at or above the
  /// replay floor are never dropped.
  data::Day retain_days = 0;
};

/// HTTP daemon section (see serve::ReactorServer / orfd).
struct ServeSection {
  std::string bind_address = "127.0.0.1";
  /// TCP port; 0 = ephemeral (the bound port is reported after start).
  int port = 8080;
  /// Reactor event-loop threads (0 = auto: hardware concurrency clamped to
  /// [1, 8]). Each worker owns its connections exclusively.
  std::size_t workers = 0;
  /// Reactor connection timeout, milliseconds: an idle keep-alive
  /// connection — or a stalled client that stops reading mid-response — is
  /// closed after this long without socket progress.
  long idle_timeout_ms = 60000;
  /// Admission bound: a connection accepted while this many are open is
  /// answered 429 + Retry-After without parsing a byte. The reactor
  /// multiplexes its connections over fixed event loops, so the default
  /// admits a full keep-alive fleet slice.
  std::size_t max_in_flight = 4096;
  /// Largest accepted request body; beyond it the request is 413'd.
  std::size_t max_body_bytes = 8u << 20;
  /// Floor of the Retry-After hint on 429/503 responses, seconds; the
  /// served value grows with in-flight depth and batcher queue age.
  int retry_after_seconds = 1;
  /// Per-request deadline, milliseconds: work still queued past this is
  /// answered 503 instead of scored late. 0 = no deadline.
  long request_deadline_ms = 0;
  /// Priority-shedding high-water mark on in-flight requests: at or above
  /// it /v1/ingest is shed (503), at 2x /v1/score too; /healthz and
  /// /metrics are never shed. 0 = shedding off.
  std::size_t shed_high_water = 0;
};

/// A sparse set of knob re-assignments for Config::with_overrides() — the
/// sweep-cell / replay-override currency. Every field mirrors one config
/// flag spelling; set() accepts that spelling ("lambda-pos", "trees", ...)
/// so orf_experiment grid cells parse straight into one of these. Fields
/// left unset keep the base config's value.
struct ConfigOverrides {
  std::optional<std::string> backend;
  std::optional<int> trees;
  std::optional<double> lambda_pos;
  std::optional<double> lambda_neg;
  std::optional<double> oobe_threshold;
  std::optional<double> alarm_threshold;
  std::optional<double> mondrian_lifetime;
  std::optional<std::uint64_t> seed;
  std::optional<std::size_t> shards;
  std::optional<std::size_t> threads;
  std::optional<std::size_t> queue_capacity;

  /// Assign one knob by its config-flag spelling. Throws ConfigError on an
  /// unknown knob or an unparsable value, naming both.
  ConfigOverrides& set(std::string_view knob, const std::string& value);

  bool empty() const;
  /// "lambda-pos=0.5 oobe-threshold=0.3" — table/log label for a sweep
  /// cell; "" when empty.
  std::string describe() const;
};

struct Config {
  core::OnlineForestParams forest = {};
  EngineSection engine;
  MondrianSection mondrian;
  QueueSection queue;
  RobustSection robust;
  TsdbSection tsdb;
  ServeSection serve;
  /// Seed of the whole pipeline (forest RNG streams).
  std::uint64_t seed = 42;

  /// Reject inconsistent combinations (throws ConfigError): non-positive
  /// trees/queue capacity, thresholds outside [0, 1], resume without a
  /// checkpoint directory, out-of-range port.
  void validate() const;

  /// The engine-layer parameter block this config describes.
  engine::EngineParams engine_params() const;

  /// Clone this config with `overrides` applied and the result validate()d
  /// — the supported way to derive a sweep cell or a retuned replay config
  /// from a base one (no hand-mutated struct fields).
  Config with_overrides(const ConfigOverrides& overrides) const;

  /// Every config flag (name, value placeholder, help) — feed to
  /// util::Flags::enforce alongside the binary's own flags so `orfd` and
  /// `fleet_monitor` share one spelling per knob.
  static std::span<const util::FlagSpec> flag_specs();

  /// Build a Config from parsed flags with ORF_* environment fallbacks
  /// (e.g. --port beats ORF_PORT beats the default). Unparsable values
  /// throw ConfigError naming the flag; the result is validate()d.
  static Config from_flags(const util::Flags& flags);
};

}  // namespace orf
