// orf::Service — the stable long-lived entry point of the public API.
//
// A Service wraps one FleetEngine (plus its optional thread pool and
// crash-safe RecoveryManager) behind exactly two state-touching verbs:
//
//   score()  — pure prediction on raw SMART rows. Takes a shared lock and
//              reads only the forest's compiled flat kernel, so any number
//              of callers score concurrently. The flat cache is re-synced
//              eagerly at the end of every mutation, which keeps this path
//              const (orf_forest_flat_rebuilds_total stays quiescent while
//              only scores arrive).
//   ingest() — one calendar-day batch through the engine's three stages
//              (Algorithm 2) under an exclusive lock, with the configured
//              RowErrorPolicy and per-cause rejection counts reported back.
//              Periodic checkpoints ride on the day counter.
//
// Checkpoints serialise as "orf-service v1\n<next_day>\n" + engine state
// through the CRC-framed atomic envelope, so a SIGTERM-drain → final
// checkpoint → --resume restart is bit-identical to an uninterrupted run
// (the daemon e2e test byte-compares the snapshots). Any other header is
// rejected.
//
// Durability (PR 8): with a checkpoint directory configured, every ingest()
// batch is appended to a robust::IngestWal *before* it touches the engine,
// and the ack only goes out once the record is down (per the configured
// fsync policy). --resume therefore restores the newest checkpoint and
// replays the WAL tail, skipping records whose day index the checkpoint
// already covers (day-keyed idempotence: replaying twice, or crashing
// mid-replay, never double-applies a batch) — an acknowledged batch
// survives any crash. When the
// WAL or checkpoint device fails, the service flips to a degraded
// score-only mode (ingest() throws DegradedError → 503; score() is
// untouched) instead of crashing, publishes the cause through its
// robust::HealthRegistry, and recovers in place once the device heals
// (probed on the next ingest or readiness check).
//
// History capture (DESIGN.md §15): with tsdb.directory configured, every acked
// ingest day is also teed into an embedded tsdb::Writer (after the WAL ack
// and engine apply), and flushed on the checkpoint cadence just before the
// WAL rotates — so the store never commits a day the WAL could still need
// to replay, and a crash loses only buffered days the WAL re-tees on
// resume (the writer's day-keyed high-water mark deduplicates). A history
// device failure publishes "tsdb" on the health ladder (readiness probes
// retry in place) but never blocks or un-acks ingest: capture is strictly
// subordinate to serving.
//
// History consumption (DESIGN.md §16): replay(ReplaySpec) drives the engine
// from a tsdb::Reader through the same ingest stages, bit-identically to
// the live run that captured the history (same scores, same alarms,
// byte-equal checkpoints) — the differential suite proves it. On top of
// that one primitive sit the consumer verbs: redrive_labels() rewinds to a
// fresh engine and re-drives the whole window under a LabelCorrections set
// (corrected-replay ≡ right-from-the-start), backfill_from_history() trains
// a cold service from the store before it goes live (orfd --backfill), and
// run_replay() builds a what-if cell from Config overrides (orf_experiment
// sweeps map over it).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <shared_mutex>
#include <span>
#include <string>
#include <vector>

#include "engine/fleet_engine.hpp"
#include "orf/config.hpp"
#include "orf/replay.hpp"
#include "robust/health.hpp"
#include "robust/recovery.hpp"
#include "robust/wal.hpp"
#include "tsdb/reader.hpp"
#include "tsdb/writer.hpp"
#include "util/thread_pool.hpp"

namespace orf {

/// Verdict on one scored row.
struct Scored {
  double score = 0.0;  ///< forest P(failure within horizon)
  bool alarm = false;  ///< score >= engine.alarm_threshold
};

/// The service is in degraded (score-only) mode: the WAL or checkpoint
/// device failed, so ingest cannot be made durable and is refused rather
/// than silently un-durable. The serving layer maps this to 503.
class DegradedError : public std::runtime_error {
 public:
  DegradedError(std::string component, const std::string& cause)
      : std::runtime_error("service degraded (" + component + "): " + cause),
        component_(std::move(component)) {}
  const std::string& component() const { return component_; }

 private:
  std::string component_;
};

/// What one ingest() day did, beyond the per-report outcomes.
struct IngestStats {
  data::Day day = 0;        ///< the day index this batch became
  std::size_t accepted = 0; ///< reports that touched engine state
  std::uint64_t rejected_non_finite = 0;
  std::uint64_t rejected_duplicate = 0;
  /// Path of the periodic snapshot written after this day, if any.
  std::string checkpoint_path;
};

class Service {
 public:
  /// Builds the engine from `config` (validate()d again here), spins up the
  /// stage pool when engine.threads > 1, attaches the RecoveryManager when
  /// robust.checkpoint_dir is set, and — when robust.resume — restores the
  /// newest intact snapshot before accepting any traffic.
  Service(std::size_t feature_count, const Config& config);

  /// Score `rows` raw SMART rows held row-major in `xs`
  /// (xs.size() == rows * feature_count()): scale with the current ranges,
  /// then one predict_batch through the flat kernel. Touches no state;
  /// thread-safe against other score() calls and serialised against
  /// ingest()/restore().
  void score(std::span<const float> xs, std::vector<Scored>& out) const;

  /// Process one calendar-day batch (exclusive). `outcomes` gets one
  /// verdict per report in batch order; the stats carry the day index and
  /// this batch's per-cause rejection counts. Throws std::invalid_argument
  /// under the strict row policy on a dirty report (state untouched), and
  /// DegradedError while the service is in score-only mode (after one
  /// in-place recovery attempt).
  IngestStats ingest(std::span<const engine::DiskReport> batch,
                     std::vector<engine::DayOutcome>& outcomes);

  /// Write a snapshot now (exclusive); returns its path, or "" when
  /// checkpointing is off. The SIGTERM drain path calls this last.
  std::string checkpoint_now();

  /// Serialize / replace the full service state ("orf-service v1" header +
  /// engine). restore() rejects any other header.
  void save(std::ostream& os) const;
  void restore(std::istream& is);

  /// Day index the next ingest() batch will be assigned.
  data::Day next_day() const;
  /// Reposition the day counter (exclusive). For drivers that stream days
  /// through engine() directly — e.g. fleet_monitor over eval::stream_fleet
  /// — so their checkpoints resume at the right day.
  void set_next_day(data::Day day);
  /// Whether the constructor restored state from a snapshot.
  bool resumed() const { return resumed_; }

  std::size_t feature_count() const { return engine_.feature_count(); }
  const Config& config() const { return config_; }

  /// The wrapped engine — for the streaming drivers (eval::stream_fleet)
  /// and tests. Mutations through it must not race score(); the daemon
  /// only touches it through the verbs above.
  engine::FleetEngine& engine() { return engine_; }
  const engine::FleetEngine& engine() const { return engine_; }

  /// The engine's registry; serving-layer instruments register here so one
  /// /metrics scrape covers forest, engine, recovery and HTTP series.
  obs::Registry& metrics_registry() { return engine_.metrics_registry(); }
  /// Quiescent cross-instrument snapshot (takes the exclusive lock).
  obs::Snapshot metrics_snapshot() const;

  /// Stage pool per engine.threads (nullptr when single-threaded).
  util::ThreadPool* pool() { return pool_.get(); }

  /// Component health published by the WAL, checkpointing and (via the
  /// serving layer) the batcher; drives /healthz?ready.
  robust::HealthRegistry& health() { return health_; }

  struct Readiness {
    bool ready = true;
    std::string state = "ok";  ///< "ok" | "degraded"
    std::string cause;         ///< "<component>: <why>" when not ready
  };

  /// Readiness probe: while degraded, first attempts an in-place recovery
  /// (WAL probe append / checkpoint retry), so clearing the underlying
  /// fault restores `ready` without a restart.
  Readiness readiness();

  /// WAL records replayed by the constructor's --resume (tests/ops).
  std::uint64_t wal_replayed_records() const { return wal_replayed_records_; }

  /// Whether the history store is attached (configured and opened).
  bool tsdb_enabled() const { return tsdb_ != nullptr; }

  /// Tee one day batch into the history store (exclusive). For drivers that
  /// stream through engine() directly — fleet_monitor — mirroring the tee
  /// ingest() performs. Days at or below the store's high-water mark are
  /// skipped (replay idempotence); a store failure degrades the "tsdb"
  /// health component and is otherwise swallowed, like the ingest tee.
  void tsdb_append(data::Day day, std::span<const engine::DiskReport> batch);

  /// Flush the history store now (exclusive), propagating failures to the
  /// caller — the drivers' end-of-run flush wants the error, not the health
  /// ladder. No-op when the store is off or clean.
  void tsdb_flush();

  /// What replay() drove through the engine.
  struct ReplayStats {
    data::Day from_day = 0;    ///< resolved window start
    data::Day to_day = 0;      ///< resolved window end (exclusive)
    data::Day days = 0;        ///< day batches ingested (incl. empty days)
    std::uint64_t rows = 0;    ///< reports ingested
    std::uint64_t alarms = 0;  ///< alarm verdicts among them
    std::uint64_t rows_corrected = 0;  ///< fates rewritten by corrections
    std::uint64_t rows_dropped = 0;    ///< rows past a corrected terminal day
    std::size_t checkpoints = 0;  ///< periodic snapshots during the replay
  };

  /// Re-ingest the spec's day window from a history store through the
  /// normal engine stages (exclusive; empty days advance the day counter
  /// exactly like the live run did). No WAL append, no tee; snapshots only
  /// on the spec's checkpoint cadence (or explicitly afterwards). With the
  /// default window — next_day() to the committed end — on the same
  /// history the live service saw, the resulting state is bit-identical to
  /// the live run's. Throws ReplayError on a malformed spec (see
  /// ReplaySpec's field docs); the engine is untouched when it throws.
  ReplayStats replay(const ReplaySpec& spec);

  /// Late/corrected labels (spec.corrections, required): rewind to a fresh
  /// engine and re-drive the store's whole replayable window — every
  /// corrected disk's label queue re-drained under the corrected fates.
  /// The result is bit-identical to a service that ingested the corrected
  /// history from the start. The day counter ends at the window end;
  /// callers snapshot afterwards to make the re-driven state durable.
  ReplayStats redrive_labels(const ReplaySpec& spec);

  /// Cold-start training: replay the store's whole replayable window into
  /// this service before it goes live (orfd --backfill). Requires a truly
  /// cold service — nothing ingested, nothing resumed — and leaves the day
  /// counter at the store's end, so live ingest continues seamlessly (and
  /// an attached tee skips everything the store already holds). The
  /// resulting state is bit-identical to a live-trained service.
  ReplayStats backfill_from_history(const ReplaySpec& spec);

 private:
  /// Window resolution mode for replay_locked: what an unset spec.from_day
  /// means. Plain replay continues at the day counter; the rewind verbs
  /// (redrive, backfill, run_replay cells) start at the store's floor.
  enum class ReplayFrom { kNextDay, kFloor };

  std::string state_payload() const;
  void restore_payload(const std::string& payload);
  ReplayStats replay_locked(const ReplaySpec& spec, ReplayFrom from_default);
  /// Reset the engine to its freshly-constructed state (same config, same
  /// seed) and the day counter to zero — the redrive rewind.
  void reset_engine_locked();
  std::string checkpoint_locked();
  void replay_wal_locked();
  void enter_degraded_locked(const std::string& component,
                             const std::string& cause);
  void try_recover_locked();
  void open_tsdb_locked();
  void tee_tsdb_locked(data::Day day,
                       std::span<const engine::DiskReport> batch);
  void flush_tsdb_locked();
  void try_recover_tsdb_locked();

  Config config_;
  engine::FleetEngine engine_;
  std::unique_ptr<util::ThreadPool> pool_;
  std::unique_ptr<robust::RecoveryManager> recovery_;
  std::unique_ptr<robust::IngestWal> wal_;
  std::unique_ptr<tsdb::Writer> tsdb_;
  /// History device down ("tsdb" failed on the health ladder). Never sets
  /// degraded_: ingest keeps flowing, only capture is paused.
  bool tsdb_failed_ = false;
  robust::HealthRegistry health_;

  /// Newest WAL sequence whose batch reached the engine — in-memory
  /// rotation bookkeeping only (replay idempotence is keyed on the day
  /// index each record carries, so nothing WAL-specific is persisted in
  /// checkpoints).
  std::uint64_t wal_applied_ = 0;
  std::uint64_t wal_replayed_records_ = 0;
  bool degraded_ = false;
  std::string degraded_component_;
  std::string degraded_cause_;

  /// score() shared / ingest()+restore() exclusive. The flat kernel is
  /// synced before the exclusive lock drops, so shared holders never
  /// trigger a rebuild.
  mutable std::shared_mutex mutex_;

  data::Day next_day_ = 0;
  data::Day days_since_checkpoint_ = 0;
  bool resumed_ = false;

  /// The engine's per-cause rejection counters (registry dedup hands back
  /// the same instruments) — diffed around ingest_day for IngestStats.
  obs::Counter* rejected_non_finite_ = nullptr;
  obs::Counter* rejected_duplicate_ = nullptr;

  /// Batch-amortisation accounting for the serving micro-batcher:
  /// rows_total / calls_total = average rows riding one shared-lock
  /// acquisition (and one score_batch kernel call).
  obs::Counter* score_calls_ = nullptr;
  obs::Counter* score_rows_ = nullptr;

  obs::Counter* wal_replayed_rows_ = nullptr;
};

/// What one run_replay() cell produced: the retuned service (still warm —
/// callers may snapshot it or keep scoring against it) and its stats.
struct ReplayRun {
  std::unique_ptr<Service> service;
  Service::ReplayStats stats;
};

/// The what-if cell primitive orf_experiment maps its sweep grid over:
/// build a Service from `base.with_overrides(spec.overrides)` — with
/// capture and durability stripped, because a history consumer must never
/// write back into the store it reads — and replay the spec's window
/// (default: the store's whole replayable extent) into it. When the spec
/// names no store or reader, the base config's tsdb.directory is read.
ReplayRun run_replay(std::size_t feature_count, const Config& base,
                     ReplaySpec spec);

}  // namespace orf
