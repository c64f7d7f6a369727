#include "orf/service.hpp"

#include <filesystem>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "core/checkpoint.hpp"
#include "orf/wal_codec.hpp"

namespace orf {

namespace {

constexpr std::string_view kStateHeader = "orf-service v1";

/// WAL probe records (degraded-mode recovery checks) — not ingest data.
constexpr std::string_view kWalProbe = "probe";

std::size_t validated(const Config& config, std::size_t feature_count) {
  config.validate();
  if (feature_count == 0) {
    throw ConfigError("config: feature_count must be positive");
  }
  return feature_count;
}

}  // namespace

Service::Service(std::size_t feature_count, const Config& config)
    : config_(config),
      engine_(validated(config, feature_count), config.engine_params(),
              config.seed) {
  if (config_.engine.threads > 1) {
    pool_ = std::make_unique<util::ThreadPool>(config_.engine.threads);
  }
  const char* rejected_help = "ingest rows rejected by cause";
  rejected_non_finite_ = &metrics_registry().counter(
      "orf_ingest_rejected_total", rejected_help, {{"cause", "non_finite"}});
  rejected_duplicate_ = &metrics_registry().counter(
      "orf_ingest_rejected_total", rejected_help, {{"cause", "duplicate"}});
  score_calls_ = &metrics_registry().counter(
      "orf_service_score_calls_total",
      "score() batch entries (one shared-lock acquisition each)");
  score_rows_ = &metrics_registry().counter(
      "orf_service_score_rows_total", "rows scored across score() calls");
  if (!config_.robust.checkpoint_dir.empty()) {
    recovery_ = std::make_unique<robust::RecoveryManager>(
        robust::RecoveryManager::Options{
            .directory = config_.robust.checkpoint_dir,
            .prefix = "orf-service",
            .keep = config_.robust.checkpoint_keep});
    recovery_->bind_metrics(metrics_registry());
    if (config_.robust.resume) {
      if (const auto loaded = recovery_->load_latest()) {
        restore_payload(loaded->payload);
        resumed_ = true;
      }
    }
    health_.set("checkpoint", robust::HealthState::kOk);
  }
  // The history store opens after the snapshot restore and before the WAL
  // replay: replayed batches are re-teed, and the store's own day-keyed
  // high-water mark drops the days it already committed.
  if (!config_.tsdb.directory.empty()) open_tsdb_locked();
  if (!config_.robust.checkpoint_dir.empty()) {
    if (config_.robust.wal) {
      wal_ = std::make_unique<robust::IngestWal>(robust::IngestWal::Options{
          .directory = (std::filesystem::path(config_.robust.checkpoint_dir) /
                        "wal")
                           .string(),
          .sync = robust::IngestWal::parse_sync_policy(
              config_.robust.wal_sync)});
      wal_->bind_metrics(metrics_registry());
      wal_replayed_rows_ = &metrics_registry().counter(
          "orf_wal_replayed_rows_total",
          "ingest rows re-applied from the WAL tail on resume");
      health_.set("wal", robust::HealthState::kOk);
      if (config_.robust.resume) replay_wal_locked();
    }
  }
  health_.bind_metrics(metrics_registry());
  // From here on the backend's scoring caches are quiesced at the tail of
  // every mutation, so score() can stay const and lock-shared.
  engine_.backend().quiesce();
}

void Service::replay_wal_locked() {
  // Acked batches past the restored checkpoint live only in the WAL;
  // re-apply them through the exact ingest path so the rebuilt state is
  // bit-identical to the pre-crash state.
  const auto stats = wal_->replay(
      wal_applied_, [this](const robust::IngestWal::Record& record) {
        wal_applied_ = record.sequence;
        if (record.payload.substr(0, kWalProbe.size()) == kWalProbe) return;
        DecodedBatch batch =
            decode_wal_batch(record.payload, engine_.feature_count());
        // Idempotence is keyed on the day index the ack carried: a record
        // whose day the restored checkpoint already covers is a no-op, so
        // replay-after-replay (or a crash mid-replay) never double-applies.
        if (batch.day < next_day_) return;
        std::vector<engine::DayOutcome> outcomes;
        try {
          engine_.ingest_day(batch.reports, outcomes, pool_.get());
        } catch (const std::invalid_argument&) {
          // The original ingest threw here too (strict policy, state
          // untouched) — reproducing the rejection reproduces the state.
          return;
        }
        next_day_ = batch.day + 1;
        // Re-tee into the history store: days its catalog already covers
        // bounce off the high-water mark, days lost with the crashed
        // buffer are re-captured. Double replay is therefore idempotent.
        tee_tsdb_locked(batch.day, batch.reports);
        ++wal_replayed_records_;
        if (wal_replayed_rows_ != nullptr) {
          wal_replayed_rows_->inc(batch.reports.size());
        }
      });
  (void)stats;  // torn tails are expected crash debris
}

void Service::score(std::span<const float> xs,
                    std::vector<Scored>& out) const {
  const std::size_t features = engine_.feature_count();
  if (features == 0 || xs.size() % features != 0) {
    throw std::invalid_argument(
        "Service::score: xs.size() must be a multiple of feature_count()");
  }
  const std::size_t rows = xs.size() / features;
  out.assign(rows, Scored{});
  if (rows == 0) return;

  std::shared_lock lock(mutex_);
  score_calls_->inc();
  score_rows_->inc(rows);
  std::vector<float> scaled(xs.size());
  std::vector<float> row;
  for (std::size_t i = 0; i < rows; ++i) {
    engine_.scaler().transform(xs.subspan(i * features, features), row);
    std::copy(row.begin(), row.end(), scaled.begin() + i * features);
  }
  std::vector<double> scores(rows);
  engine_.backend().score_batch(scaled, scores);
  const double threshold = engine_.alarm_threshold();
  for (std::size_t i = 0; i < rows; ++i) {
    out[i].score = scores[i];
    out[i].alarm = scores[i] >= threshold;
  }
}

IngestStats Service::ingest(std::span<const engine::DiskReport> batch,
                            std::vector<engine::DayOutcome>& outcomes) {
  std::unique_lock lock(mutex_);
  if (degraded_) {
    try_recover_locked();
    if (degraded_) throw DegradedError(degraded_component_, degraded_cause_);
  }

  // Durability before mutation: the batch goes into the WAL (and, per
  // policy, to disk) before the engine sees it, so an ack never outruns
  // the record that makes it replayable. A WAL failure flips the service
  // to score-only rather than acking un-durable ingest.
  std::uint64_t sequence = 0;
  if (wal_) {
    try {
      sequence =
          wal_->append(encode_wal_batch(next_day_, batch, pool_.get()));
      wal_->sync();
    } catch (const std::exception& e) {
      enter_degraded_locked("wal", e.what());
      throw DegradedError(degraded_component_, degraded_cause_);
    }
  }

  const std::uint64_t non_finite_before = rejected_non_finite_->value();
  const std::uint64_t duplicate_before = rejected_duplicate_->value();
  // A strict-policy throw leaves the record in the WAL; replay reproduces
  // the throw (and the untouched state) by skipping it the same way.
  engine_.ingest_day(batch, outcomes, pool_.get());
  engine_.backend().quiesce();
  if (wal_) wal_applied_ = sequence;
  // History tee, strictly after the WAL ack and engine apply: the store
  // only ever captures days the engine processed, and a capture failure
  // can only pause history (health "tsdb"), never the ingest itself.
  tee_tsdb_locked(next_day_, batch);

  IngestStats stats;
  stats.day = next_day_++;
  stats.rejected_non_finite =
      rejected_non_finite_->value() - non_finite_before;
  stats.rejected_duplicate = rejected_duplicate_->value() - duplicate_before;
  for (const engine::DayOutcome& outcome : outcomes) {
    if (!outcome.rejected) ++stats.accepted;
  }
  if ((recovery_ || tsdb_) &&
      ++days_since_checkpoint_ >= config_.robust.checkpoint_every) {
    days_since_checkpoint_ = 0;
    // The history flush rides the same cadence, and runs first: the
    // snapshot's WAL rotation discards records whose days the store may
    // still hold only in its buffer.
    flush_tsdb_locked();
    if (recovery_) {
      try {
        stats.checkpoint_path = checkpoint_locked();
      } catch (const std::exception& e) {
        // The batch itself is acked and WAL-durable; only the snapshot
        // cadence failed. Degrade instead of failing the request.
        enter_degraded_locked("checkpoint", e.what());
      }
    }
  }
  return stats;
}

std::string Service::checkpoint_now() {
  std::unique_lock lock(mutex_);
  days_since_checkpoint_ = 0;
  if (!recovery_) {
    // No snapshotting configured; the explicit checkpoint still commits
    // the history store (the drivers' cadence hook relies on this).
    flush_tsdb_locked();
    return {};
  }
  return checkpoint_locked();
}

std::string Service::checkpoint_locked() {
  // History first (no-op when clean): see the cadence comment in ingest().
  flush_tsdb_locked();
  const std::string path = recovery_->save({state_payload()});
  // Everything the snapshot covers is now redundant in the WAL.
  if (wal_) wal_->rotate(wal_applied_);
  return path;
}

void Service::enter_degraded_locked(const std::string& component,
                                    const std::string& cause) {
  degraded_ = true;
  degraded_component_ = component;
  degraded_cause_ = cause;
  health_.set(component, robust::HealthState::kFailed, cause);
}

void Service::try_recover_locked() {
  if (!degraded_) return;
  try {
    if (degraded_component_ == "wal") {
      // The probe runs the full append+sync path (same failpoint sites as
      // real ingest); its record replays as a no-op.
      wal_->append(std::string(kWalProbe));
      wal_->sync();
    } else {
      checkpoint_locked();
      days_since_checkpoint_ = 0;
    }
  } catch (const std::exception& e) {
    degraded_cause_ = e.what();  // still down; keep the freshest cause
    health_.set(degraded_component_, robust::HealthState::kFailed,
                degraded_cause_);
    return;
  }
  health_.set(degraded_component_, robust::HealthState::kOk);
  degraded_ = false;
  degraded_component_.clear();
  degraded_cause_.clear();
}

void Service::open_tsdb_locked() {
  try {
    auto writer = std::make_unique<tsdb::Writer>(tsdb::Writer::Options{
        .directory = config_.tsdb.directory,
        .feature_count = engine_.feature_count(),
        .segment_max_bytes = config_.tsdb.segment_max_bytes,
        .retain_days = config_.tsdb.retain_days});
    writer->bind_metrics(metrics_registry());
    tsdb_ = std::move(writer);
    tsdb_failed_ = false;
    health_.set("tsdb", robust::HealthState::kOk);
  } catch (const std::exception& e) {
    // Capture is subordinate to serving: a failed open (device down,
    // damaged catalog) publishes on the health ladder and the readiness
    // probe retries the open in place — ingest is never refused over it.
    tsdb_failed_ = true;
    health_.set("tsdb", robust::HealthState::kFailed, e.what());
  }
}

void Service::tee_tsdb_locked(data::Day day,
                              std::span<const engine::DiskReport> batch) {
  if (!tsdb_) return;
  try {
    std::vector<tsdb::RowView> rows;
    rows.reserve(batch.size());
    for (const engine::DiskReport& report : batch) {
      rows.push_back(tsdb::RowView{
          .disk = report.disk,
          .fate = static_cast<std::uint8_t>(report.fate),
          .features = report.features});
    }
    tsdb_->append_day(day, rows);
  } catch (const std::exception& e) {
    tsdb_failed_ = true;
    health_.set("tsdb", robust::HealthState::kFailed, e.what());
  }
}

void Service::flush_tsdb_locked() {
  if (!tsdb_) return;
  try {
    tsdb_->flush(pool_.get());
    if (tsdb_failed_) {
      tsdb_failed_ = false;
      health_.set("tsdb", robust::HealthState::kOk);
    }
  } catch (const std::exception& e) {
    // Buffered days stay buffered (a later flush retries) and remain
    // WAL-replayable; only capture freshness degrades, never ingest.
    tsdb_failed_ = true;
    health_.set("tsdb", robust::HealthState::kFailed, e.what());
  }
}

void Service::try_recover_tsdb_locked() {
  if (!tsdb_failed_) return;
  if (!tsdb_) {
    open_tsdb_locked();
    if (!tsdb_) return;
  }
  flush_tsdb_locked();  // the probe: runs the full append+commit path
}

void Service::tsdb_append(data::Day day,
                          std::span<const engine::DiskReport> batch) {
  std::unique_lock lock(mutex_);
  tee_tsdb_locked(day, batch);
}

void Service::tsdb_flush() {
  std::unique_lock lock(mutex_);
  if (!tsdb_) return;
  tsdb_->flush(pool_.get());  // propagate: the caller wants the error
  if (tsdb_failed_) {
    tsdb_failed_ = false;
    health_.set("tsdb", robust::HealthState::kOk);
  }
}

Service::ReplayStats Service::replay(const ReplaySpec& spec) {
  std::unique_lock lock(mutex_);
  return replay_locked(spec, ReplayFrom::kNextDay);
}

Service::ReplayStats Service::redrive_labels(const ReplaySpec& spec) {
  std::unique_lock lock(mutex_);
  if (spec.corrections == nullptr || spec.corrections->empty()) {
    throw ReplayError("redrive_labels: no corrections to apply");
  }
  // Rewind-from-history: corrections change what the label queues drained
  // days ago, so the only state provably equal to "labels were right all
  // along" is a fresh engine re-driven over the whole window. The engine
  // is cheap next to the history; the history is what the store is for.
  reset_engine_locked();
  return replay_locked(spec, ReplayFrom::kFloor);
}

Service::ReplayStats Service::backfill_from_history(const ReplaySpec& spec) {
  std::unique_lock lock(mutex_);
  if (resumed_ || next_day_ != 0) {
    throw ReplayError(
        "backfill_from_history: requires a cold service (nothing ingested, "
        "nothing resumed) — next_day is " +
        std::to_string(next_day_));
  }
  return replay_locked(spec, ReplayFrom::kFloor);
}

void Service::reset_engine_locked() {
  // FleetEngine has no copy/move; the save/restore round-trip is the
  // canonical way to replace its state (restore re-shards internally).
  engine::FleetEngine fresh(engine_.feature_count(), config_.engine_params(),
                            config_.seed);
  std::stringstream state;
  fresh.save(state);
  engine_.restore(state);
  next_day_ = 0;
}

Service::ReplayStats Service::replay_locked(const ReplaySpec& spec,
                                            ReplayFrom from_default) {
  if (!spec.overrides.empty()) {
    throw ReplayError(
        "replay: spec carries Config overrides (" + spec.overrides.describe() +
        ") but this service's engine is already built — use run_replay() / "
        "Config::with_overrides() to construct the retuned service");
  }
  if (spec.reader != nullptr && !spec.store.empty()) {
    throw ReplayError("replay: set ReplaySpec::store or ::reader, not both");
  }
  std::optional<tsdb::Reader> owned;
  tsdb::Reader* reader = spec.reader;
  if (reader == nullptr) {
    const std::string& store =
        spec.store.empty() ? config_.tsdb.directory : spec.store;
    if (store.empty()) {
      throw ReplayError(
          "replay: no history store (set ReplaySpec::store, ::reader, or "
          "configure tsdb.directory)");
    }
    owned.emplace(store);
    reader = &*owned;
  }
  if (reader->feature_count() != engine_.feature_count()) {
    throw ReplayError("replay: store holds " +
                      std::to_string(reader->feature_count()) +
                      " features, the engine " +
                      std::to_string(engine_.feature_count()));
  }

  // The replay floor: below it the store no longer guarantees complete
  // days (retention GC may have retired them).
  const data::Day floor = std::max(reader->first_day(), reader->floor_day());
  const data::Day from = spec.from_day.value_or(
      from_default == ReplayFrom::kFloor ? floor : next_day_);
  const data::Day to = spec.to_day.value_or(reader->end_day());
  if (from > to) {
    throw ReplayError("replay: inverted window [" + std::to_string(from) +
                      ", " + std::to_string(to) + ")");
  }
  if (to > reader->end_day()) {
    throw ReplayError("replay: window end " + std::to_string(to) +
                      " is past the committed history (end_day " +
                      std::to_string(reader->end_day()) + ")");
  }
  if (from < to && from < floor) {
    throw ReplayError("replay: window start " + std::to_string(from) +
                      " is below the store's replay floor " +
                      std::to_string(floor));
  }
  if (spec.corrections != nullptr) {
    for (const auto& [disk, correction] : spec.corrections->by_disk()) {
      if (!reader->has_disk(disk)) {
        throw ReplayError("replay: correction references disk " +
                          std::to_string(disk) +
                          ", which the store never recorded");
      }
      if (correction.day < from || correction.day >= to) {
        throw ReplayError(
            "replay: correction day " + std::to_string(correction.day) +
            " for disk " + std::to_string(disk) +
            " lies outside the replay window [" + std::to_string(from) +
            ", " + std::to_string(to) + ")");
      }
    }
  }
  if (spec.checkpoint_every < 0) {
    throw ReplayError("replay: checkpoint_every must be >= 0");
  }
  if (spec.checkpoint_every > 0 && !recovery_) {
    throw ReplayError(
        "replay: checkpoint_every requires a checkpoint directory "
        "(robust.checkpoint_dir)");
  }

  ReplayStats stats;
  stats.from_day = from;
  stats.to_day = to;
  tsdb::Reader::DayBatch day_batch;
  std::vector<engine::DiskReport> reports;
  std::vector<engine::DayOutcome> outcomes;
  for (data::Day day = from; day < to; ++day) {
    reader->read_day(day, day_batch);
    reports.clear();
    for (const tsdb::RowView& row : day_batch.rows) {
      auto fate = static_cast<engine::DiskFate>(row.fate);
      if (spec.corrections != nullptr) {
        if (const LabelCorrections::Correction* correction =
                spec.corrections->find(row.disk)) {
          if (day > correction->day) {
            // Rows past the corrected terminal day are zombies the broken
            // capture kept emitting; the corrected truth never saw them.
            ++stats.rows_dropped;
            continue;
          }
          if (day == correction->day) {
            const engine::DiskFate corrected =
                correction->kind == LabelCorrections::Kind::kFailure
                    ? engine::DiskFate::kFailure
                    : engine::DiskFate::kRetirement;
            if (fate != corrected) {
              fate = corrected;
              ++stats.rows_corrected;
            }
          }
        }
      }
      reports.push_back(engine::DiskReport{
          .disk = row.disk, .features = row.features, .fate = fate});
    }
    // Empty days skip the engine exactly like the live streaming drivers
    // do, but still advance the day counter — that is what makes the final
    // checkpoint byte-equal to the live run's.
    outcomes.clear();
    if (!reports.empty()) {
      engine_.ingest_day(reports, outcomes, pool_.get());
      stats.rows += reports.size();
      for (const engine::DayOutcome& outcome : outcomes) {
        if (outcome.alarm && !outcome.rejected) ++stats.alarms;
      }
    }
    next_day_ = day + 1;
    ++stats.days;
    if (spec.on_day) spec.on_day(day, reports, outcomes);
    if (spec.on_progress) {
      spec.on_progress(
          ReplayProgress{day, from, to, stats.rows, stats.alarms});
    }
    // Periodic snapshots on the absolute day cadence the live run used —
    // the same days, so mid-replay snapshots byte-match live ones.
    if (spec.checkpoint_every > 0 && (day + 1) % spec.checkpoint_every == 0) {
      engine_.backend().quiesce();
      checkpoint_locked();
      days_since_checkpoint_ = 0;
      ++stats.checkpoints;
    }
  }
  engine_.backend().quiesce();
  return stats;
}

ReplayRun run_replay(std::size_t feature_count, const Config& base,
                     ReplaySpec spec) {
  Config config = base.with_overrides(spec.overrides);
  // A history consumer must never write back into the store it reads, and
  // a what-if cell is ephemeral: no capture tee, no checkpoints, no WAL.
  config.tsdb.directory.clear();
  config.robust.checkpoint_dir.clear();
  config.robust.resume = false;
  if (spec.store.empty() && spec.reader == nullptr) {
    spec.store = base.tsdb.directory;
  }
  spec.overrides = ConfigOverrides{};  // consumed into `config` above
  ReplayRun run;
  run.service = std::make_unique<Service>(feature_count, config);
  // The cell service is cold by construction, so the run is a backfill:
  // the default window starts at the store's replay floor, not at the
  // fresh day counter — the two differ once retention has retired days.
  run.stats = run.service->backfill_from_history(spec);
  return run;
}

Service::Readiness Service::readiness() {
  if (!health_.ready()) {
    // Degraded: one in-place recovery attempt per probe, so clearing the
    // underlying fault restores readiness without a restart.
    std::unique_lock lock(mutex_);
    try_recover_locked();
    try_recover_tsdb_locked();
  }
  const auto overall = health_.overall();
  Readiness out;
  out.ready = overall.state == robust::HealthState::kOk;
  // Any non-ready state is "degraded" to probes: scoring still works, the
  // per-component orf_health_state gauges carry the finer distinction.
  out.state = out.ready ? "ok" : "degraded";
  out.cause = overall.cause;
  return out;
}

std::string Service::state_payload() const {
  std::string out;
  core::checkpoint::Writer(out) << kStateHeader << '\n' << next_day_ << '\n';
  engine_.save(out, pool_.get());
  return out;
}

void Service::restore_payload(const std::string& payload) {
  std::istringstream is(payload);
  std::string header;
  std::getline(is, header);
  if (header != kStateHeader) {
    throw std::runtime_error(
        "Service::restore: unrecognised snapshot header '" + header + "'");
  }
  long long day = 0;
  is >> day;
  is.ignore(1, '\n');
  if (!is) {
    throw std::runtime_error("Service::restore: truncated snapshot header");
  }
  engine_.restore(is);
  next_day_ = static_cast<data::Day>(day);
  engine_.backend().quiesce();
}

void Service::save(std::ostream& os) const {
  std::shared_lock lock(mutex_);
  os << state_payload();
}

void Service::restore(std::istream& is) {
  std::unique_lock lock(mutex_);
  std::ostringstream buffer;
  buffer << is.rdbuf();
  restore_payload(buffer.str());
}

data::Day Service::next_day() const {
  std::shared_lock lock(mutex_);
  return next_day_;
}

void Service::set_next_day(data::Day day) {
  std::unique_lock lock(mutex_);
  next_day_ = day;
}

obs::Snapshot Service::metrics_snapshot() const {
  std::unique_lock lock(mutex_);
  return engine_.metrics_snapshot();
}

}  // namespace orf
