// orf::ReplaySpec — the one options struct every history consumer speaks.
//
// PR 9's store made history replayable; this seam makes it *consumable*.
// A bare (reader, from, to) window could only re-run exactly what was
// recorded — no knob retuning, no label correction, no progress, no
// mid-replay durability. ReplaySpec carries all of that declaratively:
//
//   store / reader    — where the history lives: a directory the replay
//                       opens itself, an already-open tsdb::Reader, or
//                       (both unset) the service's own tsdb.directory.
//   from_day / to_day — the half-open day window; defaults continue from
//                       the service's day counter to the committed end.
//   overrides         — Config re-tunings (λp/λn/θ_OOBE/backend/...) for a
//                       what-if cell; consumed by run_replay(), which
//                       builds the retuned service, never silently by
//                       Service::replay() on an already-built engine.
//   corrections       — late/corrected failure labels applied as the rows
//                       stream past (see LabelCorrections below).
//   checkpoint_every  — periodic snapshots during the replay, on the same
//                       absolute cadence the live run used.
//   on_day / on_progress — verdict and progress callbacks for drivers
//                       (orf_experiment computes FDR/FAR from on_day).
//
// LabelCorrections is the file format for labels that arrived late or were
// wrong at capture time ("orf-label-corrections v1"): per disk, either
//   fail <disk> <day>      the disk actually failed on <day> — its day-
//                          <day> row is re-fated kFailure and every later
//                          recorded row of that disk is dropped (zombie
//                          rows a confused pipeline kept emitting);
//   survive <disk> <day>   the recorded failure was spurious — the day-
//                          <day> row is re-fated kRetirement (it left the
//                          fleet healthy), later rows dropped the same way.
// Replaying a mis-captured store under its corrections is bit-identical to
// replaying a store that was captured right all along — the differential
// suite proves it across shard counts.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>

#include "data/types.hpp"
#include "engine/batch.hpp"
#include "orf/config.hpp"

namespace tsdb {
class Reader;
}  // namespace tsdb

namespace orf {

/// A replay request that cannot be served: malformed window, corrections
/// referencing disks the store never recorded, overrides handed to a
/// consumer that cannot apply them, a warm service asked to backfill.
class ReplayError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Late/corrected failure labels, keyed by disk (at most one correction
/// per disk — the newest truth wins before the file is written).
class LabelCorrections {
 public:
  enum class Kind : std::uint8_t {
    kFailure,   ///< the disk actually failed on `day`
    kSurvival,  ///< the recorded failure was spurious; it retired healthy
  };
  struct Correction {
    Kind kind = Kind::kFailure;
    data::Day day = 0;  ///< the disk's corrected terminal day
  };

  /// Record that `disk` failed on `day` (replaces any prior correction).
  void set_failure(data::DiskId disk, data::Day day) {
    by_disk_[disk] = Correction{Kind::kFailure, day};
  }
  /// Record that `disk` left the fleet healthy on `day`.
  void set_survival(data::DiskId disk, data::Day day) {
    by_disk_[disk] = Correction{Kind::kSurvival, day};
  }

  const Correction* find(data::DiskId disk) const {
    const auto it = by_disk_.find(disk);
    return it == by_disk_.end() ? nullptr : &it->second;
  }
  bool empty() const { return by_disk_.empty(); }
  std::size_t size() const { return by_disk_.size(); }
  const std::map<data::DiskId, Correction>& by_disk() const {
    return by_disk_;
  }

  /// The "orf-label-corrections v1" text form (one fail/survive line per
  /// disk, ascending DiskId — deterministic round-trip).
  std::string serialize() const;
  /// Parse the text form; throws ReplayError naming the first bad line.
  /// Blank lines and '#' comments are allowed; a disk may appear only once.
  static LabelCorrections parse(std::string_view text);
  static LabelCorrections load_file(const std::string& path);
  void save_file(const std::string& path) const;

 private:
  std::map<data::DiskId, Correction> by_disk_;
};

/// Delivered to ReplaySpec::on_progress after each replayed day.
struct ReplayProgress {
  data::Day day = 0;       ///< the day just ingested
  data::Day from_day = 0;  ///< resolved window start
  data::Day to_day = 0;    ///< resolved window end (exclusive)
  std::uint64_t rows = 0;  ///< cumulative rows so far
  std::uint64_t alarms = 0;
};

struct ReplaySpec {
  /// History-store directory, opened (and closed) by the replay itself.
  /// Mutually exclusive with `reader`; when both are unset the service's
  /// own config().tsdb.directory is used.
  std::string store;
  /// An already-open reader (borrowed, not owned) — for drivers that also
  /// want the store's metadata, or replay the same store repeatedly.
  tsdb::Reader* reader = nullptr;

  /// Half-open day window [from_day, to_day). Defaults: from_day = the
  /// consumer's natural start (Service::replay continues at next_day();
  /// redrive/backfill/run_replay start at the store's replay floor),
  /// to_day = the store's committed end_day(). An empty window is a no-op;
  /// an inverted one, or one reaching below the replay floor or past the
  /// committed end, throws ReplayError.
  std::optional<data::Day> from_day;
  std::optional<data::Day> to_day;

  /// Config re-tunings for this replay. Only run_replay() consumes these
  /// (it builds the retuned service); Service::replay() on an existing
  /// engine rejects a non-empty set rather than silently ignoring it.
  ConfigOverrides overrides;

  /// Late/corrected labels applied as rows stream past (borrowed). Every
  /// corrected disk must exist in the store and its day must lie inside
  /// the replay window, or the replay throws before touching any state.
  const LabelCorrections* corrections = nullptr;

  /// Snapshot cadence during the replay, in days on the *absolute* day
  /// index ((day + 1) % checkpoint_every == 0) — the same days a live run
  /// with this cadence checkpointed, so mid-replay snapshots byte-match
  /// live ones. 0 = no periodic snapshots. Requires the service to have a
  /// checkpoint directory (ReplayError otherwise — the fleet_monitor
  /// --checkpoint-every bugfix).
  data::Day checkpoint_every = 0;

  /// Called after each replayed day with that day's (possibly corrected)
  /// reports and verdicts — empty spans on empty days. Metrics consumers
  /// (orf_experiment) accumulate FDR/FAR here.
  std::function<void(data::Day, std::span<const engine::DiskReport>,
                     std::span<const engine::DayOutcome>)>
      on_day;
  /// Called after each replayed day with cumulative totals.
  std::function<void(const ReplayProgress&)> on_progress;
};

}  // namespace orf
