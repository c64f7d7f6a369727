// tsdb::Writer — the append side of the history store.
//
// Rows arrive one day-batch at a time (the Service's ingest tee) and buffer
// in memory per disk; flush() — ridden by the Service's checkpoint cadence
// — encodes one block per buffered disk (concurrently on the Service's
// pool), lays the frames out in ascending DiskId order with one write per
// segment run, fsyncs, and only then atomically rewrites the catalog. The
// catalog is the commit point: a crash anywhere before it leaves the
// previous committed extent intact (torn segment tails
// are never referenced), and the lost buffered days are exactly the ones
// the ingest WAL replays — whose re-tee the day-keyed `next_day` high-water
// mark deduplicates, the same idempotence scheme the Service uses for
// engine state.
//
// Retention (Options::retain_days) rides the same commit: the catalog is
// first rewritten without the blocks that fell below the new replay floor,
// and only after that rename lands are unreferenced segment files unlinked
// — so the committed catalog never points at a deleted file, whatever
// crashes in between.
//
// Single-writer contract like the WAL: the Service's exclusive ingest lock
// serialises append_day/flush. Every I/O stage is a named failpoint
// (tsdb.open_segment / tsdb.append_block / tsdb.fsync / tsdb.catalog /
// tsdb.retention) so the service suite can fault each one and prove ingest
// degrades to the health ladder instead of failing.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "obs/registry.hpp"
#include "tsdb/format.hpp"
#include "util/thread_pool.hpp"

namespace tsdb {

class Writer {
 public:
  struct Options {
    std::string directory;  ///< created if missing
    std::size_t feature_count = 0;
    /// Segment rotation threshold: a flush whose segment has grown past
    /// this starts the next block in a fresh segment file.
    std::size_t segment_max_bytes = 4u << 20;
    /// Retention window in days (0 = keep everything). Each catalog commit
    /// advances the replay floor to next_day - retain_days and drops blocks
    /// that ended below it; segments left with no cataloged block are
    /// unlinked *after* the commit, so a crash mid-GC leaves only orphan
    /// files — the catalog can never reference a deleted segment. Days at
    /// or above the floor are never dropped, not even partially: a block
    /// straddling the floor is kept whole.
    data::Day retain_days = 0;
  };

  /// Opens (or creates) the store; an existing catalog is loaded so appends
  /// resume behind the committed high-water mark. Throws CorruptSegment on
  /// a damaged catalog and std::invalid_argument when the store was built
  /// for a different feature count.
  explicit Writer(Options options);
  ~Writer();

  Writer(const Writer&) = delete;
  Writer& operator=(const Writer&) = delete;

  /// Register the orf_tsdb_* instruments on `registry`.
  void bind_metrics(obs::Registry& registry);

  /// Buffer one day's rows (possibly none — empty days still advance the
  /// high-water mark, so replay windows match live runs). Days at or below
  /// the mark are skipped wholesale: that is the replay-idempotence guard.
  /// Returns the rows actually buffered. Throws std::invalid_argument on a
  /// feature-count mismatch; does no I/O.
  std::size_t append_day(data::Day day, std::span<const RowView> rows);

  /// Encode + append + fsync the buffered blocks, then commit the catalog.
  /// No-op when nothing changed since the last commit. On failure the
  /// buffer is kept (a later flush retries) and the committed extent is
  /// untouched; bytes already appended past it are dead crash debris.
  /// With `pool`, blocks encode concurrently; the bytes on disk are the
  /// same for any pool.
  void flush(util::ThreadPool* pool = nullptr);

  /// First day the next append_day may carry (committed ∨ buffered).
  data::Day next_day() const { return next_day_; }
  /// First day ever appended (0 before any append).
  data::Day first_day() const { return any_day_ ? first_day_ : 0; }
  /// Committed replay floor: every day in [floor_day, next_day) the catalog
  /// has seen is still fully replayable. Advances on flush when retention
  /// is on; never moves past what the last commit published.
  data::Day floor_day() const { return floor_day_; }
  std::size_t feature_count() const { return options_.feature_count; }
  std::size_t buffered_rows() const { return buffered_rows_; }
  const Options& options() const { return options_; }

  /// The writer's failpoint sites, in execution order.
  static std::span<const char* const> tsdb_failpoint_sites();

 private:
  struct Pending {
    std::vector<data::Day> days;
    std::vector<std::uint8_t> fates;
    std::vector<float> values;
  };

  void load_catalog();
  void open_segment();
  void retire_segment() noexcept;
  /// Unlink every tsdb-*.seg the committed catalog no longer references —
  /// never the open segment. Runs only after a successful commit, so the
  /// catalog is the sole survivor test. Failures are swallowed: orphan
  /// files are harmless debris the next pass sweeps again.
  void collect_garbage() noexcept;
  std::string catalog_path() const;

  Options options_;
  /// Committed blocks, ascending (disk, first_day) — mirrors the catalog.
  std::vector<BlockRef> blocks_;
  std::map<data::DiskId, Pending> pending_;  ///< ordered: deterministic flush
  std::size_t buffered_rows_ = 0;

  data::Day next_day_ = 0;
  data::Day committed_next_day_ = 0;  ///< next_day the catalog last recorded
  data::Day first_day_ = 0;
  data::Day floor_day_ = 0;  ///< committed replay floor (see floor_day())
  bool any_day_ = false;

  int fd_ = -1;                    ///< open segment, -1 when none
  std::uint32_t open_segment_id_ = 0;
  std::uint64_t open_segment_size_ = 0;
  std::uint32_t next_segment_id_ = 0;

  struct Instruments {
    obs::Counter* rows = nullptr;
    obs::Counter* skipped_rows = nullptr;
    obs::Counter* flushes = nullptr;
    obs::Counter* blocks = nullptr;
    obs::Counter* bytes = nullptr;
    obs::Counter* retired_blocks = nullptr;
    obs::Counter* retired_segments = nullptr;
    obs::Gauge* buffered = nullptr;
  };
  Instruments instruments_;
};

}  // namespace tsdb
