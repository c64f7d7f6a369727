#include "tsdb/writer.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <stdexcept>
#include <unordered_set>

#include "robust/checkpoint_io.hpp"
#include "robust/failpoint.hpp"
#include "tsdb/codec.hpp"
#include "util/ordered_append.hpp"

namespace tsdb {

namespace fs = std::filesystem;

namespace {

constexpr std::array<const char*, 5> kTsdbSites = {
    "tsdb.open_segment",
    "tsdb.append_block",
    "tsdb.fsync",
    "tsdb.catalog",
    "tsdb.retention",
};

[[noreturn]] void throw_errno(const std::string& what) {
  throw std::runtime_error(what + ": " + std::strerror(errno));
}

void write_all(int fd, std::string_view bytes, const std::string& what) {
  const std::string_view parts[] = {bytes};
  robust::write_parts(fd, parts, what);
}

void fsync_dir(const std::string& dir, const std::string& what) {
  const int fd = ::open(dir.c_str(), O_RDONLY);
  if (fd < 0) throw_errno(what + " open");
  const int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) throw_errno(what + " fsync");
}

}  // namespace

Writer::Writer(Options options) : options_(std::move(options)) {
  if (options_.directory.empty()) {
    throw std::invalid_argument("tsdb::Writer: directory must be set");
  }
  if (options_.feature_count == 0) {
    throw std::invalid_argument("tsdb::Writer: feature_count must be set");
  }
  std::error_code ec;
  fs::create_directories(options_.directory, ec);
  if (!fs::is_directory(options_.directory)) {
    // Fail at open, not at the first flush: an unusable root (device gone,
    // a file squatting on the path) should surface on the health ladder
    // immediately.
    throw std::runtime_error("tsdb: cannot create store directory " +
                             options_.directory +
                             (ec ? ": " + ec.message() : std::string()));
  }
  load_catalog();
}

Writer::~Writer() { retire_segment(); }

std::string Writer::catalog_path() const {
  return (fs::path(options_.directory) / kCatalogFile).string();
}

void Writer::load_catalog() {
  const std::string path = catalog_path();
  if (!fs::exists(path)) return;
  Catalog catalog;
  try {
    catalog = parse_catalog(robust::read_envelope_file(path));
  } catch (const CorruptSegment&) {
    throw;
  } catch (const robust::CorruptCheckpoint& e) {
    throw CorruptSegment(std::string("tsdb catalog: ") + e.what());
  }
  if (catalog.feature_count != options_.feature_count) {
    throw std::invalid_argument(
        "tsdb::Writer: store holds " +
        std::to_string(catalog.feature_count) + " features, expected " +
        std::to_string(options_.feature_count));
  }
  blocks_ = std::move(catalog.blocks);
  next_day_ = committed_next_day_ = catalog.next_day;
  first_day_ = catalog.first_day;
  floor_day_ = catalog.floor_day;
  any_day_ = true;
  for (const BlockRef& block : blocks_) {
    next_segment_id_ = std::max(next_segment_id_, block.segment_id + 1);
  }
}

void Writer::bind_metrics(obs::Registry& registry) {
  instruments_.rows = &registry.counter(
      "orf_tsdb_appended_rows_total", "SMART rows teed into the history store");
  instruments_.skipped_rows = &registry.counter(
      "orf_tsdb_skipped_rows_total",
      "re-teed rows skipped by the day-keyed high-water mark");
  instruments_.flushes = &registry.counter(
      "orf_tsdb_flushes_total", "history-store flushes (catalog commits)");
  instruments_.blocks = &registry.counter(
      "orf_tsdb_blocks_total", "compressed blocks appended to segments");
  instruments_.bytes = &registry.counter(
      "orf_tsdb_bytes_total", "compressed bytes appended to segments");
  instruments_.retired_blocks = &registry.counter(
      "orf_tsdb_retired_blocks_total",
      "blocks dropped from the catalog by retention");
  instruments_.retired_segments = &registry.counter(
      "orf_tsdb_retired_segments_total",
      "segment files unlinked by retention GC");
  instruments_.buffered = &registry.gauge(
      "orf_tsdb_buffered_rows", "rows buffered and not yet flushed");
}

std::size_t Writer::append_day(data::Day day, std::span<const RowView> rows) {
  for (const RowView& row : rows) {
    if (row.features.size() != options_.feature_count) {
      throw std::invalid_argument(
          "tsdb::Writer: row feature count mismatch");
    }
  }
  if (day < next_day_) {
    // Replay idempotence: this day is already committed or buffered (a WAL
    // re-tee after an un-flushed crash, or a double replay).
    if (instruments_.skipped_rows) instruments_.skipped_rows->inc(rows.size());
    return 0;
  }
  if (!any_day_) {
    any_day_ = true;
    first_day_ = day;
  }
  for (const RowView& row : rows) {
    Pending& pending = pending_[row.disk];
    pending.days.push_back(day);
    pending.fates.push_back(row.fate);
    pending.values.insert(pending.values.end(), row.features.begin(),
                          row.features.end());
  }
  buffered_rows_ += rows.size();
  next_day_ = day + 1;
  if (instruments_.rows) instruments_.rows->inc(rows.size());
  if (instruments_.buffered) {
    instruments_.buffered->set(static_cast<double>(buffered_rows_));
  }
  return rows.size();
}

void Writer::retire_segment() noexcept {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
  open_segment_id_ = 0;
  open_segment_size_ = 0;
}

void Writer::open_segment() {
  ORF_FAILPOINT("tsdb.open_segment");
  std::error_code ec;
  fs::create_directories(options_.directory, ec);
  // Prefer appending to the newest committed segment while it has room;
  // after a failed flush the append position is re-read from the file, so
  // orphan frames past the committed extent are simply written over by
  // nothing — new frames land after them and only cataloged offsets are
  // ever read.
  if (!blocks_.empty()) {
    std::uint32_t newest = 0;
    for (const BlockRef& block : blocks_) {
      newest = std::max(newest, block.segment_id);
    }
    const std::string path =
        (fs::path(options_.directory) / segment_name(newest)).string();
    const int fd = ::open(path.c_str(), O_WRONLY | O_APPEND);
    if (fd >= 0) {
      const off_t size = ::lseek(fd, 0, SEEK_END);
      if (size >= 0 &&
          static_cast<std::size_t>(size) < options_.segment_max_bytes) {
        fd_ = fd;
        open_segment_id_ = newest;
        open_segment_size_ = static_cast<std::uint64_t>(size);
        return;
      }
      ::close(fd);
    }
  }
  const std::uint32_t id = next_segment_id_;
  const std::string path =
      (fs::path(options_.directory) / segment_name(id)).string();
  // O_TRUNC is safe: a file of this name can only be debris from a flush
  // that died before its catalog commit — nothing references its frames.
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) throw_errno("tsdb: cannot open " + path);
  const std::string header =
      std::string(kSegmentMagic) + std::to_string(id) + "\n";
  try {
    write_all(fd, header, "tsdb: write header " + path);
    // The directory entry must be durable before the catalog may point at
    // frames inside it.
    fsync_dir(options_.directory, "tsdb: directory " + options_.directory);
  } catch (...) {
    ::close(fd);
    throw;
  }
  fd_ = fd;
  open_segment_id_ = id;
  open_segment_size_ = header.size();
  next_segment_id_ = id + 1;
}

void Writer::flush(util::ThreadPool* pool) {
  if (pending_.empty() && next_day_ == committed_next_day_) return;

  // Encode every buffered disk's block, ascending DiskId, back to back into
  // one buffer: runs of disks on `pool`, appended in order, so the bytes
  // are the same for any pool.
  std::vector<std::pair<data::DiskId, const Pending*>> disks;
  disks.reserve(pending_.size());
  for (const auto& [disk, pending] : pending_) {
    disks.emplace_back(disk, &pending);
  }
  std::vector<std::size_t> frame_bytes(disks.size());
  std::string encoded;
  util::append_ordered(
      encoded, disks.size(), pool,
      [&](std::size_t i) {
        return block_frame_bound(disks[i].second->days.size(),
                                 options_.feature_count);
      },
      [&](std::string& text, std::size_t i) {
        const std::size_t before = text.size();
        const Pending& pending = *disks[i].second;
        append_block(text, disks[i].first, options_.feature_count,
                     pending.days, pending.fates, pending.values);
        frame_bytes[i] = text.size() - before;
      });

  std::vector<BlockRef> staged;
  staged.reserve(disks.size());
  std::uint64_t staged_bytes = 0;
  std::size_t retired_blocks = 0;
  try {
    // Frames go out one write per segment run: `unwritten` is where the
    // bytes not yet handed to the open segment start.
    std::size_t at = 0;
    std::size_t unwritten = 0;
    const auto write_run = [&] {
      write_all(fd_,
                std::string_view(encoded).substr(unwritten, at - unwritten),
                "tsdb: append block");
      unwritten = at;
    };
    for (std::size_t i = 0; i < disks.size(); ++i) {
      if (fd_ >= 0 && open_segment_size_ >= options_.segment_max_bytes) {
        // Rotation: the outgoing segment's frames must be durable before
        // it is dropped from the write path.
        write_run();
        ORF_FAILPOINT("tsdb.fsync");
        if (::fsync(fd_) != 0) throw_errno("tsdb: fsync segment");
        retire_segment();
      }
      if (fd_ < 0) open_segment();
      const std::string_view frame =
          std::string_view(encoded).substr(at, frame_bytes[i]);
      if (robust::failpoints_armed()) {
        // Under fault injection each frame goes out on its own, so a fault
        // here finds exactly the earlier frames on disk. A short-write
        // fault truncates this frame mid-block then throws — the torn tail
        // a real crash would leave (and the catalog never learns about).
        write_run();
        if (const auto keep =
                robust::failpoint_short_write("tsdb.append_block")) {
          const auto kept = static_cast<std::size_t>(
              static_cast<double>(frame.size()) * *keep);
          write_all(fd_, frame.substr(0, kept), "tsdb: short append");
          throw robust::InjectedFault("tsdb.append_block");
        }
      }
      const Pending& pending = *disks[i].second;
      staged.push_back(BlockRef{.disk = disks[i].first,
                                .segment_id = open_segment_id_,
                                .offset = open_segment_size_,
                                .bytes = frame.size(),
                                .first_day = pending.days.front(),
                                .last_day = pending.days.back(),
                                .rows = static_cast<std::uint32_t>(
                                    pending.days.size())});
      open_segment_size_ += frame.size();
      staged_bytes += frame.size();
      at += frame.size();
    }
    if (!staged.empty()) {
      write_run();
      ORF_FAILPOINT("tsdb.fsync");
      if (::fsync(fd_) != 0) throw_errno("tsdb: fsync segment");
    }

    // The commit point: blocks are durable, now publish them (and the new
    // high-water mark) atomically. Until this succeeds the previous catalog
    // stays in force and readers cannot see any of the bytes above.
    Catalog catalog;
    catalog.feature_count = options_.feature_count;
    catalog.first_day = first_day();
    catalog.next_day = next_day_;
    // Both runs are ascending (disk, first_day), and a staged block starts
    // past every committed day of its disk: one merge keeps the order.
    catalog.blocks.resize(blocks_.size() + staged.size());
    std::merge(blocks_.begin(), blocks_.end(), staged.begin(), staged.end(),
               catalog.blocks.begin(),
               [](const BlockRef& a, const BlockRef& b) {
                 return a.disk != b.disk ? a.disk < b.disk
                                         : a.first_day < b.first_day;
               });
    // Retention: advance the replay floor, then drop the blocks that ended
    // below it *before* the commit — the catalog that lands never points at
    // anything GC may unlink. A block straddling the floor stays whole, so
    // every day in [floor, next_day) remains fully replayable.
    data::Day floor = floor_day_;
    if (options_.retain_days > 0) {
      floor = std::max(floor, next_day_ - options_.retain_days);
    }
    floor = std::max(floor, catalog.first_day);
    if (floor > floor_day_) {
      const auto expired = std::remove_if(
          catalog.blocks.begin(), catalog.blocks.end(),
          [floor](const BlockRef& block) { return block.last_day < floor; });
      retired_blocks = static_cast<std::size_t>(catalog.blocks.end() - expired);
      catalog.blocks.erase(expired, catalog.blocks.end());
    }
    catalog.floor_day = floor;
    ORF_FAILPOINT("tsdb.catalog");
    robust::write_envelope_file(catalog_path(), serialize_catalog(catalog));
    blocks_ = std::move(catalog.blocks);
    floor_day_ = floor;
  } catch (...) {
    // Keep the buffer (a later flush retries everything) but drop the fd:
    // the next open re-reads the true append position past any torn tail.
    retire_segment();
    throw;
  }

  committed_next_day_ = next_day_;
  pending_.clear();
  buffered_rows_ = 0;
  if (instruments_.flushes) instruments_.flushes->inc();
  if (instruments_.blocks) instruments_.blocks->inc(staged.size());
  if (instruments_.bytes) instruments_.bytes->inc(staged_bytes);
  if (instruments_.retired_blocks && retired_blocks > 0) {
    instruments_.retired_blocks->inc(retired_blocks);
  }
  if (instruments_.buffered) instruments_.buffered->set(0.0);
  // GC strictly after the commit: unlink is the only irreversible step and
  // it only ever touches files the durable catalog no longer references.
  if (options_.retain_days > 0) collect_garbage();
}

void Writer::collect_garbage() noexcept {
  try {
    ORF_FAILPOINT("tsdb.retention");
    std::unordered_set<std::uint32_t> kept;
    for (const BlockRef& block : blocks_) kept.insert(block.segment_id);
    std::size_t unlinked = 0;
    std::error_code ec;
    for (const auto& entry : fs::directory_iterator(options_.directory, ec)) {
      const std::string name = entry.path().filename().string();
      unsigned id = 0;
      if (std::sscanf(name.c_str(), "tsdb-%06u.seg", &id) != 1 ||
          name != segment_name(id)) {
        continue;
      }
      if (kept.count(id) != 0) continue;
      if (fd_ >= 0 && id == open_segment_id_) continue;
      std::error_code remove_ec;
      if (fs::remove(entry.path(), remove_ec) && !remove_ec) ++unlinked;
    }
    if (unlinked > 0) {
      fsync_dir(options_.directory, "tsdb: directory " + options_.directory);
      if (instruments_.retired_segments) {
        instruments_.retired_segments->inc(unlinked);
      }
    }
  } catch (...) {
    // Orphan segment files are harmless (the catalog never references
    // them); the pass after the next commit sweeps them again.
  }
}

std::span<const char* const> Writer::tsdb_failpoint_sites() {
  return std::span<const char* const>(kTsdbSites.data(), kTsdbSites.size());
}

}  // namespace tsdb
