#include "robust/wal.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <charconv>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "robust/checkpoint_io.hpp"
#include "robust/failpoint.hpp"

namespace robust {

namespace fs = std::filesystem;

namespace {

constexpr std::string_view kSegmentMagic = "orf-wal v1 ";
constexpr std::string_view kRecordMagic = "rec ";

constexpr std::array<const char*, 4> kWalSites = {
    "wal.open_segment",
    "wal.append",
    "wal.fsync",
    "wal.rotate",
};

[[noreturn]] void throw_errno(const std::string& what) {
  throw std::runtime_error(what + ": " + std::strerror(errno));
}

void fsync_dir(const std::string& dir, const std::string& what) {
  const int fd = ::open(dir.c_str(), O_RDONLY);
  if (fd < 0) throw_errno(what + " open");
  const int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) throw_errno(what + " fsync");
}

std::string segment_name(std::uint64_t start) {
  char name[32];
  std::snprintf(name, sizeof name, "wal-%09llu.seg",
                static_cast<unsigned long long>(start));
  return name;
}

std::string slurp(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) throw std::runtime_error("wal: cannot open for read: " + path);
  std::ostringstream buffer;
  buffer << is.rdbuf();
  return std::move(buffer).str();
}

bool parse_u64(std::string_view text, std::uint64_t& out, int base = 10) {
  auto [p, ec] = std::from_chars(text.data(), text.data() + text.size(), out,
                                 base);
  return ec == std::errc() && p == text.data() + text.size();
}

/// A record frame is "rec <seq> <bytes> <crc32_hex>\n<payload>\n"; this is
/// its header line.
std::string record_header(std::uint64_t sequence, std::string_view payload) {
  char header[64];
  const int n = std::snprintf(header, sizeof header, "rec %llu %zu %08x\n",
                              static_cast<unsigned long long>(sequence),
                              payload.size(), crc32(payload));
  return std::string(header, static_cast<std::size_t>(n));
}

/// Walk the records of a segment's bytes, calling `fn(seq, payload)` for
/// each intact one; returns true when the segment ended cleanly, false when
/// a damaged record cut it short (torn tail).
bool walk_segment(std::string_view bytes,
                  const std::function<void(std::uint64_t, std::string_view)>&
                      fn) {
  // Header line: "orf-wal v1 <start>\n".
  if (bytes.substr(0, kSegmentMagic.size()) != kSegmentMagic) return false;
  auto newline = bytes.find('\n');
  if (newline == std::string_view::npos) return false;
  std::uint64_t start = 0;
  if (!parse_u64(bytes.substr(kSegmentMagic.size(),
                              newline - kSegmentMagic.size()),
                 start)) {
    return false;
  }
  (void)start;  // records carry their own sequence; the header is a magic
  bytes.remove_prefix(newline + 1);

  while (!bytes.empty()) {
    if (bytes.substr(0, kRecordMagic.size()) != kRecordMagic) return false;
    newline = bytes.find('\n');
    if (newline == std::string_view::npos) return false;
    const std::string_view header =
        bytes.substr(kRecordMagic.size(), newline - kRecordMagic.size());
    // Tokens: seq bytes crc.
    const auto sp1 = header.find(' ');
    const auto sp2 = header.rfind(' ');
    if (sp1 == std::string_view::npos || sp2 == sp1) return false;
    std::uint64_t sequence = 0;
    std::uint64_t length = 0;
    std::uint64_t expected_crc = 0;
    if (!parse_u64(header.substr(0, sp1), sequence) ||
        !parse_u64(header.substr(sp1 + 1, sp2 - sp1 - 1), length) ||
        !parse_u64(header.substr(sp2 + 1), expected_crc, 16)) {
      return false;
    }
    bytes.remove_prefix(newline + 1);
    if (bytes.size() < length + 1) return false;  // payload + '\n' torn
    const std::string_view payload = bytes.substr(0, length);
    if (bytes[length] != '\n') return false;
    if (crc32(payload) != static_cast<std::uint32_t>(expected_crc)) {
      return false;
    }
    fn(sequence, payload);
    bytes.remove_prefix(length + 1);
  }
  return true;
}

}  // namespace

IngestWal::SyncPolicy IngestWal::parse_sync_policy(std::string_view text) {
  if (text == "always") return SyncPolicy::kAlways;
  if (text == "batch") return SyncPolicy::kBatch;
  if (text == "off") return SyncPolicy::kOff;
  throw std::invalid_argument("wal: unknown sync policy '" +
                              std::string(text) + "' (always|batch|off)");
}

IngestWal::IngestWal(Options options) : options_(std::move(options)) {
  if (options_.directory.empty()) {
    throw std::invalid_argument("IngestWal: directory must be set");
  }
  // Position after the newest intact record; drop segments that carry no
  // intact record at all (a crash between segment creation and the first
  // durable append leaves exactly that debris, and keeping it would
  // collide with the next segment of the same start sequence).
  for (const auto& [start, path] : scan()) {
    std::uint64_t newest = 0;
    try {
      walk_segment(slurp(path),
                   [&](std::uint64_t seq, std::string_view) { newest = seq; });
    } catch (const std::exception&) {
      newest = 0;  // unreadable: treat as empty debris
    }
    if (newest == 0) {
      std::error_code ec;
      fs::remove(path, ec);
      continue;
    }
    next_sequence_ = std::max(next_sequence_, newest + 1);
  }
}

IngestWal::~IngestWal() { retire_segment(); }

void IngestWal::bind_metrics(obs::Registry& registry) {
  instruments_.appends = &registry.counter(
      "orf_wal_appends_total", "records appended to the ingest WAL");
  instruments_.syncs = &registry.counter(
      "orf_wal_syncs_total", "fsync calls issued by the ingest WAL");
}

std::vector<std::pair<std::uint64_t, std::string>> IngestWal::scan() const {
  std::vector<std::pair<std::uint64_t, std::string>> found;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(options_.directory, ec)) {
    if (!entry.is_regular_file()) continue;
    const std::string name = entry.path().filename().string();
    // wal-<digits>.seg
    if (name.size() <= 8 || name.compare(0, 4, "wal-") != 0 ||
        name.compare(name.size() - 4, 4, ".seg") != 0) {
      continue;
    }
    std::uint64_t start = 0;
    if (!parse_u64(std::string_view(name).substr(4, name.size() - 8), start)) {
      continue;
    }
    found.emplace_back(start, entry.path().string());
  }
  std::sort(found.begin(), found.end());
  return found;
}

std::vector<std::string> IngestWal::segments() const {
  std::vector<std::string> paths;
  for (const auto& [start, path] : scan()) paths.push_back(path);
  return paths;
}

void IngestWal::retire_segment() noexcept {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
  open_start_ = 0;
  dirty_ = false;
}

void IngestWal::open_segment_locked() {
  ORF_FAILPOINT("wal.open_segment");
  std::error_code ec;
  fs::create_directories(options_.directory, ec);
  const std::string path =
      (fs::path(options_.directory) / segment_name(next_sequence_)).string();
  // O_TRUNC is safe: a file of this name can only be debris with no intact
  // record (anything intact would have advanced next_sequence_ past it).
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) throw_errno("wal: cannot open " + path);
  char header[48];
  const int n = std::snprintf(header, sizeof header, "%.*s%llu\n",
                              static_cast<int>(kSegmentMagic.size()),
                              kSegmentMagic.data(),
                              static_cast<unsigned long long>(next_sequence_));
  try {
    const std::string_view parts[] = {
        std::string_view(header, static_cast<std::size_t>(n))};
    write_parts(fd, parts, "wal: write header " + path);
    // The directory entry must be durable before any record in it is: a
    // synced record inside an unlinked-by-crash segment is not durable.
    fsync_dir(options_.directory, "wal: directory " + options_.directory);
  } catch (...) {
    ::close(fd);
    throw;
  }
  fd_ = fd;
  open_start_ = next_sequence_;
  dirty_ = true;  // header bytes are not fsynced yet
}

std::uint64_t IngestWal::append(std::string_view payload) {
  if (fd_ < 0) open_segment_locked();
  const std::uint64_t sequence = next_sequence_;
  const std::string header = record_header(sequence, payload);
  const std::string_view parts[] = {header, payload, "\n"};
  try {
    // A short-write fault truncates the record mid-frame and then throws —
    // the torn tail a real crash would leave.
    if (const auto keep = failpoint_short_write("wal.append")) {
      const auto kept = static_cast<std::size_t>(
          static_cast<double>(header.size() + payload.size() + 1) * *keep);
      write_parts(fd_, parts, "wal: short append", kept);
      throw InjectedFault("wal.append");
    }
    write_parts(fd_, parts, "wal: append");
    dirty_ = true;
    if (options_.sync == SyncPolicy::kAlways) sync_open_segment();
  } catch (...) {
    // The segment tail is now undefined; retire it so the retry (same
    // sequence) lands in a fresh segment replay can reach.
    retire_segment();
    throw;
  }
  ++next_sequence_;
  if (instruments_.appends) instruments_.appends->inc();
  return sequence;
}

void IngestWal::sync_open_segment() {
  ORF_FAILPOINT("wal.fsync");
  if (::fsync(fd_) != 0) throw_errno("wal: fsync segment");
  dirty_ = false;
  if (instruments_.syncs) instruments_.syncs->inc();
}

void IngestWal::sync() {
  if (options_.sync == SyncPolicy::kOff) return;
  if (fd_ < 0 || !dirty_) return;
  try {
    sync_open_segment();
  } catch (...) {
    retire_segment();
    throw;
  }
}

IngestWal::ReplayStats IngestWal::replay(
    std::uint64_t after, const std::function<void(const Record&)>& apply) {
  ReplayStats stats;
  std::uint64_t applied_through = after;
  for (const auto& [start, path] : scan()) {
    std::string bytes;
    try {
      bytes = slurp(path);
    } catch (const std::exception&) {
      ++stats.torn;
      continue;
    }
    const bool clean =
        walk_segment(bytes, [&](std::uint64_t seq, std::string_view payload) {
          // Sequence monotonicity is the idempotence guard: records at or
          // below the resume point (or re-read from an overlapping
          // segment) are skipped, never re-applied.
          if (seq <= applied_through) {
            ++stats.skipped;
            return;
          }
          apply(Record{seq, payload});
          applied_through = seq;
          ++stats.applied;
        });
    if (!clean) ++stats.torn;
  }
  return stats;
}

void IngestWal::rotate(std::uint64_t durable_sequence) {
  ORF_FAILPOINT("wal.rotate");
  const auto all = scan();
  // A segment is redundant when every record it can hold is covered by the
  // checkpoint: its records end where the next segment starts, and the
  // newest segment ends at last_sequence().
  bool removed = false;
  for (std::size_t i = 0; i < all.size(); ++i) {
    const std::uint64_t end =
        (i + 1 < all.size()) ? all[i + 1].first - 1 : last_sequence();
    if (end > durable_sequence) continue;
    if (all[i].first == open_start_ && fd_ >= 0) retire_segment();
    std::error_code ec;
    fs::remove(all[i].second, ec);
    removed = true;
  }
  if (removed) {
    fsync_dir(options_.directory, "wal: directory " + options_.directory);
  }
}

std::span<const char* const> IngestWal::wal_failpoint_sites() {
  return std::span<const char* const>(kWalSites.data(), kWalSites.size());
}

}  // namespace robust
