#include "tsdb/format.hpp"

#include <charconv>
#include <cstdint>
#include <cstdio>

namespace tsdb {

namespace {

bool parse_u64(std::string_view text, std::uint64_t& out) {
  auto [p, ec] =
      std::from_chars(text.data(), text.data() + text.size(), out, 10);
  return ec == std::errc() && p == text.data() + text.size();
}

bool parse_i64(std::string_view text, std::int64_t& out) {
  auto [p, ec] =
      std::from_chars(text.data(), text.data() + text.size(), out, 10);
  return ec == std::errc() && p == text.data() + text.size();
}

[[noreturn]] void corrupt(const std::string& why) {
  throw CorruptSegment("tsdb catalog: " + why);
}

/// Pop the next line of `rest` (without its newline); empty-and-done is an
/// error here — the catalog's line count is fixed up front.
std::string_view next_line(std::string_view& rest) {
  if (rest.empty()) corrupt("truncated");
  const auto newline = rest.find('\n');
  if (newline == std::string_view::npos) corrupt("unterminated line");
  const std::string_view line = rest.substr(0, newline);
  rest.remove_prefix(newline + 1);
  return line;
}

/// Split `line` on single spaces; returns false on a token-count mismatch.
bool split(std::string_view line, std::span<std::string_view> out) {
  std::size_t at = 0;
  for (std::size_t i = 0; i < out.size(); ++i) {
    if (at > line.size()) return false;
    const auto space = line.find(' ', at);
    const bool last = i + 1 == out.size();
    if (last != (space == std::string_view::npos)) return false;
    out[i] = line.substr(at, last ? std::string_view::npos : space - at);
    if (out[i].empty()) return false;
    at = last ? line.size() : space + 1;
  }
  return true;
}

}  // namespace

std::string segment_name(std::uint32_t id) {
  char name[32];
  std::snprintf(name, sizeof name, "tsdb-%06u.seg", id);
  return name;
}

std::string serialize_catalog(const Catalog& catalog) {
  // One reserve for the whole catalog (it lists every block the store
  // holds), then each field is to_chars'd straight into it.
  constexpr std::size_t kMaxField = 21;  // any 64-bit decimal + separator
  std::string out;
  out.reserve(kCatalogMagic.size() + 5 * (12 + kMaxField) +
              catalog.blocks.size() * (6 + 7 * kMaxField));
  const auto field = [&out](std::string_view key, auto value) {
    out += key;
    char digits[kMaxField];
    out.append(digits, std::to_chars(digits, digits + kMaxField, value).ptr);
  };
  out += kCatalogMagic;
  field("\nfeatures ", catalog.feature_count);
  field("\nfirst_day ", catalog.first_day);
  // The floor line only appears once GC has moved it, so catalogs of
  // stores that never retire anything stay byte-identical to the
  // pre-retention format.
  if (catalog.floor_day > catalog.first_day) {
    field("\nfloor ", catalog.floor_day);
  }
  field("\nnext_day ", catalog.next_day);
  field("\nblocks ", catalog.blocks.size());
  for (const BlockRef& block : catalog.blocks) {
    field("\nblock ", block.disk);
    field(" ", block.segment_id);
    field(" ", block.offset);
    field(" ", block.bytes);
    field(" ", block.first_day);
    field(" ", block.last_day);
    field(" ", block.rows);
  }
  out += '\n';
  return out;
}

Catalog parse_catalog(std::string_view payload) {
  Catalog catalog;
  if (next_line(payload) != kCatalogMagic) corrupt("bad magic");

  const auto field = [&](std::string_view key) -> std::int64_t {
    std::string_view tokens[2];
    if (!split(next_line(payload), tokens) || tokens[0] != key) {
      corrupt("expected '" + std::string(key) + "' line");
    }
    std::int64_t value = 0;
    if (!parse_i64(tokens[1], value)) {
      corrupt("bad '" + std::string(key) + "' value");
    }
    return value;
  };

  const std::int64_t features = field("features");
  if (features <= 0 || features > (1 << 20)) corrupt("bad feature count");
  catalog.feature_count = static_cast<std::size_t>(features);
  catalog.first_day = static_cast<data::Day>(field("first_day"));
  catalog.floor_day = catalog.first_day;  // absent line: nothing retired
  if (payload.substr(0, 6) == "floor ") {
    catalog.floor_day = static_cast<data::Day>(field("floor"));
  }
  catalog.next_day = static_cast<data::Day>(field("next_day"));
  if (catalog.floor_day < catalog.first_day ||
      catalog.floor_day > catalog.next_day) {
    corrupt("floor outside [first_day, next_day]");
  }
  const std::int64_t count = field("blocks");
  if (count < 0 || count > (1 << 28)) corrupt("bad block count");

  catalog.blocks.reserve(static_cast<std::size_t>(count));
  for (std::int64_t i = 0; i < count; ++i) {
    std::string_view tokens[8];
    if (!split(next_line(payload), tokens) || tokens[0] != "block") {
      corrupt("expected 'block' line");
    }
    BlockRef block;
    std::uint64_t disk = 0;
    std::uint64_t segment = 0;
    std::uint64_t rows = 0;
    std::int64_t first = 0;
    std::int64_t last = 0;
    if (!parse_u64(tokens[1], disk) || !parse_u64(tokens[2], segment) ||
        !parse_u64(tokens[3], block.offset) ||
        !parse_u64(tokens[4], block.bytes) || !parse_i64(tokens[5], first) ||
        !parse_i64(tokens[6], last) || !parse_u64(tokens[7], rows)) {
      corrupt("bad 'block' line");
    }
    block.disk = static_cast<data::DiskId>(disk);
    block.segment_id = static_cast<std::uint32_t>(segment);
    block.first_day = static_cast<data::Day>(first);
    block.last_day = static_cast<data::Day>(last);
    block.rows = static_cast<std::uint32_t>(rows);
    if (block.rows == 0 || block.bytes == 0 ||
        block.last_day < block.first_day) {
      corrupt("inconsistent 'block' line");
    }
    catalog.blocks.push_back(block);
  }
  if (!payload.empty()) corrupt("trailing bytes");
  return catalog;
}

}  // namespace tsdb
