#include "orf/wal_codec.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "util/ordered_append.hpp"

namespace orf {

namespace {

/// Upper bounds for the encoder's reserve-ahead: a report's "<disk> <fate>"
/// head and newline, and one " <hexfloat>" cell (" -0x1.fffffep+127" is 17).
constexpr std::size_t kMaxReportHead = 48;
constexpr std::size_t kMaxCell = 24;

/// One hexfloat WAL cell: exactly what snprintf(" %a") prints for the
/// float widened to double. to_chars(hex) writes the magnitude without the
/// "0x" prefix, so the sign and prefix go first; non-finite values (which
/// reach the WAL before the engine's stage-0 rejection) keep printf.
void append_hex_cell(std::string& out, float value) {
  const double v = value;
  char cell[48];
  if (!std::isfinite(v)) {
    out.append(cell, static_cast<std::size_t>(
                         std::snprintf(cell, sizeof cell, " %a", v)));
    return;
  }
  out += std::signbit(v) ? " -0x" : " 0x";
  const char* const end = std::to_chars(cell, cell + sizeof cell,
                                        std::fabs(v), std::chars_format::hex)
                              .ptr;
  out.append(cell, static_cast<std::size_t>(end - cell));
}

template <typename T>
void append_int(std::string& out, T value) {
  char digits[24];
  const char* const end =
      std::to_chars(digits, digits + sizeof digits, value).ptr;
  out.append(digits, static_cast<std::size_t>(end - digits));
}

void append_report(std::string& out, const engine::DiskReport& report) {
  append_int(out, report.disk);
  out += ' ';
  append_int(out, static_cast<int>(report.fate));
  for (const float value : report.features) append_hex_cell(out, value);
  out += '\n';
}

[[noreturn]] void malformed(const std::string& why) {
  throw std::runtime_error("wal replay: malformed record: " + why);
}

/// Parse one integer field spanning [p, end) up to the next separator.
template <typename T>
const char* parse_int(const char* p, const char* end, T& value,
                      const char* what) {
  const auto [next, ec] = std::from_chars(p, end, value);
  if (ec != std::errc() || next == p) malformed(what);
  return next;
}

/// Parse one " <cell>" (leading space included) as the encoder wrote it.
const char* parse_cell(const char* p, const char* end, float& value) {
  if (p == end || *p != ' ') malformed("bad feature separator");
  ++p;
  const bool negative = p != end && *p == '-';
  if (negative) ++p;
  const bool hex = end - p >= 2 && p[0] == '0' && p[1] == 'x';
  const char* const digits = hex ? p + 2 : p;
  const auto [next, ec] =
      hex ? std::from_chars(digits, end, value, std::chars_format::hex)
          : std::from_chars(digits, end, value);  // inf / nan
  if (ec != std::errc() || next == digits) malformed("bad feature value");
  if (negative) value = -value;
  return next;
}

}  // namespace

std::string encode_wal_batch(data::Day day,
                             std::span<const engine::DiskReport> batch,
                             util::ThreadPool* pool) {
  std::string out = "day ";
  append_int(out, day);
  out += ' ';
  append_int(out, batch.size());
  out += '\n';
  util::append_ordered(
      out, batch.size(), pool,
      [&](std::size_t i) {
        return kMaxReportHead + batch[i].features.size() * kMaxCell;
      },
      [&](std::string& text, std::size_t i) { append_report(text, batch[i]); });
  return out;
}

DecodedBatch decode_wal_batch(std::string_view payload,
                              std::size_t feature_count) {
  std::string_view rest = payload;
  const auto next_line = [&rest](std::string_view& line) {
    const auto newline = rest.find('\n');
    if (newline == std::string_view::npos) return false;
    line = rest.substr(0, newline);
    rest.remove_prefix(newline + 1);
    return true;
  };

  DecodedBatch batch;
  std::string_view line;
  if (!next_line(line) || !line.starts_with("day ")) {
    malformed("missing day header");
  }
  const char* const header_end = line.data() + line.size();
  const char* p = parse_int(line.data() + 4, header_end, batch.day,
                            "bad day header");
  if (p == header_end || *p != ' ') malformed("bad day header");
  std::uint64_t reports = 0;
  p = parse_int(p + 1, header_end, reports, "bad day header");
  if (p != header_end) malformed("bad day header");
  // A report line is at least "d f", one " c" per feature and a newline:
  // cap the claimed count by what the payload can hold before reserving.
  if (reports > payload.size() / (2 * feature_count + 3)) {
    malformed("report count exceeds the record");
  }
  batch.features.reserve(reports);
  batch.reports.reserve(reports);

  while (next_line(line)) {
    if (batch.reports.size() == reports) malformed("report count mismatch");
    const char* const end = line.data() + line.size();
    engine::DiskReport report;
    p = parse_int(line.data(), end, report.disk, "bad disk id");
    if (p == end || *p != ' ') malformed("bad fate");
    int fate = 0;
    p = parse_int(p + 1, end, fate, "bad fate");
    if (fate < 0 || fate > 2) malformed("bad fate");
    report.fate = static_cast<engine::DiskFate>(fate);
    std::vector<float> row(feature_count);
    for (float& value : row) p = parse_cell(p, end, value);
    if (p != end) malformed("feature count mismatch");
    batch.features.push_back(std::move(row));
    report.features = batch.features.back();
    batch.reports.push_back(report);
  }
  if (!rest.empty()) malformed("unterminated report line");
  if (batch.reports.size() != reports) malformed("report count mismatch");
  // Only the encoder's exact bytes decode: leading zeros, signs, spacing or
  // hexfloat spellings it never writes would otherwise alias a batch.
  if (encode_wal_batch(batch.day, batch.reports) != payload) {
    malformed("non-canonical encoding");
  }
  return batch;
}

}  // namespace orf
