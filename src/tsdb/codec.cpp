#include "tsdb/codec.hpp"

#include <bit>
#include <charconv>
#include <cstring>
#include <cstdio>
#include <stdexcept>

#include "robust/checkpoint_io.hpp"

namespace tsdb {

namespace {

/// Largest row count a block may claim — far above anything the writer
/// produces (one block covers one disk's rows between two flushes), low
/// enough that a damaged header can never provoke a giant allocation.
constexpr std::uint32_t kMaxRowsPerBlock = 1u << 24;

/// Widest frame header line: "blk " + 20 digits + ' ' + 8 hex digits + '\n'.
constexpr std::size_t kMaxFrameHeader = 34;

[[noreturn]] void corrupt(const std::string& why) {
  throw CorruptSegment("tsdb block: " + why);
}

std::uint32_t zigzag(std::int32_t v) {
  return (static_cast<std::uint32_t>(v) << 1) ^
         static_cast<std::uint32_t>(v >> 31);
}

std::int32_t unzigzag(std::uint32_t u) {
  return static_cast<std::int32_t>((u >> 1) ^ (~(u & 1) + 1));
}

/// MSB-first bit accumulator; bytes spill into a caller-owned string.
class BitWriter {
 public:
  explicit BitWriter(std::string& out) : out_(out) {}

  void put(std::uint32_t value, int bits) {
    if (bits < 32) value &= (1u << bits) - 1;
    acc_ = (acc_ << bits) | value;
    used_ += bits;
    while (used_ >= 8) {
      out_.push_back(static_cast<char>((acc_ >> (used_ - 8)) & 0xFF));
      used_ -= 8;
    }
  }

  void finish() {
    if (used_ > 0) {
      out_.push_back(static_cast<char>((acc_ << (8 - used_)) & 0xFF));
      used_ = 0;
    }
  }

 private:
  std::string& out_;
  std::uint64_t acc_ = 0;
  int used_ = 0;  ///< bits of acc_ not yet spilled (< 8 between puts)
};

/// MSB-first reader over the payload; overruns throw instead of yielding
/// fabricated bits.
class BitReader {
 public:
  explicit BitReader(std::string_view bytes) : bytes_(bytes) {}

  std::uint32_t get(int bits) {
    std::uint32_t value = 0;
    while (bits > 0) {
      const std::size_t byte = pos_ >> 3;
      if (byte >= bytes_.size()) corrupt("bit stream overrun");
      const int avail = 8 - static_cast<int>(pos_ & 7);
      const int take = bits < avail ? bits : avail;
      const auto current = static_cast<std::uint8_t>(bytes_[byte]);
      const std::uint32_t piece =
          (static_cast<std::uint32_t>(current) >> (avail - take)) &
          ((1u << take) - 1);
      value = (value << take) | piece;
      pos_ += static_cast<std::size_t>(take);
      bits -= take;
    }
    return value;
  }

  /// The stream must end exactly here: only zero padding to the final byte
  /// boundary may remain. Anything else is damage the CRC missed in theory
  /// only — but the contract is exact-or-throw, so it is checked.
  void expect_end() const {
    const std::size_t bytes_used = (pos_ + 7) >> 3;
    if (bytes_used != bytes_.size()) corrupt("trailing payload bytes");
    if ((pos_ & 7) != 0) {
      const auto last = static_cast<std::uint8_t>(bytes_.back());
      const int pad = 8 - static_cast<int>(pos_ & 7);
      if ((last & ((1u << pad) - 1)) != 0) corrupt("nonzero padding");
    }
  }

 private:
  std::string_view bytes_;
  std::size_t pos_ = 0;  ///< in bits
};

/// Per-feature XOR chain state (the Gorilla leading/length window).
struct XorState {
  std::uint32_t prev = 0;
  int lead = 0;
  int len = 0;  ///< 0 = no window established yet
};

void put_value(BitWriter& out, XorState& state, std::uint32_t bits) {
  const std::uint32_t x = bits ^ state.prev;
  state.prev = bits;
  if (x == 0) {
    out.put(0, 1);
    return;
  }
  const int lz = std::countl_zero(x);
  const int tz = std::countr_zero(x);
  const int prev_trail = 32 - state.lead - state.len;
  if (state.len != 0 && lz >= state.lead && tz >= prev_trail) {
    out.put(0b10, 2);
    out.put(x >> prev_trail, state.len);
    return;
  }
  const int len = 32 - lz - tz;
  out.put(0b11, 2);
  out.put(static_cast<std::uint32_t>(lz), 5);
  out.put(static_cast<std::uint32_t>(len - 1), 5);
  out.put(x >> tz, len);
  state.lead = lz;
  state.len = len;
}

std::uint32_t get_value(BitReader& in, XorState& state) {
  if (in.get(1) == 0) return state.prev;
  std::uint32_t x = 0;
  if (in.get(1) == 0) {
    // Reuse the previous window; a '10' before any '11' established one
    // cannot come from the encoder.
    if (state.len == 0) corrupt("xor window reuse before definition");
    x = in.get(state.len) << (32 - state.lead - state.len);
  } else {
    state.lead = static_cast<int>(in.get(5));
    state.len = static_cast<int>(in.get(5)) + 1;
    if (state.lead + state.len > 32) corrupt("xor window out of range");
    x = in.get(state.len) << (32 - state.lead - state.len);
  }
  state.prev ^= x;
  return state.prev;
}

void put_dod(BitWriter& out, std::int32_t dod) {
  const std::uint32_t z = zigzag(dod);
  if (z == 0) {
    out.put(0, 1);
  } else if (z < (1u << 7)) {
    out.put(0b10, 2);
    out.put(z, 7);
  } else if (z < (1u << 16)) {
    out.put(0b110, 3);
    out.put(z, 16);
  } else {
    out.put(0b111, 3);
    out.put(z, 32);
  }
}

std::int32_t get_dod(BitReader& in) {
  if (in.get(1) == 0) return 0;
  if (in.get(1) == 0) return unzigzag(in.get(7));
  if (in.get(1) == 0) return unzigzag(in.get(16));
  return unzigzag(in.get(32));
}

}  // namespace

std::size_t block_frame_bound(std::size_t rows, std::size_t feature_count) {
  // Header words, then per row the widest day delta ('111' + 32 bits) and
  // fate, per value the widest XOR cell ('11' + 5 + 5 + 32 bits); plus the
  // "blk <bytes> <crc>\n" line.
  const std::size_t bits = 128 + rows * (35 + 2) + rows * feature_count * 44;
  return bits / 8 + 1 + kMaxFrameHeader;
}

void append_block(std::string& out, data::DiskId disk,
                  std::size_t feature_count, std::span<const data::Day> days,
                  std::span<const std::uint8_t> fates,
                  std::span<const float> values) {
  const std::size_t rows = days.size();
  if (rows == 0 || rows > kMaxRowsPerBlock) {
    throw std::invalid_argument("tsdb encode_block: bad row count");
  }
  if (feature_count == 0 || fates.size() != rows ||
      values.size() != rows * feature_count) {
    throw std::invalid_argument("tsdb encode_block: shape mismatch");
  }

  // The payload is encoded behind room for the widest header line, then
  // slid down behind the real one once its length and CRC are known.
  const std::size_t start = out.size();
  out.append(kMaxFrameHeader, '\0');
  BitWriter bits(out);
  bits.put(disk, 32);
  bits.put(static_cast<std::uint32_t>(days.front()), 32);
  bits.put(static_cast<std::uint32_t>(rows), 32);
  bits.put(static_cast<std::uint32_t>(feature_count), 32);

  // Delta-of-delta days against the expected daily cadence (delta 1), so an
  // unbroken run of daily rows costs one bit per row.
  std::int32_t prev_delta = 1;
  for (std::size_t i = 1; i < rows; ++i) {
    const std::int32_t delta = days[i] - days[i - 1];
    put_dod(bits, delta - prev_delta);
    prev_delta = delta;
  }
  for (std::size_t i = 0; i < rows; ++i) {
    bits.put(fates[i], 2);
  }
  // Column-major XOR chains: each feature's series is its own chain, so a
  // flat-lining attribute costs one bit per row regardless of neighbours.
  for (std::size_t f = 0; f < feature_count; ++f) {
    XorState state;
    for (std::size_t i = 0; i < rows; ++i) {
      put_value(bits, state,
                std::bit_cast<std::uint32_t>(values[i * feature_count + f]));
    }
  }
  bits.finish();

  const std::size_t payload_at = start + kMaxFrameHeader;
  const std::size_t payload_bytes = out.size() - payload_at;
  char header[kMaxFrameHeader + 1];
  const auto n = static_cast<std::size_t>(std::snprintf(
      header, sizeof header, "blk %zu %08x\n", payload_bytes,
      robust::crc32(std::string_view(out).substr(payload_at))));
  std::memmove(out.data() + start + n, out.data() + payload_at, payload_bytes);
  std::memcpy(out.data() + start, header, n);
  out.resize(start + n + payload_bytes);
}

std::string encode_block(data::DiskId disk, std::size_t feature_count,
                         std::span<const data::Day> days,
                         std::span<const std::uint8_t> fates,
                         std::span<const float> values) {
  std::string frame;
  append_block(frame, disk, feature_count, days, fates, values);
  return frame;
}

Series decode_block(std::string_view frame, std::size_t feature_count) {
  if (frame.substr(0, kBlockMagic.size()) != kBlockMagic) {
    corrupt("bad magic");
  }
  const auto newline = frame.find('\n');
  if (newline == std::string_view::npos) corrupt("unterminated header");
  const std::string_view header =
      frame.substr(kBlockMagic.size(), newline - kBlockMagic.size());
  const auto space = header.find(' ');
  if (space == std::string_view::npos) corrupt("bad header");
  std::uint64_t length = 0;
  std::uint64_t expected_crc = 0;
  {
    const std::string_view len_text = header.substr(0, space);
    const std::string_view crc_text = header.substr(space + 1);
    auto [p1, e1] = std::from_chars(
        len_text.data(), len_text.data() + len_text.size(), length, 10);
    auto [p2, e2] = std::from_chars(
        crc_text.data(), crc_text.data() + crc_text.size(), expected_crc, 16);
    if (e1 != std::errc() || p1 != len_text.data() + len_text.size() ||
        e2 != std::errc() || p2 != crc_text.data() + crc_text.size()) {
      corrupt("bad header");
    }
  }
  const std::string_view payload = frame.substr(newline + 1);
  if (payload.size() != length) corrupt("frame length mismatch");
  if (robust::crc32(payload) != static_cast<std::uint32_t>(expected_crc)) {
    corrupt("crc mismatch");
  }

  BitReader in(payload);
  Series series;
  series.disk = static_cast<data::DiskId>(in.get(32));
  const auto first_day = static_cast<data::Day>(in.get(32));
  const std::uint32_t rows = in.get(32);
  const std::uint32_t features = in.get(32);
  if (rows == 0 || rows > kMaxRowsPerBlock) corrupt("bad row count");
  if (features != feature_count) corrupt("feature count mismatch");

  series.days.resize(rows);
  series.days[0] = first_day;
  std::int32_t prev_delta = 1;
  for (std::uint32_t i = 1; i < rows; ++i) {
    prev_delta += get_dod(in);
    series.days[i] = series.days[i - 1] + prev_delta;
  }
  series.fates.resize(rows);
  for (std::uint32_t i = 0; i < rows; ++i) {
    series.fates[i] = static_cast<std::uint8_t>(in.get(2));
  }
  series.values.resize(static_cast<std::size_t>(rows) * feature_count);
  for (std::size_t f = 0; f < feature_count; ++f) {
    XorState state;
    for (std::uint32_t i = 0; i < rows; ++i) {
      series.values[static_cast<std::size_t>(i) * feature_count + f] =
          std::bit_cast<float>(get_value(in, state));
    }
  }
  in.expect_end();
  return series;
}

}  // namespace tsdb
