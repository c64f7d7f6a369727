// Gorilla-style block codec for one disk's run of daily SMART rows.
//
// A block frame is "blk <payload_bytes> <crc32_hex>\n" + payload. The
// payload is one bit stream: four 32-bit header words (disk, first_day,
// rows, feature_count — inside the CRC, so no header byte can flip
// silently), then
//
//   days   delta-of-delta: '0' dod == 0 (the daily cadence), '10' + 7-bit
//          zigzag, '110' + 16-bit zigzag, '111' + 32-bit zigzag;
//   fates  2 bits per row (engine::DiskFate's values);
//   values column-major per feature, Facebook-Gorilla XOR chains on the
//          raw float32 bits: '0' same bits as the previous row, '10'
//          meaningful bits inside the previous leading/length window,
//          '11' + 5-bit leading-zero count + 5-bit (length-1) + the bits.
//
// Operating on std::bit_cast'd bits is what makes round-trips bit-exact for
// every float — NaN payloads, denormals, ±inf, -0.0 — which the fuzz suite
// (tests/tsdb/test_codec_fuzz.cpp) holds over generated and adversarial
// streams. decode_block either returns the exact encoded rows or throws
// CorruptSegment; it never yields a partially decoded block.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "tsdb/format.hpp"

namespace tsdb {

/// One decoded block: `values` is row-major rows x feature_count.
struct Series {
  data::DiskId disk = 0;
  std::vector<data::Day> days;  ///< non-decreasing
  std::vector<std::uint8_t> fates;
  std::vector<float> values;
};

/// Frame one disk's rows (non-decreasing days; values row-major with
/// `feature_count` columns). Throws std::invalid_argument on shape errors
/// (empty rows, size mismatches) — caller bugs, not corruption.
std::string encode_block(data::DiskId disk, std::size_t feature_count,
                         std::span<const data::Day> days,
                         std::span<const std::uint8_t> fates,
                         std::span<const float> values);

/// Append the same frame to `out`. A caller that reserved
/// block_frame_bound(rows, feature_count) spare bytes makes no allocation
/// here.
void append_block(std::string& out, data::DiskId disk,
                  std::size_t feature_count, std::span<const data::Day> days,
                  std::span<const std::uint8_t> fates,
                  std::span<const float> values);

/// Upper bound on the bytes append_block adds to `out` for `rows` rows.
std::size_t block_frame_bound(std::size_t rows, std::size_t feature_count);

/// Decode a whole frame (as sliced by a catalog BlockRef). Validates magic,
/// length, CRC, the embedded feature count against `feature_count`, and
/// that the bit stream ends exactly where the payload does; any mismatch is
/// CorruptSegment.
Series decode_block(std::string_view frame, std::size_t feature_count);

}  // namespace tsdb
