// robust::crc32 (slicing-by-8) against a bytewise oracle kept here: the
// same IEEE polynomial walked one byte at a time, exactly as the checksum
// was computed before. Every length 0–4096 at every start alignment 0–7
// over seeded bytes, plus the standard check value — so every envelope,
// WAL record and tsdb frame written by either version validates under the
// other.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <string>
#include <string_view>

#include "robust/checkpoint_io.hpp"
#include "util/rng.hpp"

namespace {

std::uint32_t bytewise_crc32(std::string_view bytes) {
  static const auto table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  std::uint32_t c = 0xffffffffu;
  for (const char byte : bytes) {
    c = table[(c ^ static_cast<unsigned char>(byte)) & 0xffu] ^ (c >> 8);
  }
  return c ^ 0xffffffffu;
}

TEST(Crc32, StandardCheckValue) {
  EXPECT_EQ(robust::crc32("123456789"), 0xcbf43926u);
  EXPECT_EQ(robust::crc32(""), 0u);
}

TEST(Crc32, MatchesBytewiseOracleAtEveryLengthAndAlignment) {
  constexpr std::size_t kMaxLength = 4096;
  constexpr std::size_t kAlignments = 8;
  util::Rng rng(0xc3c32u);
  std::string buffer(kMaxLength + kAlignments, '\0');
  for (auto& c : buffer) c = static_cast<char>(rng.below(256));
  for (std::size_t offset = 0; offset < kAlignments; ++offset) {
    for (std::size_t length = 0; length <= kMaxLength; ++length) {
      const std::string_view bytes(buffer.data() + offset, length);
      ASSERT_EQ(robust::crc32(bytes), bytewise_crc32(bytes))
          << "offset " << offset << " length " << length;
    }
  }
}

TEST(Crc32, HighBitBytesAndLongRuns) {
  // All-0xff and all-0x00 runs exercise the table corners the random
  // bytes may miss.
  for (const char fill : {'\0', '\xff', '\x80'}) {
    const std::string run(100003, fill);
    EXPECT_EQ(robust::crc32(run), bytewise_crc32(run));
  }
}

}  // namespace
