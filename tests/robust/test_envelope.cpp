// Envelope framing: every way a checkpoint file can be damaged — truncation
// at any byte, a flipped payload byte, a foreign magic, an unsupported
// version — must surface as a typed CorruptCheckpoint, never as a
// half-parsed payload.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

#include "robust/checkpoint_io.hpp"
#include "robust/errors.hpp"

namespace {

namespace fs = std::filesystem;

std::string sample_payload() {
  std::string payload = "forest v3\ntrees 8\n";
  for (int i = 0; i < 64; ++i) {
    payload += "node " + std::to_string(i) + " 0x3f800000\n";
  }
  return payload;
}

class EnvelopeFile : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("orf_envelope_" +
            std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
            "_" + ::testing::UnitTest::GetInstance()
                      ->current_test_info()
                      ->name());
    fs::create_directories(dir_);
    path_ = (dir_ / "state.ckpt").string();
  }
  void TearDown() override { fs::remove_all(dir_); }

  void write_raw(const std::string& bytes) {
    std::ofstream os(path_, std::ios::binary | std::ios::trunc);
    os << bytes;
  }

  fs::path dir_;
  std::string path_;
};

TEST(Crc32, MatchesKnownVectors) {
  // Standard zlib/IEEE check values.
  EXPECT_EQ(robust::crc32(""), 0x00000000u);
  EXPECT_EQ(robust::crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(robust::crc32("The quick brown fox jumps over the lazy dog"),
            0x414FA339u);
}

TEST(Envelope, RoundTripsArbitraryPayload) {
  const std::string payload = sample_payload();
  EXPECT_EQ(robust::parse_envelope(robust::make_envelope(payload)), payload);
  EXPECT_EQ(robust::parse_envelope(robust::make_envelope("")), "");
  // Binary-ish payloads (embedded newlines, NULs) frame fine too.
  const std::string binary("a\0b\nc\r\n", 7);
  EXPECT_EQ(robust::parse_envelope(robust::make_envelope(binary)), binary);
}

TEST(Envelope, DetectsItsOwnMagic) {
  EXPECT_TRUE(robust::looks_like_envelope(robust::make_envelope("x")));
  EXPECT_FALSE(robust::looks_like_envelope("forest v3\n"));
  EXPECT_FALSE(robust::looks_like_envelope(""));
}

TEST(Envelope, TruncationAtEveryEighthIsCorrupt) {
  const std::string framed = robust::make_envelope(sample_payload());
  for (int eighth = 0; eighth < 8; ++eighth) {
    const auto cut = framed.size() * static_cast<std::size_t>(eighth) / 8;
    EXPECT_THROW(robust::parse_envelope(framed.substr(0, cut)),
                 robust::CorruptCheckpoint)
        << "truncated to " << cut << " of " << framed.size() << " bytes";
  }
}

TEST(Envelope, EveryFlippedPayloadByteIsCorrupt) {
  const std::string payload = "abcdefgh";
  const std::string framed = robust::make_envelope(payload);
  const auto payload_at = framed.size() - payload.size();
  for (std::size_t i = payload_at; i < framed.size(); ++i) {
    std::string damaged = framed;
    damaged[i] = static_cast<char>(damaged[i] ^ 0x20);
    EXPECT_THROW(robust::parse_envelope(damaged), robust::CorruptCheckpoint)
        << "flipped byte " << i;
  }
}

TEST(Envelope, WrongMagicAndVersionAreCorrupt) {
  EXPECT_THROW(robust::parse_envelope("xyz-ckpt v1 1 00000000\nA"),
               robust::CorruptCheckpoint);
  std::string v2 = robust::make_envelope("A");
  const auto at = v2.find("v1");
  ASSERT_NE(at, std::string::npos);
  v2[at + 1] = '2';
  EXPECT_THROW(robust::parse_envelope(v2), robust::CorruptCheckpoint);
}

TEST(Envelope, TrailingGarbageIsCorrupt) {
  EXPECT_THROW(robust::parse_envelope(robust::make_envelope("abc") + "junk"),
               robust::CorruptCheckpoint);
}

TEST_F(EnvelopeFile, AtomicWriteThenLoadRoundTrips) {
  const std::string payload = sample_payload();
  robust::write_envelope_file(path_, payload);
  EXPECT_EQ(robust::read_envelope_file(path_), payload);
  // The temp file must not survive a successful save.
  EXPECT_FALSE(fs::exists(path_ + ".tmp"));
}

TEST_F(EnvelopeFile, RewriteReplacesAtomically) {
  robust::write_envelope_file(path_, "old");
  robust::write_envelope_file(path_, "new");
  EXPECT_EQ(robust::read_envelope_file(path_), "new");
}

TEST_F(EnvelopeFile, LegacyUnframedFileIsCorrupt) {
  // Pre-envelope checkpoints are bare text with no CRC to check; the
  // reader refuses them rather than load unverified bytes.
  write_raw("forest v3\ntrees 8\n");
  EXPECT_THROW(robust::read_envelope_file(path_), robust::CorruptCheckpoint);
}

TEST_F(EnvelopeFile, HeaderDestroyingTruncationIsCorruptNotLegacy) {
  // Chop the file so short the magic itself is gone: the loader must still
  // report corruption.
  const std::string framed = robust::make_envelope(sample_payload());
  write_raw(framed.substr(0, 4));
  EXPECT_THROW(robust::read_envelope_file(path_), robust::CorruptCheckpoint);
}

TEST_F(EnvelopeFile, MissingFileThrowsRuntimeError) {
  EXPECT_THROW(robust::read_envelope_file((dir_ / "nope").string()),
               std::runtime_error);
}

TEST(Envelope, FailpointCatalogIsOrderedAndNamed) {
  const auto sites = robust::checkpoint_failpoint_sites();
  ASSERT_GE(sites.size(), 5u);
  for (const char* site : sites) {
    EXPECT_EQ(std::string(site).rfind("checkpoint.", 0), 0u) << site;
  }
}

}  // namespace
