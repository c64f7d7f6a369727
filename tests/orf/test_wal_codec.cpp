// The WAL batch codec (orf/wal_codec.hpp) on its own, fuzz-style: exact
// round trips, the same bytes at every pool size as the original
// single-threaded encoder, and the decoder's contract under damage — for
// any bytes it returns exactly the batch those bytes encode, or throws the
// typed "malformed record" error; never a crash, never an allocation sized
// from an unchecked count. A record's CRC proves only that its bytes are
// intact, so the decoder is the last line against a hostile or buggy
// writer. Runs under ASan+UBSan in scripts/check.sh.
#include <gtest/gtest.h>

#include <bit>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "orf/service.hpp"
#include "orf/wal_codec.hpp"
#include "robust/wal.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace {

namespace fs = std::filesystem;

constexpr std::size_t kFeatures = 5;

/// A seeded batch whose cells cover every spelling the encoder has:
/// ordinary and tiny/huge magnitudes, subnormals, ±0, ±inf.
struct Batch {
  std::vector<std::vector<float>> rows;
  std::vector<engine::DiskReport> reports;
};

Batch make_batch(std::uint64_t seed, std::size_t reports,
                 std::size_t features = kFeatures) {
  util::Rng rng(seed);
  Batch batch;
  batch.rows.resize(reports);
  for (std::size_t r = 0; r < reports; ++r) {
    for (std::size_t f = 0; f < features; ++f) {
      float value = 0.0f;
      switch (rng.below(8)) {
        case 0:
          value = static_cast<float>(rng.below(1000));
          break;
        case 1:
          value = std::bit_cast<float>(static_cast<std::uint32_t>(rng.below(
              0x00800000u)));  // subnormal (or +0)
          break;
        case 2:
          value = -0.0f;
          break;
        case 3:
          value = rng.bernoulli(0.5) ? std::numeric_limits<float>::infinity()
                                     : -std::numeric_limits<float>::infinity();
          break;
        default: {
          // Any finite bit pattern.
          std::uint32_t bits = 0;
          do {
            bits = static_cast<std::uint32_t>(rng());
          } while (!std::isfinite(std::bit_cast<float>(bits)));
          value = std::bit_cast<float>(bits);
        }
      }
      batch.rows[r].push_back(value);
    }
  }
  for (std::size_t r = 0; r < reports; ++r) {
    batch.reports.push_back(engine::DiskReport{
        .disk = static_cast<data::DiskId>(rng.below(1u << 20)),
        .features = batch.rows[r],
        .fate = static_cast<engine::DiskFate>(rng.below(3))});
  }
  return batch;
}

/// The encoder as it stood before it moved to orf/wal_codec.cpp and onto
/// the pool — the byte oracle.
std::string reference_encode(data::Day day,
                             std::span<const engine::DiskReport> batch) {
  std::string out = "day " + std::to_string(day) + ' ' +
                    std::to_string(batch.size()) + '\n';
  for (const engine::DiskReport& report : batch) {
    out += std::to_string(report.disk);
    out += ' ';
    out += std::to_string(static_cast<int>(report.fate));
    for (const float value : report.features) {
      const double v = value;
      char cell[48];
      if (!std::isfinite(v)) {
        out.append(cell, static_cast<std::size_t>(
                             std::snprintf(cell, sizeof cell, " %a", v)));
        continue;
      }
      out += std::signbit(v) ? " -0x" : " 0x";
      const char* const end =
          std::to_chars(cell, cell + sizeof cell, std::fabs(v),
                        std::chars_format::hex)
              .ptr;
      out.append(cell, static_cast<std::size_t>(end - cell));
    }
    out += '\n';
  }
  return out;
}

void expect_same_batch(const orf::DecodedBatch& decoded, data::Day day,
                       std::span<const engine::DiskReport> batch) {
  EXPECT_EQ(decoded.day, day);
  ASSERT_EQ(decoded.reports.size(), batch.size());
  for (std::size_t r = 0; r < batch.size(); ++r) {
    EXPECT_EQ(decoded.reports[r].disk, batch[r].disk);
    EXPECT_EQ(decoded.reports[r].fate, batch[r].fate);
    ASSERT_EQ(decoded.reports[r].features.size(), batch[r].features.size());
    for (std::size_t f = 0; f < batch[r].features.size(); ++f) {
      EXPECT_EQ(std::bit_cast<std::uint32_t>(decoded.reports[r].features[f]),
                std::bit_cast<std::uint32_t>(batch[r].features[f]));
    }
  }
}

/// The decoder's contract for arbitrary bytes: the typed error, or a batch
/// that encodes back to exactly those bytes.
void check_bytes(const std::string& bytes) {
  orf::DecodedBatch decoded;
  try {
    decoded = orf::decode_wal_batch(bytes, kFeatures);
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("malformed record"),
              std::string::npos)
        << e.what();
    return;
  }
  EXPECT_EQ(orf::encode_wal_batch(decoded.day, decoded.reports), bytes);
}

TEST(WalCodec, RoundTripIsExact) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const Batch batch = make_batch(seed, seed * 3);
    const auto day = static_cast<data::Day>(seed * 17);
    const std::string bytes = orf::encode_wal_batch(day, batch.reports);
    expect_same_batch(orf::decode_wal_batch(bytes, kFeatures), day,
                      batch.reports);
  }
  // An empty day is a header alone.
  const std::string empty = orf::encode_wal_batch(4, {});
  EXPECT_EQ(empty, "day 4 0\n");
  EXPECT_TRUE(orf::decode_wal_batch(empty, kFeatures).reports.empty());
}

TEST(WalCodec, EncodingIsTheReferenceBytesAtEveryPool) {
  const Batch batch = make_batch(99, 1500);
  const std::string reference = reference_encode(123, batch.reports);
  EXPECT_EQ(orf::encode_wal_batch(123, batch.reports), reference);
  for (const std::size_t threads : {1, 2, 3, 4}) {
    SCOPED_TRACE("pool of " + std::to_string(threads));
    util::ThreadPool pool(threads);
    EXPECT_EQ(orf::encode_wal_batch(123, batch.reports, &pool), reference);
  }
  // Fewer reports than threads, and none at all.
  util::ThreadPool pool(4);
  const Batch small = make_batch(7, 2);
  EXPECT_EQ(orf::encode_wal_batch(-3, small.reports, &pool),
            reference_encode(-3, small.reports));
  EXPECT_EQ(orf::encode_wal_batch(0, {}, &pool), reference_encode(0, {}));
}

TEST(WalCodec, TruncationAtEveryOffsetIsTyped) {
  const Batch batch = make_batch(5, 8);
  const std::string bytes = orf::encode_wal_batch(42, batch.reports);
  for (std::size_t keep = 0; keep < bytes.size(); ++keep) {
    SCOPED_TRACE("keep " + std::to_string(keep));
    EXPECT_THROW(orf::decode_wal_batch(bytes.substr(0, keep), kFeatures),
                 std::runtime_error);
  }
}

TEST(WalCodec, HostileReportCountIsRejectedBeforeAnyReserve) {
  // Counts no payload of this size could hold: a typed error, never
  // std::bad_alloc or a multi-GB allocation.
  for (const char* header :
       {"day 1 10000000000\n", "day 1 18446744073709551615\n",
        "day 1 3\n0 0 0x1p+0 0x1p+0 0x1p+0 0x1p+0 0x1p+0\n"}) {
    SCOPED_TRACE(header);
    EXPECT_THROW(orf::decode_wal_batch(header, kFeatures), std::runtime_error);
  }
}

TEST(WalCodec, SeededCompoundMutations) {
  const Batch batch = make_batch(11, 12);
  const std::string original = orf::encode_wal_batch(77, batch.reports);
  util::Rng rng(0x3a11c0deULL);
  const std::string alphabet = "0123456789abcdefpx+-. \nnaifday";
  for (int trial = 0; trial < 3000; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    std::string bytes = original;
    const int mutations = static_cast<int>(rng.range(1, 6));
    for (int m = 0; m < mutations && !bytes.empty(); ++m) {
      const auto pos = static_cast<std::size_t>(rng.below(bytes.size()));
      // Mostly format-alphabet bytes, which reach deeper than random ones.
      const char c = rng.bernoulli(0.8)
                         ? alphabet[rng.below(alphabet.size())]
                         : static_cast<char>(rng.below(256));
      switch (rng.below(6)) {
        case 0:
          bytes[pos] = c;
          break;
        case 1:
          bytes.erase(pos, 1);
          break;
        case 2:
          bytes.insert(pos, 1, c);
          break;
        case 3: {
          // Duplicate or drop a whole line.
          const auto begin = bytes.rfind('\n', pos);
          const auto from = begin == std::string::npos ? 0 : begin + 1;
          const auto end = bytes.find('\n', from);
          if (end == std::string::npos) break;
          const std::string line = bytes.substr(from, end - from + 1);
          if (rng.bernoulli(0.5)) {
            bytes.insert(from, line);
          } else {
            bytes.erase(from, line.size());
          }
          break;
        }
        case 4: {
          // Rewrite the header's report count.
          const auto newline = bytes.find('\n');
          if (newline == std::string::npos) break;
          bytes = "day 77 " + std::to_string(rng.below(40)) +
                  bytes.substr(newline);
          break;
        }
        default:
          bytes.resize(pos);
          break;
      }
    }
    check_bytes(bytes);
    if (testing::Test::HasFailure()) return;
  }
}

TEST(WalCodec, RandomGarbageNeverDecodes) {
  util::Rng rng(4242);
  for (int trial = 0; trial < 500; ++trial) {
    std::string bytes(rng.below(256), '\0');
    for (auto& c : bytes) c = static_cast<char>(rng.below(256));
    if (rng.bernoulli(0.5)) bytes = "day 1 2\n" + bytes;
    check_bytes(bytes);
  }
}

TEST(WalCodec, ServiceResumeRejectsAHostileCountWithTheTypedError) {
  // A CRC-valid record whose header claims 10^10 reports, appended where a
  // resuming service replays it: the constructor must surface the typed
  // error, not std::bad_alloc.
  const fs::path dir = fs::temp_directory_path() / "orf_wal_codec_hostile";
  fs::remove_all(dir);
  {
    robust::IngestWal wal({.directory = (dir / "wal").string()});
    wal.append("day 0 10000000000\n0 0 0x1p+0 0x1p+0 0x1p+0 0x1p+0 0x1p+0\n");
  }
  orf::Config config;
  config.forest.n_trees = 3;
  config.robust.checkpoint_dir = dir.string();
  config.robust.resume = true;
  try {
    orf::Service service(kFeatures, config);
    ADD_FAILURE() << "replay accepted a hostile record";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("malformed record"),
              std::string::npos)
        << e.what();
  }
  fs::remove_all(dir);
}

}  // namespace
