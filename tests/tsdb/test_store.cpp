// Writer/Reader integration for the history store: round-trips through real
// segment + catalog files, the day-keyed idempotence mark, segment rotation,
// crash-debris invisibility (torn tails past the committed catalog), typed
// rejection of damaged blocks/catalogs, and failpoint-driven flush failures
// that must leave the committed extent intact and the buffer replayable.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <string>
#include <vector>

#include "robust/errors.hpp"
#include "robust/failpoint.hpp"
#include "tsdb/format.hpp"
#include "tsdb/reader.hpp"
#include "tsdb/writer.hpp"
#include "util/thread_pool.hpp"

namespace {

namespace fs = std::filesystem;

constexpr std::size_t kFeatures = 3;

class TsdbStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("orf_tsdb_store_" +
            std::string(
                ::testing::UnitTest::GetInstance()
                    ->current_test_info()
                    ->name()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }

  void TearDown() override {
    robust::failpoints::disarm_all();
    fs::remove_all(dir_);
  }

  tsdb::Writer::Options options(std::size_t segment_max = 4u << 20) const {
    return tsdb::Writer::Options{.directory = dir_.string(),
                                 .feature_count = kFeatures,
                                 .segment_max_bytes = segment_max};
  }

  /// Deterministic value for (disk, day, feature) — lets every assertion
  /// recompute the expected bits without bookkeeping.
  static float value_of(data::DiskId disk, data::Day day, std::size_t f) {
    return static_cast<float>(disk) * 1000.0f + static_cast<float>(day) +
           static_cast<float>(f) * 0.25f;
  }

  /// One day's rows for disks [0, disks): storage + views.
  struct DayRows {
    std::vector<float> storage;
    std::vector<tsdb::RowView> rows;
  };

  static DayRows make_day(data::Day day, std::size_t disks) {
    DayRows out;
    out.storage.reserve(disks * kFeatures);
    for (data::DiskId disk = 0; disk < disks; ++disk) {
      for (std::size_t f = 0; f < kFeatures; ++f) {
        out.storage.push_back(value_of(disk, day, f));
      }
    }
    for (data::DiskId disk = 0; disk < disks; ++disk) {
      out.rows.push_back(tsdb::RowView{
          .disk = disk,
          .fate = static_cast<std::uint8_t>((disk + day) % 3),
          .features = std::span<const float>(
              out.storage.data() + disk * kFeatures, kFeatures)});
    }
    return out;
  }

  void append_days(tsdb::Writer& writer, data::Day from, data::Day to,
                   std::size_t disks) {
    for (data::Day day = from; day < to; ++day) {
      const DayRows batch = make_day(day, disks);
      ASSERT_EQ(writer.append_day(day, batch.rows), disks);
    }
  }

  /// Every row of `day` must be present, ascending by disk, bit-exact.
  void expect_day(tsdb::Reader& reader, data::Day day, std::size_t disks) {
    tsdb::Reader::DayBatch batch;
    reader.read_day(day, batch);
    ASSERT_EQ(batch.rows.size(), disks) << "day " << day;
    for (std::size_t i = 0; i < disks; ++i) {
      const tsdb::RowView& row = batch.rows[i];
      EXPECT_EQ(row.disk, static_cast<data::DiskId>(i));
      EXPECT_EQ(row.fate, static_cast<std::uint8_t>((row.disk + day) % 3));
      ASSERT_EQ(row.features.size(), kFeatures);
      for (std::size_t f = 0; f < kFeatures; ++f) {
        EXPECT_EQ(std::bit_cast<std::uint32_t>(row.features[f]),
                  std::bit_cast<std::uint32_t>(value_of(row.disk, day, f)))
            << "disk " << row.disk << " day " << day << " feature " << f;
      }
    }
  }

  std::size_t segment_count() const {
    std::size_t n = 0;
    for (const auto& entry : fs::directory_iterator(dir_)) {
      if (entry.path().extension() == ".seg") ++n;
    }
    return n;
  }

  fs::path dir_;
};

TEST_F(TsdbStoreTest, WriteFlushReadBackAcrossMultipleFlushes) {
  tsdb::Writer writer(options());
  append_days(writer, 0, 5, 4);
  writer.flush();
  append_days(writer, 5, 10, 4);
  writer.flush();

  tsdb::Reader reader(dir_.string());
  EXPECT_EQ(reader.feature_count(), kFeatures);
  EXPECT_EQ(reader.first_day(), 0);
  EXPECT_EQ(reader.end_day(), 10);
  EXPECT_EQ(reader.total_rows(), 40u);
  for (data::Day day = 0; day < 10; ++day) expect_day(reader, day, 4);

  tsdb::Reader::DayBatch batch;
  reader.read_day(10, batch);  // past the end: empty, not an error
  EXPECT_TRUE(batch.rows.empty());
}

TEST_F(TsdbStoreTest, EmptyDaysAdvanceTheHighWaterMark) {
  tsdb::Writer writer(options());
  append_days(writer, 0, 2, 2);
  EXPECT_EQ(writer.append_day(2, {}), 0u);  // quiet fleet day
  append_days(writer, 3, 4, 2);
  EXPECT_EQ(writer.append_day(4, {}), 0u);  // trailing empty day
  writer.flush();
  EXPECT_EQ(writer.next_day(), 5);

  tsdb::Reader reader(dir_.string());
  // end_day covers the trailing empty day: a replay over [first, end) walks
  // the same day count as the live run did.
  EXPECT_EQ(reader.end_day(), 5);
  tsdb::Reader::DayBatch batch;
  reader.read_day(2, batch);
  EXPECT_TRUE(batch.rows.empty());
  expect_day(reader, 3, 2);
}

TEST_F(TsdbStoreTest, DayKeyedSkipSurvivesReopen) {
  {
    tsdb::Writer writer(options());
    append_days(writer, 0, 5, 3);
    writer.flush();
  }
  tsdb::Writer writer(options());
  EXPECT_EQ(writer.next_day(), 5);
  // A WAL replay re-tees the whole history; committed days must bounce.
  const DayRows day3 = make_day(3, 3);
  EXPECT_EQ(writer.append_day(3, day3.rows), 0u);
  EXPECT_EQ(writer.buffered_rows(), 0u);
  append_days(writer, 5, 7, 3);
  writer.flush();

  tsdb::Reader reader(dir_.string());
  EXPECT_EQ(reader.total_rows(), 21u);  // exactly one copy of each row
  for (data::Day day = 0; day < 7; ++day) expect_day(reader, day, 3);
}

TEST_F(TsdbStoreTest, RotationSpreadsBlocksOverSegments) {
  // A few hundred bytes per flush against a 512-byte cap forces rotation.
  tsdb::Writer writer(options(/*segment_max=*/512));
  for (data::Day day = 0; day < 24; ++day) {
    const DayRows batch = make_day(day, 3);
    ASSERT_EQ(writer.append_day(day, batch.rows), 3u);
    if (day % 3 == 2) writer.flush();
  }
  EXPECT_GE(segment_count(), 2u);

  tsdb::Reader reader(dir_.string());
  EXPECT_EQ(reader.total_rows(), 72u);
  for (data::Day day = 0; day < 24; ++day) expect_day(reader, day, 3);
}

TEST_F(TsdbStoreTest, TornTailPastTheCatalogIsInvisible) {
  {
    tsdb::Writer writer(options());
    append_days(writer, 0, 4, 3);
    writer.flush();
  }
  // Crash debris: bytes appended to the newest segment that no catalog
  // commit ever referenced. The reader must not even look at them.
  for (const auto& entry : fs::directory_iterator(dir_)) {
    if (entry.path().extension() != ".seg") continue;
    std::ofstream out(entry.path(), std::ios::app | std::ios::binary);
    out << "blk 9999 deadbeef\n\x01\x02torn";
  }
  tsdb::Reader reader(dir_.string());
  EXPECT_EQ(reader.total_rows(), 12u);
  for (data::Day day = 0; day < 4; ++day) expect_day(reader, day, 3);
}

TEST_F(TsdbStoreTest, CrashBeforeFlushLosesOnlyBufferedDays) {
  {
    tsdb::Writer writer(options());
    append_days(writer, 0, 3, 2);
    writer.flush();
    append_days(writer, 3, 6, 2);
    // Writer destroyed with a dirty buffer — the crash convention: no
    // destructor flush, those rows live in the ingest WAL instead.
  }
  tsdb::Reader reader(dir_.string());
  EXPECT_EQ(reader.end_day(), 3);
  EXPECT_EQ(reader.total_rows(), 6u);

  tsdb::Writer writer(options());
  EXPECT_EQ(writer.next_day(), 3);  // replay resumes exactly at the loss
}

TEST_F(TsdbStoreTest, CorruptedCatalogedBlockIsTypedOnRead) {
  {
    tsdb::Writer writer(options());
    append_days(writer, 0, 4, 2);
    writer.flush();
  }
  // Flip one byte inside the first block's payload (past the segment header
  // line and the frame header) — read must throw, never hand back rows.
  for (const auto& entry : fs::directory_iterator(dir_)) {
    if (entry.path().extension() != ".seg") continue;
    std::fstream file(entry.path(),
                      std::ios::in | std::ios::out | std::ios::binary);
    file.seekg(0, std::ios::end);
    const auto size = static_cast<std::size_t>(file.tellg());
    ASSERT_GT(size, 48u);
    file.seekp(static_cast<std::streamoff>(size - 4));
    char byte = 0;
    file.seekg(static_cast<std::streamoff>(size - 4));
    file.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x40);
    file.seekp(static_cast<std::streamoff>(size - 4));
    file.write(&byte, 1);
  }
  tsdb::Reader reader(dir_.string());
  tsdb::Reader::DayBatch batch;
  EXPECT_THROW(reader.read_day(0, batch), tsdb::CorruptSegment);
}

TEST_F(TsdbStoreTest, MissingSegmentIsTypedOnRead) {
  {
    tsdb::Writer writer(options());
    append_days(writer, 0, 2, 2);
    writer.flush();
  }
  for (const auto& entry : fs::directory_iterator(dir_)) {
    if (entry.path().extension() == ".seg") fs::remove(entry.path());
  }
  tsdb::Reader reader(dir_.string());
  tsdb::Reader::DayBatch batch;
  EXPECT_THROW(reader.read_day(0, batch), tsdb::CorruptSegment);
}

TEST_F(TsdbStoreTest, DamagedCatalogIsTypedAtOpen) {
  {
    tsdb::Writer writer(options());
    append_days(writer, 0, 2, 2);
    writer.flush();
  }
  const fs::path catalog = dir_ / std::string(tsdb::kCatalogFile);
  fs::resize_file(catalog, fs::file_size(catalog) / 2);
  EXPECT_THROW(tsdb::Reader reader(dir_.string()), tsdb::CorruptSegment);
  EXPECT_THROW(tsdb::Writer writer(options()), tsdb::CorruptSegment);
}

TEST_F(TsdbStoreTest, MissingStoreIsNotCorruption) {
  fs::remove_all(dir_);
  EXPECT_THROW(tsdb::Reader reader(dir_.string()), std::runtime_error);
}

TEST_F(TsdbStoreTest, FeatureCountMismatchRejectsTheWriter) {
  {
    tsdb::Writer writer(options());
    append_days(writer, 0, 1, 2);
    writer.flush();
  }
  auto wrong = options();
  wrong.feature_count = kFeatures + 1;
  EXPECT_THROW(tsdb::Writer writer(wrong), std::invalid_argument);
}

TEST_F(TsdbStoreTest, RowShapeIsValidatedAtAppend) {
  tsdb::Writer writer(options());
  const std::vector<float> narrow(kFeatures - 1, 1.0f);
  const tsdb::RowView row{.disk = 0, .fate = 0, .features = narrow};
  EXPECT_THROW(writer.append_day(0, std::span<const tsdb::RowView>(&row, 1)),
               std::invalid_argument);
}

TEST_F(TsdbStoreTest, FailedFlushKeepsBufferAndCommittedExtent) {
  tsdb::Writer writer(options());
  append_days(writer, 0, 3, 2);
  writer.flush();

  append_days(writer, 3, 5, 2);
  for (const char* site : {"tsdb.append_block", "tsdb.fsync", "tsdb.catalog"}) {
    SCOPED_TRACE(site);
    robust::failpoints::arm(site, {.kind = robust::FaultKind::kIoError,
                                   .count = 1});
    EXPECT_THROW(writer.flush(), robust::InjectedIoError);
    robust::failpoints::disarm_all();
    EXPECT_EQ(writer.buffered_rows(), 4u);  // retryable, nothing dropped
    tsdb::Reader reader(dir_.string());    // committed extent untouched
    EXPECT_EQ(reader.end_day(), 3);
    EXPECT_EQ(reader.total_rows(), 6u);
  }

  writer.flush();  // clean retry commits everything buffered
  tsdb::Reader reader(dir_.string());
  EXPECT_EQ(reader.end_day(), 5);
  EXPECT_EQ(reader.total_rows(), 10u);
  for (data::Day day = 0; day < 5; ++day) expect_day(reader, day, 2);
}

TEST_F(TsdbStoreTest, ShortWriteDebrisIsSkippedByTheRetry) {
  tsdb::Writer writer(options());
  append_days(writer, 0, 3, 2);
  robust::failpoints::arm("tsdb.append_block",
                          {.kind = robust::FaultKind::kShortWrite,
                           .count = 1,
                           .keep_fraction = 0.5});
  EXPECT_THROW(writer.flush(), robust::InjectedFault);
  robust::failpoints::disarm_all();

  writer.flush();  // appends past the torn frame; offsets stay authoritative
  tsdb::Reader reader(dir_.string());
  EXPECT_EQ(reader.total_rows(), 6u);  // exactly one copy of each row
  for (data::Day day = 0; day < 3; ++day) expect_day(reader, day, 2);
}

TEST_F(TsdbStoreTest, FlushWithoutNewDataIsANoOp) {
  tsdb::Writer writer(options());
  append_days(writer, 0, 2, 2);
  writer.flush();
  const auto catalog_time =
      fs::last_write_time(dir_ / std::string(tsdb::kCatalogFile));
  writer.flush();  // nothing buffered, nothing advanced
  EXPECT_EQ(fs::last_write_time(dir_ / std::string(tsdb::kCatalogFile)),
            catalog_time);
}

TEST_F(TsdbStoreTest, EmptyTrailingDaysCommitWithoutNewBlocks) {
  tsdb::Writer writer(options());
  append_days(writer, 0, 2, 2);
  writer.flush();
  EXPECT_EQ(writer.append_day(2, {}), 0u);
  writer.flush();  // only the high-water mark moved; still a real commit
  tsdb::Reader reader(dir_.string());
  EXPECT_EQ(reader.end_day(), 3);
  EXPECT_EQ(reader.total_rows(), 4u);
}

TEST_F(TsdbStoreTest, PooledFlushIsByteIdenticalToSequential) {
  // Same days into two stores, one flushed on a pool: every segment and
  // the catalog must match byte for byte — across segment rotations
  // inside a flush, appends to an existing segment, and retention.
  const auto files_of = [](const fs::path& root) {
    std::map<std::string, std::string> files;
    for (const auto& entry : fs::directory_iterator(root)) {
      std::ifstream is(entry.path(), std::ios::binary);
      files[entry.path().filename().string()] =
          std::string(std::istreambuf_iterator<char>(is), {});
    }
    return files;
  };
  util::ThreadPool pool(4);
  std::map<std::string, std::string> reference;
  for (const bool pooled : {false, true}) {
    SCOPED_TRACE(pooled ? "pooled" : "sequential");
    const fs::path root = dir_ / (pooled ? "pooled" : "sequential");
    auto opts = options(/*segment_max=*/700);
    opts.directory = root.string();
    opts.retain_days = 9;
    tsdb::Writer writer(opts);
    for (data::Day from = 0; from < 24; from += 6) {
      append_days(writer, from, from + 6, 37);
      writer.flush(pooled ? &pool : nullptr);
    }
    const auto files = files_of(root);
    EXPECT_GT(files.size(), 3u);
    if (!pooled) {
      reference = files;
      continue;
    }
    EXPECT_EQ(files.size(), reference.size());
    for (const auto& [name, bytes] : reference) {
      SCOPED_TRACE(name);
      ASSERT_EQ(files.count(name), 1u);
      EXPECT_TRUE(files.at(name) == bytes);
    }
  }
}

TEST_F(TsdbStoreTest, CatalogSerializationMatchesTheReferenceText) {
  // The to_chars serializer against the original std::to_string one.
  tsdb::Catalog catalog;
  catalog.feature_count = 19;
  catalog.first_day = -2;
  catalog.floor_day = 5;
  catalog.next_day = 480;
  for (std::uint32_t i = 0; i < 50; ++i) {
    catalog.blocks.push_back(tsdb::BlockRef{
        .disk = i * 4093u + (i == 49 ? 4000000000u : 0u),
        .segment_id = i / 7,
        .offset = (std::uint64_t{1} << (i % 63)) + i,
        .bytes = 100 + i,
        .first_day = static_cast<data::Day>(i) - 3,
        .last_day = static_cast<data::Day>(i) + 30,
        .rows = 30 + i});
  }
  for (const bool with_floor : {true, false}) {
    if (!with_floor) catalog.floor_day = catalog.first_day;
    std::string reference(tsdb::kCatalogMagic);
    reference += "\nfeatures " + std::to_string(catalog.feature_count);
    reference += "\nfirst_day " + std::to_string(catalog.first_day);
    if (catalog.floor_day > catalog.first_day) {
      reference += "\nfloor " + std::to_string(catalog.floor_day);
    }
    reference += "\nnext_day " + std::to_string(catalog.next_day);
    reference += "\nblocks " + std::to_string(catalog.blocks.size());
    for (const tsdb::BlockRef& block : catalog.blocks) {
      reference += "\nblock " + std::to_string(block.disk) + ' ' +
                   std::to_string(block.segment_id) + ' ' +
                   std::to_string(block.offset) + ' ' +
                   std::to_string(block.bytes) + ' ' +
                   std::to_string(block.first_day) + ' ' +
                   std::to_string(block.last_day) + ' ' +
                   std::to_string(block.rows);
    }
    reference += '\n';
    EXPECT_EQ(tsdb::serialize_catalog(catalog), reference);
  }
}

}  // namespace
