// The benchmark's input: a seeded STA-profile fleet cut into calendar days.
//
// Days [0, warm_days) are history (written to the tsdb store orfd backfills
// from); days [warm_days, duration) are live and go over HTTP. Every day is
// exactly the batch eval::stream_fleet would build: disk-index order, the
// disk's final report tagged failure/retirement.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "data/types.hpp"
#include "engine/batch.hpp"
#include "tsdb/format.hpp"

namespace orfbench {

struct DayBatch {
  data::Day day = 0;
  std::vector<engine::DiskReport> reports;  ///< spans into the dataset
};

class Fleet {
 public:
  /// generate_fleet(sta_profile(scale)) over warm_days + live_days days.
  Fleet(double scale, data::Day warm_days, data::Day live_days,
        std::uint64_t seed);

  const data::Dataset& dataset() const { return dataset_; }
  data::Day warm_days() const { return warm_days_; }
  data::Day duration() const { return dataset_.duration_days; }
  std::size_t feature_count() const { return dataset_.feature_count(); }
  const DayBatch& day(data::Day d) const { return days_.at(static_cast<std::size_t>(d)); }

  /// Write days [0, warm_days) into a fresh tsdb store at `directory`.
  void write_history(const std::string& directory) const;

  /// The /v1/ingest body of day `d`.
  std::string ingest_body(data::Day d) const;

  /// Up to `count` /v1/score bodies of `rows_per_request` rows each: one
  /// server's disks (consecutive ids of one live day), walking the live
  /// days from the first. `rows` receives each request's raw rows.
  std::vector<std::string> score_bodies(
      std::size_t count, std::size_t rows_per_request,
      std::vector<std::vector<float>>& rows) const;

 private:
  data::Dataset dataset_;
  data::Day warm_days_;
  std::vector<DayBatch> days_;
};

/// Shortest round-trip text of a float, via double so orfd's parse → float
/// cast restores the exact value.
void append_number(std::string& out, float value);

}  // namespace orfbench
