// Disk-level FDR/FAR (paper §4.3) over the benchmark's live window.
//
// orfd's alarm verdicts for the live days [from_day, to_day) are recorded
// per disk; metrics() applies eval::FleetStreamResult::metrics to the fleet
// as it stands at to_day. A disk counts only if it reported inside the
// window. A disk that fails inside the window is a failed disk; one still
// running at to_day is a good disk whose history ends at to_day - 1, so its
// alarms in the final horizon before the cut are not charged as false. The
// backfilled days before from_day are warm-up and never count.
#pragma once

#include <unordered_map>
#include <vector>

#include "data/types.hpp"
#include "eval/fleet_stream.hpp"
#include "eval/metrics.hpp"

namespace orfbench {

class AlarmLedger {
 public:
  AlarmLedger(const data::Dataset& fleet, data::Day from_day,
              data::Day to_day);

  /// One alarm verdict of `disk` on `day`; days outside the window and
  /// unknown disks are ignored.
  void record_alarm(data::DiskId disk, data::Day day);

  /// The fleet cut at to_day with the recorded alarms, as the eval rule
  /// sees it.
  eval::FleetStreamResult result() const;
  eval::Metrics metrics() const;

 private:
  const data::Dataset& fleet_;
  data::Day from_day_;
  data::Day to_day_;
  std::unordered_map<data::DiskId, std::size_t> index_;
  std::vector<std::vector<data::Day>> alarm_days_;
};

}  // namespace orfbench
