#include "ledger.hpp"

namespace orfbench {

AlarmLedger::AlarmLedger(const data::Dataset& fleet, data::Day from_day,
                         data::Day to_day)
    : fleet_(fleet),
      from_day_(from_day),
      to_day_(to_day),
      alarm_days_(fleet.disks.size()) {
  for (std::size_t i = 0; i < fleet.disks.size(); ++i) {
    index_.emplace(fleet.disks[i].id, i);
  }
}

void AlarmLedger::record_alarm(data::DiskId disk, data::Day day) {
  if (day < from_day_ || day >= to_day_) return;
  const auto it = index_.find(disk);
  if (it == index_.end()) return;
  alarm_days_[it->second].push_back(day);
}

eval::FleetStreamResult AlarmLedger::result() const {
  eval::FleetStreamResult result;
  for (std::size_t i = 0; i < fleet_.disks.size(); ++i) {
    const data::DiskHistory& disk = fleet_.disks[i];
    if (disk.snapshots.empty()) continue;
    // Present in the window: some snapshot falls in [from_day, to_day).
    if (disk.last_day < from_day_ || disk.first_day >= to_day_) continue;
    eval::FleetStreamResult::DiskOutcome outcome;
    const bool ended_in_window = disk.last_day < to_day_;
    outcome.failed = disk.failed && ended_in_window;
    outcome.last_day = ended_in_window ? disk.last_day : to_day_ - 1;
    outcome.alarm_days = alarm_days_[i];
    result.total_alarms += outcome.alarm_days.size();
    result.disks.push_back(std::move(outcome));
  }
  return result;
}

eval::Metrics AlarmLedger::metrics() const {
  return result().metrics(data::kHorizonDays, from_day_);
}

}  // namespace orfbench
