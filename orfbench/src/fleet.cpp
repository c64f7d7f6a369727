#include "fleet.hpp"

#include <charconv>
#include <stdexcept>

#include "datagen/fleet_generator.hpp"
#include "tsdb/writer.hpp"

namespace orfbench {

void append_number(std::string& out, float value) {
  char buf[32];
  const auto [end, ec] =
      std::to_chars(buf, buf + sizeof buf, static_cast<double>(value));
  if (ec != std::errc()) throw std::runtime_error("to_chars failed");
  out.append(buf, end);
}

Fleet::Fleet(double scale, data::Day warm_days, data::Day live_days,
             std::uint64_t seed)
    : warm_days_(warm_days) {
  datagen::FleetProfile profile = datagen::sta_profile(scale);
  profile.duration_days = warm_days + live_days;
  dataset_ = datagen::generate_fleet(profile, seed);

  days_.resize(static_cast<std::size_t>(dataset_.duration_days));
  for (std::size_t d = 0; d < days_.size(); ++d) {
    days_[d].day = static_cast<data::Day>(d);
  }
  for (const data::DiskHistory& disk : dataset_.disks) {
    for (std::size_t s = 0; s < disk.snapshots.size(); ++s) {
      const data::Snapshot& snap = disk.snapshots[s];
      engine::DiskReport report;
      report.disk = disk.id;
      report.features = snap.features;
      if (s + 1 == disk.snapshots.size()) {
        report.fate = disk.failed ? engine::DiskFate::kFailure
                                  : engine::DiskFate::kRetirement;
      }
      days_.at(static_cast<std::size_t>(snap.day)).reports.push_back(report);
    }
  }
}

void Fleet::write_history(const std::string& directory) const {
  tsdb::Writer writer(tsdb::Writer::Options{
      .directory = directory, .feature_count = feature_count()});
  std::vector<tsdb::RowView> rows;
  for (data::Day d = 0; d < warm_days_; ++d) {
    rows.clear();
    for (const engine::DiskReport& report : day(d).reports) {
      rows.push_back(tsdb::RowView{
          .disk = report.disk,
          .fate = static_cast<std::uint8_t>(report.fate),
          .features = report.features});
    }
    writer.append_day(d, rows);
  }
  writer.flush();
}

std::string Fleet::ingest_body(data::Day d) const {
  const DayBatch& batch = day(d);
  std::string out;
  out.reserve(batch.reports.size() * 24 * (feature_count() + 2));
  out += "{\"reports\":[";
  for (std::size_t r = 0; r < batch.reports.size(); ++r) {
    const engine::DiskReport& report = batch.reports[r];
    if (r > 0) out += ',';
    out += "{\"disk\":";
    out += std::to_string(report.disk);
    out += ",\"features\":[";
    for (std::size_t f = 0; f < report.features.size(); ++f) {
      if (f > 0) out += ',';
      append_number(out, report.features[f]);
    }
    out += ']';
    if (report.fate == engine::DiskFate::kFailure) {
      out += ",\"fate\":\"failure\"";
    } else if (report.fate == engine::DiskFate::kRetirement) {
      out += ",\"fate\":\"retirement\"";
    }
    out += '}';
  }
  out += "]}";
  return out;
}

std::vector<std::string> Fleet::score_bodies(
    std::size_t count, std::size_t rows_per_request,
    std::vector<std::vector<float>>& rows) const {
  std::vector<std::string> bodies;
  rows.clear();
  for (data::Day d = warm_days_; d < duration() && bodies.size() < count;
       ++d) {
    const auto& reports = day(d).reports;
    for (std::size_t at = 0; at + rows_per_request <= reports.size() &&
                             bodies.size() < count;
         at += rows_per_request) {
      std::string body = "{\"rows\":[";
      std::vector<float> xs;
      for (std::size_t r = at; r < at + rows_per_request; ++r) {
        if (r > at) body += ',';
        body += '[';
        const auto& features = reports[r].features;
        for (std::size_t f = 0; f < features.size(); ++f) {
          if (f > 0) body += ',';
          append_number(body, features[f]);
        }
        body += ']';
        xs.insert(xs.end(), features.begin(), features.end());
      }
      body += "]}";
      bodies.push_back(std::move(body));
      rows.push_back(std::move(xs));
    }
  }
  return bodies;
}

}  // namespace orfbench
