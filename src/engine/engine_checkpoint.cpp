// FleetEngine checkpoint/restore.
//
// Same line-oriented text format as the rest of core/checkpoint.cpp (floats
// as hex bit patterns, appended through core::checkpoint::Writer; see
// core/checkpoint.hpp). The engine section carries
// everything Algorithm 2 needs to resume mid-deployment: the model backend's
// registry name, release counters, online scaler ranges, every disk's
// unlabeled queue, then the backend's full model state. Queues are written
// sorted by ascending DiskId — an order no shard layout can perturb — and
// restore() re-assigns each disk to hash % shards of the *receiving* engine,
// which is what makes a checkpoint portable across shard counts. Per-shard
// observability counters are runtime-only and deliberately absent (see
// engine/counters.hpp).
//
// Header versioning: "fleet-engine-state v1" is followed by a
// "backend=<name>" line; restoring into an engine running a different
// backend throws, and a header without the line (written before the
// ModelBackend seam) is a CorruptCheckpoint.

// File checkpoints are crash-safe: save_file() frames the payload in the
// CRC32 envelope and writes it via temp-file + fsync + atomic rename (see
// robust/checkpoint_io.hpp), so a process killed mid-save leaves the
// previous checkpoint intact. restore_file() reads only framed files, so
// every restored byte has passed the CRC check.

#include <algorithm>
#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "core/checkpoint.hpp"
#include "engine/fleet_engine.hpp"
#include "robust/checkpoint_io.hpp"
#include "util/ordered_append.hpp"

namespace engine {

void FleetEngine::save(std::string& out, util::ThreadPool* pool) const {
  namespace cp = core::checkpoint;
  cp::Writer w(out);
  w << "fleet-engine-state v1\n";
  w << "backend=" << backend_->name() << '\n';
  const std::size_t features = scaler_.feature_count();
  w << features << ' ' << params_.queue_capacity << ' '
    << negatives_released_ << ' ' << positives_released_ << '\n';
  w << "scaler";
  for (double v : scaler_.mins()) w << ' ' << cp::hex(v);
  for (double v : scaler_.maxs()) w << ' ' << cp::hex(v);
  w << '\n';

  std::vector<std::pair<data::DiskId, const core::LabelQueue*>> queues;
  queues.reserve(tracked_disks());
  for (const EngineShard& shard : shards_) {
    for (const auto& [disk, queue] : shard.queues()) {
      queues.emplace_back(disk, &queue);
    }
  }
  std::sort(queues.begin(), queues.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  w << "queues " << queues.size() << '\n';
  const std::size_t row_bound = features * (cp::kMaxFloatChars + 1);
  util::append_ordered(
      out, queues.size(), pool,
      [&](std::size_t q) {
        return 2 * (cp::kMaxIntChars + 1) +
               queues[q].second->size() * row_bound;
      },
      [&](std::string& text, std::size_t q) {
        cp::Writer qw(text);
        const auto& samples = queues[q].second->samples();
        qw << queues[q].first << ' ' << samples.size() << '\n';
        for (const auto& x : samples) {
          for (std::size_t f = 0; f < x.size(); ++f) {
            if (f) qw << ' ';
            qw << cp::hex(x[f]);
          }
          qw << '\n';
        }
      });
  backend_->save(out, pool);
}

void FleetEngine::save(std::ostream& os) const {
  std::string out;
  save(out);
  os << out;
  robust::commit_stream(os, "engine checkpoint");
}

void FleetEngine::restore(std::istream& is) {
  namespace cp = core::checkpoint;
  std::string line;
  if (!std::getline(is, line) || line != "fleet-engine-state v1") {
    throw std::runtime_error("checkpoint: not a fleet-engine-state v1");
  }
  std::string token;
  if (!(is >> token)) {
    throw std::runtime_error("checkpoint: truncated engine header");
  }
  constexpr std::string_view kBackendKey = "backend=";
  if (token.compare(0, kBackendKey.size(), kBackendKey) != 0) {
    throw robust::CorruptCheckpoint(
        "checkpoint: engine header has no backend= line (got '" + token +
        "')");
  }
  const std::string backend = token.substr(kBackendKey.size());
  const auto features = cp::get_u64(is, "engine feature count");
  if (backend != backend_->name()) {
    throw std::runtime_error(
        "checkpoint: written by the '" + backend +
        "' backend, cannot restore into '" + std::string(backend_->name()) +
        "'");
  }
  const auto capacity = cp::get_u64(is, "queue capacity");
  if (features != scaler_.feature_count() ||
      capacity != params_.queue_capacity) {
    throw std::runtime_error(
        "checkpoint: engine shape does not match the receiving object");
  }
  negatives_released_ = cp::get_u64(is, "negatives_released");
  positives_released_ = cp::get_u64(is, "positives_released");
  cp::expect_tag(is, "scaler");
  std::vector<double> mins(features);
  std::vector<double> maxs(features);
  for (auto& v : mins) v = cp::get_double(is);
  for (auto& v : maxs) v = cp::get_double(is);
  scaler_.set_ranges(std::move(mins), std::move(maxs));

  cp::expect_tag(is, "queues");
  const auto n_queues = cp::get_u64(is, "queue count");
  for (EngineShard& shard : shards_) shard.clear_queues();
  for (std::uint64_t q = 0; q < n_queues; ++q) {
    const auto disk = static_cast<data::DiskId>(cp::get_u64(is, "disk id"));
    const auto n_samples = cp::get_u64(is, "queued samples");
    core::LabelQueue& queue = shards_[shard_of(disk)].queue_for(disk);
    for (std::uint64_t s = 0; s < n_samples; ++s) {
      std::vector<float> x(features);
      for (auto& v : x) v = cp::get_float(is);
      queue.push(std::move(x));
    }
  }
  is >> std::ws;
  backend_->restore(is);
}

void FleetEngine::save_file(const std::string& path) const {
  std::string payload;
  save(payload);
  robust::write_envelope_file(path, payload);
}

void FleetEngine::restore_file(const std::string& path) {
  std::istringstream is(robust::read_envelope_file(path));
  restore(is);
}

}  // namespace engine
