// Stage interfaces of the streaming engine.
//
// The paper's deployment loop (Algorithm 2) decomposes into four stages —
//
//   scale  — extend the online min/max ranges with the day's raw samples
//   label  — per-disk LabelQueues release outdated negatives / failure
//            positives (paper §3.2, Figure 1)
//   learn  — the released labeled samples update the shared model (any
//            engine::ModelBackend; the paper's ORF by default)
//   score  — every arriving sample is scored against the current model
//
// — and the two interfaces here are the seams between the engine and its
// callers. A `SampleSink` accepts day-batches of unlabeled fleet reports
// (the production front door: FleetEngine implements it, stream_fleet
// drives it). A `LearnSource` yields already-labeled,
// time-ordered samples and bypasses the label stage (the simulation path of
// §4.4: OrfReplay wraps one around an offline-labeled sequence and the
// engine consumes it).
#pragma once

#include <optional>
#include <span>
#include <stdexcept>
#include <vector>

#include "data/types.hpp"
#include "engine/batch.hpp"
#include "util/thread_pool.hpp"

namespace engine {

/// Consumer of unlabeled day-batches: scale → label → learn → score.
class SampleSink {
 public:
  virtual ~SampleSink() = default;

  /// Process one calendar day of fleet reports. `outcomes` is resized to
  /// `batch.size()`, one verdict per report, in batch order.
  virtual void ingest_day(std::span<const DiskReport> batch,
                          std::vector<DayOutcome>& outcomes,
                          util::ThreadPool* pool = nullptr) = 0;
};

/// Producer of labeled, time-ordered samples for the learn stage.
class LearnSource {
 public:
  struct Item {
    std::span<const float> raw;  ///< unscaled feature vector
    int label = 0;
  };

  virtual ~LearnSource() = default;

  /// Next sample with day < `up_to_day`, or nullopt when the window is
  /// exhausted. Must yield samples in non-decreasing day order.
  virtual std::optional<Item> next(data::Day up_to_day) = 0;
};

/// LearnSource over a time-sorted span of offline-labeled samples, with an
/// external cursor so incremental windows (advance_until) resume where the
/// previous call stopped. Throws std::invalid_argument if the sequence is
/// not time-sorted.
class LabeledSampleSource final : public LearnSource {
 public:
  LabeledSampleSource(std::span<const data::LabeledSample> samples,
                      std::size_t& cursor)
      : samples_(samples), cursor_(cursor) {}

  std::optional<Item> next(data::Day up_to_day) override {
    if (cursor_ >= samples_.size()) return std::nullopt;
    const auto& s = samples_[cursor_];
    if (s.day >= up_to_day) return std::nullopt;
    if (cursor_ > 0 && samples_[cursor_ - 1].day > s.day) {
      throw std::invalid_argument(
          "LabeledSampleSource: samples not time-sorted");
    }
    ++cursor_;
    return Item{s.x(), s.label};
  }

 private:
  std::span<const data::LabeledSample> samples_;
  std::size_t& cursor_;
};

}  // namespace engine
