// Automatic online labeling (paper §3.2, Figure 1).
//
// Each operating disk owns a fixed-length FIFO of its most recent SMART
// samples, which stay *unlabeled* while the disk's fate is uncertain:
//  * when a new sample arrives and the queue is full, the oldest sample is
//    now `capacity` days old — the disk demonstrably survived the horizon,
//    so that sample is released with a negative label;
//  * when the disk fails, every queued sample falls within the horizon and
//    is released with a positive label.
#pragma once

#include <cstddef>
#include <deque>
#include <optional>
#include <vector>

namespace core {

class LabelQueue {
 public:
  /// `capacity` = the prediction horizon in samples (7 for the paper's
  /// one-sample-per-day, 7-day window).
  explicit LabelQueue(std::size_t capacity);

  std::size_t capacity() const { return capacity_; }
  std::size_t size() const { return queue_.size(); }
  bool full() const { return queue_.size() == capacity_; }

  /// Enqueue a new unlabeled sample. If the queue was full, the oldest
  /// sample is evicted and returned — it has outlived the horizon and must
  /// be labeled negative by the caller.
  std::optional<std::vector<float>> push(std::vector<float> x);

  /// Disk failed: every queued sample is within the horizon. Returns them
  /// oldest-first (to be labeled positive) and empties the queue.
  std::vector<std::vector<float>> drain();

  /// Oldest-first view of the queued samples, for checkpointing.
  const std::deque<std::vector<float>>& samples() const { return queue_; }

  /// Non-destructive oldest-first copy.
  std::vector<std::vector<float>> snapshot() const {
    return {queue_.begin(), queue_.end()};
  }

 private:
  std::size_t capacity_;
  std::deque<std::vector<float>> queue_;
};

}  // namespace core
