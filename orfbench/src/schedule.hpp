// Open-loop arrival schedule with due-time accounting.
//
// Request i of a stream is due at start + i / rate, whatever the server
// does. The load generator asks for the next request whenever one of the
// stream's connections is idle; the scheduler hands out due requests oldest
// first. Latency is measured from the due time, so a stall charges every
// request that queued behind it. The generator's own lateness — the time
// between a request being due on an idle connection and the generator
// sending it — is tracked separately: when it grows, the generator, not the
// server, fell behind, and the run is invalid.
//
// All times are seconds on the caller's clock, so tests drive it with a
// fake clock.
#pragma once

#include <cstdint>
#include <optional>

namespace orfbench {

class OpenLoopScheduler {
 public:
  /// Requests due in [start, end) at `rate` per second.
  OpenLoopScheduler(double start, double rate, double end);

  struct Dispatch {
    std::uint64_t seq = 0;  ///< 0-based request index in the stream
    double due = 0.0;       ///< when it was due
    double late = 0.0;      ///< generator lateness charged to this send
  };

  /// The oldest request due by `now`, for a connection idle since
  /// `idle_since`; nullopt when none is due yet or the stream is done.
  std::optional<Dispatch> next(double now, double idle_since);

  double due_time(std::uint64_t seq) const;
  /// Requests in the stream (due strictly before `end`).
  std::uint64_t total() const { return total_; }
  /// Requests handed out so far.
  std::uint64_t sent() const { return next_; }
  /// Due by `now` but not handed out yet.
  std::uint64_t backlog(double now) const;
  bool exhausted() const { return next_ >= total_; }
  /// Due time of the next request to hand out (the stream's wake-up time).
  double next_due() const { return due_time(next_); }

 private:
  double start_;
  double rate_;
  std::uint64_t total_;
  std::uint64_t next_ = 0;
};

}  // namespace orfbench
