#include "schedule.hpp"

#include <algorithm>
#include <cmath>

namespace orfbench {

OpenLoopScheduler::OpenLoopScheduler(double start, double rate, double end)
    : start_(start), rate_(rate) {
  const double span = std::max(0.0, end - start);
  total_ = rate > 0.0 ? static_cast<std::uint64_t>(std::ceil(span * rate))
                      : 0;
}

double OpenLoopScheduler::due_time(std::uint64_t seq) const {
  return start_ + static_cast<double>(seq) / rate_;
}

std::uint64_t OpenLoopScheduler::backlog(double now) const {
  if (now < start_ || rate_ <= 0.0) return 0;
  const auto due = std::min<std::uint64_t>(
      total_, static_cast<std::uint64_t>(std::floor((now - start_) * rate_)) + 1);
  return due > next_ ? due - next_ : 0;
}

std::optional<OpenLoopScheduler::Dispatch> OpenLoopScheduler::next(
    double now, double idle_since) {
  if (exhausted()) return std::nullopt;
  const double due = due_time(next_);
  if (due > now) return std::nullopt;
  Dispatch dispatch;
  dispatch.seq = next_++;
  dispatch.due = due;
  dispatch.late = now - std::max(due, idle_since);
  return dispatch;
}

}  // namespace orfbench
