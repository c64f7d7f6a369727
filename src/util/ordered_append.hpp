// Pool-parallel text formatting whose bytes never depend on the pool.
//
// The durability encoders (checkpoint savers, the WAL batch codec) turn
// many independent items — trees, label queues, reports — into one text
// buffer. append_ordered formats contiguous runs of items concurrently and
// appends the runs in index order, so the output equals the sequential
// loop's for any pool, including none. Every large buffer is allocated on
// the calling thread: each run's string is reserved to an upper bound of
// its bytes before the workers start (a worker that stays within the bound
// never allocates), and each run is freed as soon as it is appended, so
// memory freed after a save is reused by the next one instead of lingering
// in per-thread allocator arenas.
#pragma once

#include <algorithm>
#include <cstddef>
#include <string>
#include <vector>

#include "util/thread_pool.hpp"

namespace util {

/// Append format(text, i) for i in [0, n) to `out`, in index order.
/// `bound(i)` is an upper bound on the bytes format appends for item i;
/// runs are balanced by it (one run per pool thread). With no pool, or a
/// single-thread one, items format straight into `out`.
template <typename Bound, typename Format>
void append_ordered(std::string& out, std::size_t n, ThreadPool* pool,
                    Bound&& bound, Format&& format) {
  // Headroom reserved past the section, so the short lines that typically
  // follow one do not force a doubling of a multi-MB buffer.
  constexpr std::size_t kHeadroom = 4096;
  std::vector<std::size_t> bounds(n);
  std::size_t total = 0;
  for (std::size_t i = 0; i < n; ++i) total += bounds[i] = bound(i);
  const std::size_t runs =
      pool == nullptr ? 1 : std::min(pool->thread_count(), n);
  if (runs <= 1) {
    out.reserve(out.size() + total + kHeadroom);
    for (std::size_t i = 0; i < n; ++i) format(out, i);
    return;
  }
  // Cut [0, n) where the running bound crosses each k/runs of the total.
  std::vector<std::size_t> cut{0};
  std::vector<std::size_t> run_bound{0};
  std::size_t running = 0;
  for (std::size_t i = 0; i < n; ++i) {
    running += bounds[i];
    run_bound.back() += bounds[i];
    if (cut.size() < runs && i + 1 < n &&
        running * runs >= total * cut.size()) {
      cut.push_back(i + 1);
      run_bound.push_back(0);
    }
  }
  cut.push_back(n);
  std::vector<std::string> text(run_bound.size());
  for (std::size_t r = 0; r < text.size(); ++r) text[r].reserve(run_bound[r]);
  pool->parallel_for(text.size(), [&](std::size_t r) {
    // Format into a string object on this worker's stack: the run strings
    // sit side by side in `text`, and every append writes the string's
    // length, so formatting in place would bounce their shared cache
    // lines between cores. The move keeps the reserved buffer.
    std::string run = std::move(text[r]);
    for (std::size_t i = cut[r]; i < cut[r + 1]; ++i) format(run, i);
    text[r] = std::move(run);
  });
  std::size_t bytes = 0;
  for (const std::string& piece : text) bytes += piece.size();
  out.reserve(out.size() + bytes + kHeadroom);
  for (std::string& piece : text) {
    out += piece;
    std::string().swap(piece);
  }
}

}  // namespace util
