// Order statistics for the benchmark's reported timings.
//
// Percentile rule: a percentile is reported only when at least
// kMinBeyond samples lie strictly beyond it, so p95 needs 200 samples and
// p99 needs 1000. Percentiles use the nearest-rank definition (the value at
// rank ceil(q * n)), so every reported latency is one that was observed.
#pragma once

#include <cstddef>
#include <vector>

namespace orfbench {

inline constexpr std::size_t kMinBeyond = 10;

/// Samples above the nearest-rank q-percentile of n samples.
std::size_t samples_beyond(std::size_t n, double q);

/// Whether n samples support the q-percentile (>= kMinBeyond beyond it).
bool percentile_supported(std::size_t n, double q);

/// Fewest samples that support the q-percentile.
std::size_t min_samples_for(double q);

/// Nearest-rank q-percentile (q in (0, 1]); 0 when `values` is empty.
double percentile(std::vector<double> values, double q);

/// Median (mean of the two middle values for even n); 0 when empty.
double median(std::vector<double> values);

/// The q-percentile of each of the most contiguous slices of `values`
/// (in arrival order) that still support it, and the median of those: one
/// stall inside a run moves one slice, not the reported figure. With too
/// few samples for two slices this is percentile(values, q).
double sliced_percentile(const std::vector<double>& values, double q);

}  // namespace orfbench
