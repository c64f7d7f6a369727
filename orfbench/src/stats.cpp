#include "stats.hpp"

#include <algorithm>
#include <cmath>

namespace orfbench {

namespace {

std::size_t nearest_rank(std::size_t n, double q) {
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n) - 1e-9));
  return std::clamp<std::size_t>(rank, 1, n);
}

}  // namespace

std::size_t samples_beyond(std::size_t n, double q) {
  return n == 0 ? 0 : n - nearest_rank(n, q);
}

bool percentile_supported(std::size_t n, double q) {
  return samples_beyond(n, q) >= kMinBeyond;
}

std::size_t min_samples_for(double q) {
  std::size_t n = kMinBeyond;
  while (!percentile_supported(n, q)) ++n;
  return n;
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  const std::size_t at = nearest_rank(values.size(), q) - 1;
  std::nth_element(values.begin(), values.begin() + static_cast<long>(at),
                   values.end());
  return values[at];
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double sliced_percentile(const std::vector<double>& values, double q) {
  const std::size_t slices =
      std::max<std::size_t>(1, values.size() / min_samples_for(q));
  const std::size_t size = values.size() / slices;
  std::vector<double> per_slice;
  for (std::size_t i = 0; i < slices; ++i) {
    const auto first = values.begin() + static_cast<long>(i * size);
    const auto last =
        i + 1 == slices ? values.end() : first + static_cast<long>(size);
    per_slice.push_back(percentile(std::vector<double>(first, last), q));
  }
  return median(per_slice);
}

}  // namespace orfbench
