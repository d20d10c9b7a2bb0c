#include "core/thresholds.hpp"

#include <cmath>

namespace eyw::core {

namespace {

/// The value at 0-based position `rank` (< the weight sum) of the
/// expanded, sorted sample. Zero-weight bins fall through the loop.
double value_at(std::span<const UsersBin> bins, std::uint64_t rank) {
  auto it = bins.begin();
  while (rank >= it->weight) rank -= (it++)->weight;
  return it->value;
}

}  // namespace

double estimate_threshold(std::span<const UsersBin> bins, ThresholdRule rule) {
  std::uint64_t n = 0;
  unsigned __int128 sum = 0;  // Σ value·weight, exact
  for (const UsersBin& b : bins) {
    n += b.weight;
    sum += static_cast<unsigned __int128>(b.value) * b.weight;
  }
  if (n == 0) return 0.0;
  const auto median = [&] {
    const double hi = value_at(bins, n / 2);
    if (n % 2 == 1) return hi;
    return (value_at(bins, n / 2 - 1) + hi) / 2.0;
  };
  const auto stddev = [&] {
    if (n < 2) return 0.0;
    const long double m = static_cast<long double>(sum) / n;
    long double acc = 0.0L;
    for (const UsersBin& b : bins) {
      const long double dev = b.value - m;
      acc += dev * dev * static_cast<long double>(b.weight);
    }
    return static_cast<double>(std::sqrt(acc / (n - 1)));
  };
  const double mean = static_cast<double>(sum) / static_cast<double>(n);
  switch (rule) {
    case ThresholdRule::kMean:
      return mean;
    case ThresholdRule::kMedian:
      return median();
    case ThresholdRule::kMeanPlusMedian:
      return mean + median();
    case ThresholdRule::kMeanPlusStddev:
      return mean + stddev();
  }
  return 0.0;
}

}  // namespace eyw::core
