// Order statistics the benchmark reports. Two conventions matter:
//   * within a run, percentiles interpolate linearly between the closest
//     ranks, and a tail percentile is only reported where at least ten
//     samples lie beyond it (tail());
//   * across runs, quartiles follow Python's
//     statistics.quantiles(values, n=4) (the 'exclusive' method), so the
//     C++ side and compare.py agree on every spread they print.
#pragma once

#include <array>
#include <cstddef>
#include <vector>

namespace eyw::bench {

/// Linear-interpolation percentile, p in [0, 100] (sorts its copy).
/// Throws std::invalid_argument on an empty sample or p out of range.
[[nodiscard]] double percentile(std::vector<double> xs, double p);

[[nodiscard]] inline double median(std::vector<double> xs) {
  return percentile(std::move(xs), 50.0);
}

/// [q1, q2, q3] exactly as Python's statistics.quantiles(xs, n=4) gives
/// them. Needs at least two values (throws std::invalid_argument).
[[nodiscard]] std::array<double, 3> quartiles(std::vector<double> xs);

/// The highest percentile of the ladder 50, 90, 99, 99.9, 99.99, 99.999
/// with at least ten of `n` samples beyond it; 0 when even the median has
/// fewer (n < 20).
[[nodiscard]] double tail_percentile_for(std::size_t n) noexcept;

/// A tail latency as the benchmark reports it: the percentile the sample
/// supports, its value, and the sample count.
struct Tail {
  double percentile = 0.0;
  double value = 0.0;
  std::size_t samples = 0;
};

/// tail_percentile_for(xs.size()) of xs; percentile 0 and value 0 when the
/// sample is too small to support any.
[[nodiscard]] Tail tail(std::vector<double> xs);

}  // namespace eyw::bench
