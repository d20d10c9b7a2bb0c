// Descriptive statistics used by the detector's threshold estimators and by
// the evaluation harnesses.
#pragma once

#include <span>

namespace eyw::util {

/// Arithmetic mean; 0 for an empty input.
[[nodiscard]] double mean(std::span<const double> xs) noexcept;

/// Median (average of the two middle order statistics for even sizes);
/// 0 for an empty input. Does not modify the input.
[[nodiscard]] double median(std::span<const double> xs);

/// Unbiased sample standard deviation (n-1 denominator); 0 for n < 2.
[[nodiscard]] double stddev(std::span<const double> xs) noexcept;

/// Pearson correlation coefficient; 0 if either side is constant.
/// Sizes must match.
[[nodiscard]] double pearson(std::span<const double> xs,
                             std::span<const double> ys);

}  // namespace eyw::util
