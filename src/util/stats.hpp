// Descriptive statistics used by the evaluation harnesses. The detector's
// threshold rules read histograms instead (core/thresholds.hpp).
#pragma once

#include <span>

namespace eyw::util {

/// Arithmetic mean; 0 for an empty input.
[[nodiscard]] double mean(std::span<const double> xs) noexcept;

/// Pearson correlation coefficient; 0 if either side is constant.
/// Sizes must match.
[[nodiscard]] double pearson(std::span<const double> xs,
                             std::span<const double> ys);

}  // namespace eyw::util
