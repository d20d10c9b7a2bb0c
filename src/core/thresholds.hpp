// Threshold estimation from counter distributions (Section 4.2).
#pragma once

#include <cstdint>
#include <span>

#include "core/types.hpp"

namespace eyw::core {

/// One histogram bin: `weight` ads (or ids) whose counter is `value`.
struct UsersBin {
  std::uint32_t value = 0;
  std::uint64_t weight = 0;

  bool operator==(const UsersBin&) const = default;
};

/// Apply a ThresholdRule to a sample. Returns 0 for an empty sample.
[[nodiscard]] double estimate_threshold(std::span<const double> distribution,
                                        ThresholdRule rule);

/// Apply a ThresholdRule to the sample a histogram stands for: `bins`
/// ascending by value, weights summing below 2^64. Mean and median are
/// exact over the integer histogram, so they equal the sample overload on
/// the expanded sample whenever its sum is below 2^53; the stddev term is
/// accurate to a few ulp. Returns 0 for an empty histogram.
[[nodiscard]] double estimate_threshold(std::span<const UsersBin> bins,
                                        ThresholdRule rule);

}  // namespace eyw::core
