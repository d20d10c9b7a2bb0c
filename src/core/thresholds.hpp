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

/// Apply a ThresholdRule to the sample a histogram stands for: `bins`
/// ascending by value, weights summing below 2^64. Both of the paper's
/// thresholds come from here: Users_th off the #Users histogram and
/// Domains_th(u) off the detector's #Domains histogram. A bin of weight 0
/// stands for no ads and is skipped, wherever it sits, so a dense
/// histogram gives the thresholds of its non-zero bins. Mean and median
/// are exact over the integer histogram; the stddev term is accurate to a
/// few ulp. Returns 0 when the weights sum to 0.
[[nodiscard]] double estimate_threshold(std::span<const UsersBin> bins,
                                        ThresholdRule rule);

}  // namespace eyw::core
