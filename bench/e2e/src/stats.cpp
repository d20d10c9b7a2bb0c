#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace eyw::bench {

namespace {

double percentile_sorted(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) throw std::invalid_argument("percentile: empty sample");
  if (!(p >= 0.0 && p <= 100.0))
    throw std::invalid_argument("percentile: p outside [0, 100]");
  const double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

}  // namespace

double percentile(std::vector<double> xs, double p) {
  std::sort(xs.begin(), xs.end());
  return percentile_sorted(xs, p);
}

std::array<double, 3> quartiles(std::vector<double> xs) {
  // Python's statistics.quantiles(data, n=4, method='exclusive'):
  //   m = len + 1; j = i*m // 4 clamped to [1, len-1];
  //   delta = i*m - j*4; q_i = (x[j-1]*(4-delta) + x[j]*delta) / 4.
  const std::size_t len = xs.size();
  if (len < 2) throw std::invalid_argument("quartiles: need >= 2 values");
  std::sort(xs.begin(), xs.end());
  std::array<double, 3> out{};
  const std::size_t m = len + 1;
  for (std::size_t i = 1; i <= 3; ++i) {
    std::size_t j = i * m / 4;
    j = std::clamp<std::size_t>(j, 1, len - 1);
    const auto delta = static_cast<double>(static_cast<long long>(i * m) -
                                           static_cast<long long>(j * 4));
    out[i - 1] = (xs[j - 1] * (4.0 - delta) + xs[j] * delta) / 4.0;
  }
  return out;
}

double tail_percentile_for(std::size_t n) noexcept {
  static constexpr double kLadder[] = {99.999, 99.99, 99.9, 99.0, 90.0, 50.0};
  for (const double p : kLadder) {
    // Samples strictly beyond the p-th percentile: n * (1 - p/100). The
    // epsilon absorbs binary rounding of the ladder's decimal fractions.
    if (static_cast<double>(n) * (100.0 - p) / 100.0 >= 10.0 - 1e-9) return p;
  }
  return 0.0;
}

Tail tail(std::vector<double> xs) {
  Tail t;
  t.samples = xs.size();
  t.percentile = tail_percentile_for(xs.size());
  if (t.percentile > 0.0) t.value = percentile(std::move(xs), t.percentile);
  return t;
}

}  // namespace eyw::bench
