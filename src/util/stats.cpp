#include "util/stats.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

namespace eyw::util {

double mean(std::span<const double> xs) noexcept {
  if (xs.empty()) return 0.0;
  double acc = 0.0;
  for (double x : xs) acc += x;
  return acc / static_cast<double>(xs.size());
}

double median(std::span<const double> xs) {
  if (xs.empty()) return 0.0;
  std::vector<double> v(xs.begin(), xs.end());
  const std::size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid),
                   v.end());
  const double hi = v[mid];
  if (v.size() % 2 == 1) return hi;
  const double lo =
      *std::max_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid));
  return (lo + hi) / 2.0;
}

double stddev(std::span<const double> xs) noexcept {
  if (xs.size() < 2) return 0.0;
  const double m = mean(xs);
  double acc = 0.0;
  for (double x : xs) acc += (x - m) * (x - m);
  return std::sqrt(acc / static_cast<double>(xs.size() - 1));
}

double pearson(std::span<const double> xs, std::span<const double> ys) {
  if (xs.size() != ys.size())
    throw std::invalid_argument("pearson: size mismatch");
  if (xs.size() < 2) return 0.0;
  const double mx = mean(xs);
  const double my = mean(ys);
  double sxy = 0.0, sxx = 0.0, syy = 0.0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const double dx = xs[i] - mx;
    const double dy = ys[i] - my;
    sxy += dx * dy;
    sxx += dx * dx;
    syy += dy * dy;
  }
  if (sxx == 0.0 || syy == 0.0) return 0.0;
  return sxy / std::sqrt(sxx * syy);
}

}  // namespace eyw::util
