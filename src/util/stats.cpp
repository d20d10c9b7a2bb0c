#include "util/stats.hpp"

#include <cmath>
#include <stdexcept>

namespace eyw::util {

double mean(std::span<const double> xs) noexcept {
  if (xs.empty()) return 0.0;
  double acc = 0.0;
  for (double x : xs) acc += x;
  return acc / static_cast<double>(xs.size());
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
