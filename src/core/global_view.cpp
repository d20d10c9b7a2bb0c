#include "core/global_view.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <stdexcept>

namespace eyw::core {

void GlobalUserCounter::record(UserId user, AdId ad) {
  seen_by_[ad].insert(user);
}

std::uint32_t GlobalUserCounter::users_for(AdId ad) const noexcept {
  const auto it = seen_by_.find(ad);
  return it == seen_by_.end() ? 0
                              : static_cast<std::uint32_t>(it->second.size());
}

UsersDistribution GlobalUserCounter::distribution() const {
  UsersTally tally;
  for (const auto& [ad, users] : seen_by_)
    tally.add(static_cast<std::uint32_t>(users.size()));
  return tally.finish();
}

UsersDistribution UsersDistribution::from_bins(std::vector<UsersBin> bins) {
  UsersDistribution d;
  std::uint32_t prev = 0;
  for (const UsersBin& b : bins) {
    if (b.value <= prev || b.weight == 0)
      throw std::invalid_argument(
          "UsersDistribution: bins must ascend strictly from value 1 and "
          "carry weight >= 1");
    if (d.size_ + b.weight < d.size_)
      throw std::invalid_argument("UsersDistribution: weight sum overflows");
    d.size_ += b.weight;
    prev = b.value;
  }
  d.bins_ = std::move(bins);
  return d;
}

double UsersDistribution::pdf(std::uint32_t value) const noexcept {
  const auto it = std::lower_bound(
      bins_.begin(), bins_.end(), value,
      [](const UsersBin& b, std::uint32_t v) { return b.value < v; });
  if (it == bins_.end() || it->value != value) return 0.0;
  return static_cast<double>(it->weight) / static_cast<double>(size_);
}

double total_variation(const UsersDistribution& a,
                       const UsersDistribution& b) {
  double acc = 0.0;
  for (const UsersBin& x : a.histogram())
    acc += std::abs(a.pdf(x.value) - b.pdf(x.value));
  for (const UsersBin& y : b.histogram())
    if (a.pdf(y.value) == 0.0) acc += b.pdf(y.value);
  return acc / 2.0;
}

UsersTally::UsersTally(std::size_t expected)
    : shift_(64 - std::bit_width(std::max<std::size_t>(2 * expected, 2) - 1)),
      keys_(std::size_t{1} << (64 - shift_), 0),
      weights_(keys_.size(), 0) {}

std::size_t UsersTally::claim(std::size_t s, std::uint32_t value) {
  if (2 * (used_ + 1) > keys_.size()) {
    UsersTally bigger(keys_.size());
    for (const UsersBin& b : bins()) bigger.add(b.value, b.weight);
    *this = std::move(bigger);
    s = slot(value);
  }
  keys_[s] = value;
  ++used_;
  return s;
}

std::vector<UsersBin> UsersTally::bins() const {
  std::vector<UsersBin> out;
  out.reserve(used_);
  for (std::size_t s = 0; s < keys_.size(); ++s)
    if (keys_[s] != 0) out.push_back({.value = keys_[s], .weight = weights_[s]});
  return out;
}

UsersDistribution UsersTally::finish() const {
  std::vector<UsersBin> out = bins();
  std::sort(out.begin(), out.end(), [](const UsersBin& a, const UsersBin& b) {
    return a.value < b.value;
  });
  return UsersDistribution::from_bins(std::move(out));
}

}  // namespace eyw::core
