// Server-side half of the count-based algorithm: the #Users(a) counters and
// the Users_th threshold (Section 4).
//
// Two construction paths exist, mirroring the paper's evaluation:
//   * exact — distinct-user counting from cleartext reports ("Actual" curves
//     in Figure 2); GlobalUserCounter below.
//   * estimated — queries against the unblinded aggregate count-min sketch
//     ("CMS" curves in Figure 2); built by server::finalize_from_cells.
// Both paths feed a UsersDistribution, from which Users_th is derived.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <vector>

#include "core/thresholds.hpp"
#include "core/types.hpp"

namespace eyw::core {

class UsersDistribution;

/// Exact distinct-user counting (evaluation oracle; the deployed system
/// replaces this with the privacy-preserving CMS pipeline).
class GlobalUserCounter {
 public:
  /// Record that `user` saw `ad`. Duplicate sightings are idempotent.
  void record(UserId user, AdId ad);

  /// #Users(a): distinct users that saw the ad.
  [[nodiscard]] std::uint32_t users_for(AdId ad) const noexcept;

  /// The exact #Users distribution, every recorded ad counted once.
  [[nodiscard]] UsersDistribution distribution() const;

  [[nodiscard]] std::size_t distinct_ads() const noexcept {
    return seen_by_.size();
  }

  void clear() noexcept { seen_by_.clear(); }

 private:
  std::map<AdId, std::set<UserId>> seen_by_;
};

/// The #Users distribution over ads, held as its histogram, and the
/// threshold derived from it. Count-min estimates only ever take one of
/// the sketch's d·w cell values, so the histogram of a scan over any id
/// space has at most d·w bins.
class UsersDistribution {
 public:
  UsersDistribution() = default;

  /// Adopt a finished histogram. Throws std::invalid_argument unless the
  /// values are strictly ascending and >= 1 and every weight is >= 1.
  [[nodiscard]] static UsersDistribution from_bins(std::vector<UsersBin> bins);

  /// Users_th under the given rule (paper default: mean), from the
  /// histogram (see estimate_threshold).
  [[nodiscard]] double threshold(ThresholdRule rule) const {
    return estimate_threshold(bins_, rule);
  }

  /// (value, weight) bins, ascending by value.
  [[nodiscard]] const std::vector<UsersBin>& histogram() const noexcept {
    return bins_;
  }
  /// Share of the ads whose #Users is `value` (0 if there is none).
  [[nodiscard]] double pdf(std::uint32_t value) const noexcept;
  /// Number of ads in the distribution (the sum of the weights).
  [[nodiscard]] std::uint64_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }

  bool operator==(const UsersDistribution&) const = default;

 private:
  std::vector<UsersBin> bins_;
  std::uint64_t size_ = 0;
};

/// Open-addressing value -> weight table that folds #Users values into a
/// histogram in time linear in the values added. Every #Users histogram
/// is tallied here: GlobalUserCounter::distribution and the server's
/// finalize scan both use it.
class UsersTally {
 public:
  /// Room for `expected` distinct values before the table first grows.
  explicit UsersTally(std::size_t expected = 0);

  /// Count `weight` more ads whose #Users is `value`. `value` must be
  /// >= 1 (a zero key marks a free slot; an ad nobody saw is not an ad).
  /// Inline: the finalize scan calls this once per id.
  void add(std::uint32_t value, std::uint64_t weight = 1) {
    std::size_t s = slot(value);
    if (keys_[s] == 0) s = claim(s, value);
    weights_[s] += weight;
  }

  /// Every tallied (value, weight), in no particular order.
  [[nodiscard]] std::vector<UsersBin> bins() const;

  /// The tallied histogram as a distribution.
  [[nodiscard]] UsersDistribution finish() const;

 private:
  /// Fibonacci hashing into a power-of-two table, linear probing: the
  /// slot holding `value`, or the free slot it would go in.
  [[nodiscard]] std::size_t slot(std::uint32_t value) const noexcept {
    const std::size_t mask = keys_.size() - 1;
    std::size_t s = (value * 0x9E3779B97F4A7C15ull) >> shift_;
    while (keys_[s] != value && keys_[s] != 0) s = (s + 1) & mask;
    return s;
  }

  /// Put `value` into its free slot `s`, first growing the table if that
  /// would lift the load factor above 1/2. Returns the value's slot.
  std::size_t claim(std::size_t s, std::uint32_t value);

  int shift_;
  std::vector<std::uint32_t> keys_;
  std::vector<std::uint64_t> weights_;
  std::size_t used_ = 0;
};

/// Total-variation distance between the PDFs of two distributions:
/// 0 = identical, 1 = disjoint. Quantifies the error the privacy protocol
/// introduces into the #Users distribution (Figure 2).
[[nodiscard]] double total_variation(const UsersDistribution& a,
                                     const UsersDistribution& b);

}  // namespace eyw::core
