// Client-side half of the count-based algorithm (Section 4).
//
// A LocalDetector lives inside one user's browser extension. It maintains,
// over a sliding window of `window_days` (7 in the paper):
//   * #Domains(u, a) — distinct domains where this user saw ad a,
//   * the set of ad-serving domains the user visited (min-data rule),
//   * Domains_th(u) — the threshold derived from this user's own per-ad
//     domain-count distribution (Section 4.2; per-user, updated locally in
//     real time). The distribution is kept as a histogram that changes only
//     where an (ad, domain) pair enters or leaves the window, and the
//     threshold is read off it by the routine the server applies to the
//     #Users histogram.
// The global inputs (#Users(a), Users_th) arrive from the back-end server.
// The threshold rule is an argument of classification, not detector state:
// the same window answers every rule.
#pragma once

#include <map>
#include <vector>

#include "core/thresholds.hpp"
#include "core/types.hpp"

namespace eyw::core {

struct DetectorConfig {
  /// Minimum ad-serving domains visited within the window before the
  /// algorithm makes any guess (paper: 4 within the last 7 days).
  std::uint32_t min_ad_serving_domains = 4;
  Day window_days = 7;
};

class LocalDetector {
 public:
  explicit LocalDetector(DetectorConfig config = {});

  /// Record an impression of ad `ad` on domain `domain` at day `day`.
  /// Days must be non-decreasing across calls.
  void observe(AdId ad, DomainId domain, Day day);

  /// Move local time forward (expires window state). Idempotent; days must
  /// be non-decreasing.
  void advance_to(Day today);

  /// #Domains(u, a) within the current window.
  [[nodiscard]] std::uint32_t domains_for(AdId ad) const noexcept;

  /// Distinct ad-serving domains visited within the window.
  [[nodiscard]] std::uint32_t ad_serving_domains() const noexcept;

  /// True when the min-data rule is satisfied.
  [[nodiscard]] bool has_sufficient_data() const noexcept;

  /// Domains_th(u) under `rule`, over the ads in the window.
  [[nodiscard]] double domains_threshold(ThresholdRule rule) const;

  /// Full classification: targeted iff
  ///   #Domains(u, a) > Domains_th(u)  AND  users_count < users_threshold.
  /// `users_count` is the (possibly CMS-estimated) #Users(a) distributed by
  /// the back-end; `users_threshold` is the global Users_th, which the
  /// back-end derived under the same `rule`.
  [[nodiscard]] Verdict classify(AdId ad, double users_count,
                                 double users_threshold,
                                 ThresholdRule rule) const;

  /// Ads currently inside the window.
  [[nodiscard]] std::vector<AdId> ads_in_window() const;

  [[nodiscard]] const DetectorConfig& config() const noexcept { return config_; }
  [[nodiscard]] Day today() const noexcept { return today_; }

 private:
  void expire() noexcept;
  /// Move one ad from the bin of `from` domains to the bin of `to`
  /// (0: no bin, the ad is not in the window).
  void rebin(std::size_t from, std::size_t to);

  DetectorConfig config_;
  Day today_ = 0;
  // First day inside the window as of the last expiry scan.
  Day window_start_ = 0;
  // ad -> (domain -> last day the pair was seen). Entries expire when their
  // last sighting leaves the window.
  std::map<AdId, std::map<DomainId, Day>> seen_;
  // domain -> last day this user visited it (ad-serving domains only).
  std::map<DomainId, Day> visited_domains_;
  // The #Domains histogram, dense: bin k-1 holds the ads of seen_ with k
  // domains, and may weigh 0.
  std::vector<UsersBin> domains_histogram_;
};

}  // namespace eyw::core
