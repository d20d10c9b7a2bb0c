// The browser-extension model (Section 5): everything that runs on the
// user's device. Holds the local half of the count-based detector, the
// URL->ad-ID mapping cache, and the weekly count-min-sketch reporting.
#pragma once

#include <cstdint>
#include <set>
#include <string>

#include "client/url_mapper.hpp"
#include "core/local_detector.hpp"
#include "crypto/blinding.hpp"
#include "sketch/count_min.hpp"

namespace eyw::client {

struct ExtensionConfig {
  core::DetectorConfig detector;
  sketch::CmsParams cms_params;
  /// Shared CMS hash seed (distributed by the back-end with the params).
  std::uint64_t cms_hash_seed = 0;
};

class BrowserExtension {
 public:
  /// `mapper` must outlive the extension.
  BrowserExtension(core::UserId user, ExtensionConfig config,
                   UrlMapper& mapper);

  /// Record one rendered ad: `identity` is the landing URL or content key
  /// the ad-detection pipeline produced for it.
  void observe_ad(std::string_view identity, core::DomainId domain,
                  core::Day day);

  /// Advance local time (expires detector window state).
  void advance_to(core::Day day);

  /// CMS over the ads seen in the current reporting period — one update per
  /// unique ad, since the back-end counts *users per ad*.
  [[nodiscard]] sketch::CountMinSketch build_sketch() const;

  /// Blinded weekly report: the sketch cells blinded with this user's
  /// additive shares (round = week number).
  [[nodiscard]] std::vector<crypto::BlindCell> build_blinded_report(
      const crypto::BlindingParticipant& blinding, std::uint64_t round) const;

  /// Start a new reporting period (clears the unique-ad set, keeps the
  /// detector's sliding window).
  void start_new_period();

  /// Real-time audit of an ad (Section 4.1 classification): the global
  /// inputs arrive from the back-end, which derived `users_threshold`
  /// under `rule`; Domains_th(u) is derived under the same rule.
  [[nodiscard]] core::Verdict audit(std::string_view identity,
                                    double users_count,
                                    double users_threshold,
                                    core::ThresholdRule rule);

  /// Ad id this extension uses for an identity (maps through the cache).
  [[nodiscard]] std::uint64_t ad_id(std::string_view identity);

  [[nodiscard]] const core::LocalDetector& detector() const noexcept {
    return detector_;
  }
  [[nodiscard]] core::UserId user() const noexcept { return user_; }
  /// Unique ads seen in the current reporting period.
  [[nodiscard]] const std::set<std::uint64_t>& period_ads() const noexcept {
    return period_ads_;
  }

 private:
  core::UserId user_;
  ExtensionConfig config_;
  UrlMapper& mapper_;
  core::LocalDetector detector_;
  std::set<std::uint64_t> period_ads_;
};

}  // namespace eyw::client
