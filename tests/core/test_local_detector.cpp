#include "core/local_detector.hpp"

#include <gtest/gtest.h>

namespace eyw::core {
namespace {

TEST(LocalDetector, StartsEmpty) {
  LocalDetector d;
  EXPECT_EQ(d.ad_serving_domains(), 0u);
  EXPECT_EQ(d.domains_for(1), 0u);
  EXPECT_FALSE(d.has_sufficient_data());
  EXPECT_TRUE(d.ads_in_window().empty());
}

TEST(LocalDetector, CountsDistinctDomainsPerAd) {
  LocalDetector d;
  d.observe(/*ad=*/1, /*domain=*/10, /*day=*/0);
  d.observe(1, 11, 0);
  d.observe(1, 11, 1);  // repeat domain: not counted twice
  d.observe(1, 12, 2);
  EXPECT_EQ(d.domains_for(1), 3u);
}

TEST(LocalDetector, SeparateAdsSeparateCounters) {
  LocalDetector d;
  d.observe(1, 10, 0);
  d.observe(2, 10, 0);
  d.observe(2, 11, 0);
  EXPECT_EQ(d.domains_for(1), 1u);
  EXPECT_EQ(d.domains_for(2), 2u);
}

TEST(LocalDetector, MinDataRuleAtFourDomains) {
  LocalDetector d;  // default min_ad_serving_domains = 4
  d.observe(1, 10, 0);
  d.observe(2, 11, 0);
  d.observe(3, 12, 0);
  EXPECT_FALSE(d.has_sufficient_data());
  d.observe(4, 13, 0);
  EXPECT_TRUE(d.has_sufficient_data());
}

TEST(LocalDetector, InsufficientDataVerdict) {
  LocalDetector d;
  d.observe(1, 10, 0);
  EXPECT_EQ(d.classify(1, /*users=*/1, /*users_th=*/5, ThresholdRule::kMean),
            Verdict::kInsufficientData);
}

TEST(LocalDetector, WindowExpiryDropsOldImpressions) {
  LocalDetector d;  // 7-day window
  d.observe(1, 10, 0);
  d.observe(1, 11, 0);
  EXPECT_EQ(d.domains_for(1), 2u);
  d.advance_to(6);  // day 0 still inside [0..6]
  EXPECT_EQ(d.domains_for(1), 2u);
  d.advance_to(7);  // window is now [1..7]: day-0 sightings expire
  EXPECT_EQ(d.domains_for(1), 0u);
}

TEST(LocalDetector, ResightingRefreshesExpiry) {
  LocalDetector d;
  d.observe(1, 10, 0);
  d.observe(1, 10, 5);  // same pair re-seen later
  d.advance_to(8);      // day-0 would expire, day-5 survives
  EXPECT_EQ(d.domains_for(1), 1u);
}

TEST(LocalDetector, AdServingDomainsExpireToo) {
  LocalDetector d;
  d.observe(1, 10, 0);
  d.observe(2, 11, 0);
  d.observe(3, 12, 0);
  d.observe(4, 13, 0);
  EXPECT_TRUE(d.has_sufficient_data());
  d.advance_to(10);
  EXPECT_FALSE(d.has_sufficient_data());
  EXPECT_EQ(d.ad_serving_domains(), 0u);
}

TEST(LocalDetector, RejectsTimeTravel) {
  LocalDetector d;
  d.observe(1, 10, 5);
  EXPECT_THROW(d.observe(1, 10, 4), std::invalid_argument);
  EXPECT_THROW(d.advance_to(1), std::invalid_argument);
}

TEST(LocalDetector, DomainThresholdIsMeanByDefault) {
  LocalDetector d;
  // Ad 1 on 3 domains, ad 2 on 1 domain: distribution {3, 1}, mean 2.
  d.observe(1, 10, 0);
  d.observe(1, 11, 0);
  d.observe(1, 12, 0);
  d.observe(2, 13, 0);
  EXPECT_DOUBLE_EQ(d.domains_threshold(ThresholdRule::kMean), 2.0);
}

TEST(LocalDetector, ClassifyTargetedWhenBothConditionsHold) {
  LocalDetector d;
  d.observe(1, 10, 0);
  d.observe(1, 11, 0);
  d.observe(1, 12, 0);
  d.observe(2, 13, 0);  // distribution {3,1}: threshold 2
  // Ad 1: 3 domains >= 2, and seen by few users (1 <= 2.5).
  EXPECT_EQ(d.classify(1, 1, 2.5, ThresholdRule::kMean), Verdict::kTargeted);
}

TEST(LocalDetector, ClassifyNonTargetedWhenSeenByMany) {
  LocalDetector d;
  d.observe(1, 10, 0);
  d.observe(1, 11, 0);
  d.observe(1, 12, 0);
  d.observe(2, 13, 0);
  // Popular ad: users 50 > threshold 2.5.
  EXPECT_EQ(d.classify(1, 50, 2.5, ThresholdRule::kMean),
            Verdict::kNonTargeted);
}

TEST(LocalDetector, ClassifyNonTargetedWhenNotFollowing) {
  LocalDetector d;
  d.observe(1, 10, 0);
  d.observe(1, 11, 0);
  d.observe(1, 12, 0);
  d.observe(2, 13, 0);
  // Ad 2 appears on 1 domain < threshold 2: not "following" the user.
  EXPECT_EQ(d.classify(2, 1, 2.5, ThresholdRule::kMean), Verdict::kNonTargeted);
}

TEST(LocalDetector, UnseenAdNeverTargeted) {
  LocalDetector d;
  d.observe(1, 10, 0);
  d.observe(2, 11, 0);
  d.observe(3, 12, 0);
  d.observe(4, 13, 0);
  EXPECT_EQ(d.classify(/*ad=*/999, 0, 10, ThresholdRule::kMean),
            Verdict::kNonTargeted);
}

TEST(LocalDetector, ConfigurableMinDomains) {
  LocalDetector d({.min_ad_serving_domains = 2});
  d.observe(1, 10, 0);
  EXPECT_FALSE(d.has_sufficient_data());
  d.observe(1, 11, 0);
  EXPECT_TRUE(d.has_sufficient_data());
}

TEST(LocalDetector, ConfigurableWindow) {
  LocalDetector d({.window_days = 2});
  d.observe(1, 10, 0);
  d.advance_to(1);
  EXPECT_EQ(d.domains_for(1), 1u);  // window [0..1]
  d.advance_to(2);                  // window [1..2]
  EXPECT_EQ(d.domains_for(1), 0u);
}

TEST(LocalDetector, RejectsZeroWindow) {
  EXPECT_THROW(LocalDetector({.window_days = 0}), std::invalid_argument);
}

TEST(LocalDetector, AdsInWindowListsLiveAds) {
  LocalDetector d;
  d.observe(5, 10, 0);
  d.observe(9, 11, 3);
  d.advance_to(8);  // ad 5 (day 0) expired, ad 9 (day 3) alive
  const auto ads = d.ads_in_window();
  ASSERT_EQ(ads.size(), 1u);
  EXPECT_EQ(ads[0], 9u);
}

TEST(LocalDetector, MeanPlusMedianRuleRaisesBar) {
  LocalDetector d;
  d.observe(1, 10, 0);
  d.observe(1, 11, 0);
  d.observe(1, 12, 0);
  d.observe(2, 13, 0);
  // Distribution {3, 1}: mean 2 + median 2 = 4 > 3 domains: not targeted,
  // though the same window under the mean rule says targeted.
  EXPECT_EQ(d.classify(1, 1, 2.5, ThresholdRule::kMeanPlusMedian),
            Verdict::kNonTargeted);
  EXPECT_EQ(d.classify(1, 1, 2.5, ThresholdRule::kMean), Verdict::kTargeted);
}

}  // namespace
}  // namespace eyw::core
