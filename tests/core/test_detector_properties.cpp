// Property-style sweeps over the detector: invariants that must hold for
// any random impression stream.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/global_view.hpp"
#include "core/local_detector.hpp"
#include "util/rng.hpp"

namespace eyw::core {
namespace {

class DetectorProperties : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DetectorProperties, DomainsCountMatchesNaiveRecount) {
  util::Rng rng(GetParam());
  LocalDetector det;
  std::map<AdId, std::map<DomainId, Day>> naive;
  Day day = 0;
  for (int i = 0; i < 400; ++i) {
    if (rng.chance(0.1)) ++day;
    const AdId ad = rng.below(20);
    const auto domain = static_cast<DomainId>(rng.below(15));
    det.observe(ad, domain, day);
    naive[ad][domain] = day;
  }
  // Recount with identical expiry semantics.
  const Day cutoff = day + 1 >= 7 ? day + 1 - 7 : 0;
  for (const auto& [ad, domains] : naive) {
    std::size_t live = 0;
    for (const auto& [domain, last] : domains) live += last >= cutoff;
    EXPECT_EQ(det.domains_for(ad), live) << "ad " << ad;
  }
}

TEST_P(DetectorProperties, ThresholdWithinDistributionRange) {
  util::Rng rng(GetParam() ^ 1);
  LocalDetector det;
  for (int i = 0; i < 300; ++i) {
    det.observe(rng.below(30), static_cast<DomainId>(rng.below(12)), 0);
  }
  std::vector<std::uint32_t> dist;
  for (const AdId ad : det.ads_in_window()) dist.push_back(det.domains_for(ad));
  ASSERT_FALSE(dist.empty());
  for (const ThresholdRule rule :
       {ThresholdRule::kMean, ThresholdRule::kMedian}) {
    const double th = det.domains_threshold(rule);
    EXPECT_GE(th, *std::min_element(dist.begin(), dist.end()));
    EXPECT_LE(th, *std::max_element(dist.begin(), dist.end()));
  }
}

TEST_P(DetectorProperties, VerdictMonotoneInUsersCount) {
  // For a fixed ad, raising #Users can only flip targeted -> non-targeted,
  // never the other way.
  util::Rng rng(GetParam() ^ 2);
  LocalDetector det;
  for (int i = 0; i < 200; ++i)
    det.observe(rng.below(25), static_cast<DomainId>(rng.below(10)), 0);
  const double th = 5.0;
  for (AdId ad = 0; ad < 25; ++ad) {
    bool was_targeted = true;
    for (double users = 1; users <= 10; ++users) {
      const bool targeted =
          det.classify(ad, users, th, ThresholdRule::kMean) ==
          Verdict::kTargeted;
      if (!was_targeted) {
        EXPECT_FALSE(targeted);
      }
      was_targeted = targeted;
    }
  }
}

TEST_P(DetectorProperties, ExpiryNeverIncreasesCounters) {
  util::Rng rng(GetParam() ^ 3);
  LocalDetector det;
  Day day = 0;
  for (int i = 0; i < 200; ++i) {
    if (rng.chance(0.02)) ++day;  // non-decreasing days, as in real time
    det.observe(rng.below(25), static_cast<DomainId>(rng.below(10)), day);
  }
  std::map<AdId, std::uint32_t> before;
  for (const AdId ad : det.ads_in_window()) before[ad] = det.domains_for(ad);
  det.advance_to(day + 3);
  for (const auto& [ad, count] : before)
    EXPECT_LE(det.domains_for(ad), count);
  det.advance_to(day + 50);
  EXPECT_TRUE(det.ads_in_window().empty());
  EXPECT_EQ(det.ad_serving_domains(), 0u);
}

TEST_P(DetectorProperties, GlobalCounterIdempotentUnderReplay) {
  util::Rng rng(GetParam() ^ 4);
  GlobalUserCounter once, twice;
  std::vector<std::pair<UserId, AdId>> events;
  for (int i = 0; i < 300; ++i)
    events.emplace_back(static_cast<UserId>(rng.below(20)), rng.below(40));
  for (const auto& [u, a] : events) once.record(u, a);
  for (int rep = 0; rep < 2; ++rep)
    for (const auto& [u, a] : events) twice.record(u, a);
  for (AdId a = 0; a < 40; ++a)
    EXPECT_EQ(once.users_for(a), twice.users_for(a));
}

INSTANTIATE_TEST_SUITE_P(Seeds, DetectorProperties,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10));

}  // namespace
}  // namespace eyw::core
