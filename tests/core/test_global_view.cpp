#include "core/global_view.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "../oracle/sample_detector.hpp"
#include "core/thresholds.hpp"

namespace eyw::core {
namespace {

TEST(GlobalUserCounter, DistinctUserCounting) {
  GlobalUserCounter c;
  c.record(1, 100);
  c.record(2, 100);
  c.record(1, 100);  // duplicate sighting: idempotent
  c.record(3, 200);
  EXPECT_EQ(c.users_for(100), 2u);
  EXPECT_EQ(c.users_for(200), 1u);
  EXPECT_EQ(c.users_for(999), 0u);
  EXPECT_EQ(c.distinct_ads(), 2u);
}

TEST(GlobalUserCounter, DistributionHasOneEntryPerAd) {
  GlobalUserCounter c;
  c.record(1, 100);
  c.record(2, 100);
  c.record(1, 200);
  const UsersDistribution dist = c.distribution();
  ASSERT_EQ(dist.size(), 2u);
  // Ad 200 seen by one user, ad 100 by two.
  EXPECT_EQ(dist.histogram(),
            (std::vector<UsersBin>{{.value = 1, .weight = 1},
                                   {.value = 2, .weight = 1}}));
}

TEST(GlobalUserCounter, ClearResets) {
  GlobalUserCounter c;
  c.record(1, 100);
  c.clear();
  EXPECT_EQ(c.distinct_ads(), 0u);
  EXPECT_EQ(c.users_for(100), 0u);
}

/// The distribution of per-ad #Users counts, tallied one ad at a time.
UsersDistribution tallied(const std::vector<std::uint32_t>& counts) {
  UsersTally tally;
  for (const std::uint32_t c : counts) tally.add(c);
  return tally.finish();
}

TEST(UsersDistribution, ThresholdIsMeanOfCounts) {
  EXPECT_DOUBLE_EQ(tallied({1, 2, 3, 4}).threshold(ThresholdRule::kMean), 2.5);
}

TEST(UsersDistribution, EmptyIsSafe) {
  const UsersDistribution d = GlobalUserCounter{}.distribution();
  EXPECT_TRUE(d.empty());
  EXPECT_DOUBLE_EQ(d.threshold(ThresholdRule::kMean), 0.0);
}

TEST(UsersDistribution, HistogramMatchesCounts) {
  const auto d = tallied({3, 2, 2});
  EXPECT_EQ(d.histogram(), (std::vector<UsersBin>{{.value = 2, .weight = 2},
                                                   {.value = 3, .weight = 1}}));
  EXPECT_EQ(d.size(), 3u);
}

TEST(UsersTally, GrowsPastItsSizeHintAndSumsWeights) {
  // Start from the smallest table; 5000 distinct values force it to grow
  // repeatedly, and every value arrives twice so weights must add up.
  UsersTally tally;
  std::vector<UsersBin> expected;
  for (std::uint32_t v = 1; v <= 5000; ++v) {
    tally.add(v, v % 7 + 1);
    expected.push_back({.value = v, .weight = v % 7 + 2});
  }
  for (std::uint32_t v = 5000; v >= 1; --v) tally.add(v);
  EXPECT_EQ(tally.bins().size(), 5000u);
  EXPECT_EQ(tally.finish(), UsersDistribution::from_bins(expected));
  EXPECT_TRUE(UsersTally{}.finish().empty());
}

TEST(UsersDistribution, FromBinsRefusesMalformedHistograms) {
  const auto refused = [](std::vector<UsersBin> bins) {
    try {
      (void)UsersDistribution::from_bins(std::move(bins));
    } catch (const std::invalid_argument&) {
      return true;
    }
    return false;
  };
  EXPECT_TRUE(refused({{.value = 0, .weight = 1}}));
  EXPECT_TRUE(refused({{.value = 2, .weight = 0}}));
  EXPECT_TRUE(refused({{.value = 3, .weight = 1}, {.value = 2, .weight = 1}}));
  EXPECT_TRUE(refused({{.value = 2, .weight = 1}, {.value = 2, .weight = 1}}));
  EXPECT_TRUE(refused({{.value = 1, .weight = ~std::uint64_t{0}},
                       {.value = 2, .weight = 1}}));
  EXPECT_FALSE(refused({}));
  EXPECT_FALSE(refused({{.value = 1, .weight = 5}, {.value = 9, .weight = 1}}));
}

TEST(UsersDistribution, ThresholdsMatchTheExpandedSample) {
  // Mean and median from the histogram equal the sample oracle over the
  // expanded sample bit for bit; the stddev term agrees to a few ulp.
  const std::vector<std::uint32_t> odd{7, 1, 3, 3, 9, 1, 1, 4, 3, 12, 2};
  const std::vector<std::uint32_t> even(odd.begin(), odd.end() - 1);
  const auto d = tallied(odd);
  const auto d_even = tallied(even);
  const std::vector<double> counts(odd.begin(), odd.end());
  const std::vector<double> even_counts(even.begin(), even.end());
  for (const ThresholdRule rule :
       {ThresholdRule::kMean, ThresholdRule::kMedian,
        ThresholdRule::kMeanPlusMedian}) {
    EXPECT_EQ(d.threshold(rule), oracle::sample_threshold(counts, rule));
    EXPECT_EQ(d_even.threshold(rule),
              oracle::sample_threshold(even_counts, rule));
  }
  EXPECT_NEAR(d.threshold(ThresholdRule::kMeanPlusStddev),
              oracle::sample_threshold(counts, ThresholdRule::kMeanPlusStddev),
              1e-12);
}

TEST(UsersDistribution, MedianAndMeanRulesDiffer) {
  const auto d = tallied({1, 1, 1, 1, 16});
  EXPECT_DOUBLE_EQ(d.threshold(ThresholdRule::kMedian), 1.0);
  EXPECT_DOUBLE_EQ(d.threshold(ThresholdRule::kMean), 4.0);
}

TEST(UsersDistribution, PdfIsWeightShare) {
  const auto d = tallied({1, 1, 1, 4});
  EXPECT_DOUBLE_EQ(d.pdf(1), 0.75);
  EXPECT_DOUBLE_EQ(d.pdf(4), 0.25);
  EXPECT_DOUBLE_EQ(d.pdf(2), 0.0);
  EXPECT_DOUBLE_EQ(UsersDistribution{}.pdf(1), 0.0);
}

TEST(TotalVariation, IdenticalShapeIsZero) {
  const auto a = UsersDistribution::from_bins({{1, 2}, {2, 2}, {5, 2}});
  const auto b = UsersDistribution::from_bins({{1, 4}, {2, 4}, {5, 4}});
  EXPECT_NEAR(total_variation(a, b), 0.0, 1e-12);
}

TEST(TotalVariation, DisjointIsOne) {
  const auto a = UsersDistribution::from_bins({{1, 5}});
  const auto b = UsersDistribution::from_bins({{2, 5}});
  EXPECT_NEAR(total_variation(a, b), 1.0, 1e-12);
}

TEST(TotalVariation, SymmetricAndExact) {
  const auto a = UsersDistribution::from_bins({{1, 3}, {2, 1}});
  const auto b = UsersDistribution::from_bins({{1, 1}, {3, 3}});
  // |3/4 - 1/4| + |1/4 - 0| + |0 - 3/4|, halved.
  EXPECT_DOUBLE_EQ(total_variation(a, b), 0.75);
  EXPECT_DOUBLE_EQ(total_variation(b, a), 0.75);
}

TEST(UsersDistribution, EndToEndWithCounter) {
  GlobalUserCounter c;
  // Ad 1 seen by 3 users, ad 2 by 1 user.
  c.record(1, 1);
  c.record(2, 1);
  c.record(3, 1);
  c.record(1, 2);
  EXPECT_DOUBLE_EQ(c.distribution().threshold(ThresholdRule::kMean), 2.0);
}

}  // namespace
}  // namespace eyw::core
