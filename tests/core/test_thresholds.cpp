#include "core/thresholds.hpp"

#include "util/rng.hpp"

#include <gtest/gtest.h>

namespace eyw::core {
namespace {

const std::vector<double> kDist{1, 2, 2, 3, 4, 6};

TEST(Thresholds, Mean) {
  EXPECT_DOUBLE_EQ(estimate_threshold(kDist, ThresholdRule::kMean), 3.0);
}

TEST(Thresholds, Median) {
  EXPECT_DOUBLE_EQ(estimate_threshold(kDist, ThresholdRule::kMedian), 2.5);
}

TEST(Thresholds, MeanPlusMedian) {
  EXPECT_DOUBLE_EQ(
      estimate_threshold(kDist, ThresholdRule::kMeanPlusMedian), 5.5);
}

TEST(Thresholds, MeanPlusStddevAboveMean) {
  const double t = estimate_threshold(kDist, ThresholdRule::kMeanPlusStddev);
  EXPECT_GT(t, 3.0);
}

TEST(Thresholds, EmptyDistributionIsZero) {
  for (const auto rule :
       {ThresholdRule::kMean, ThresholdRule::kMedian,
        ThresholdRule::kMeanPlusMedian, ThresholdRule::kMeanPlusStddev}) {
    EXPECT_DOUBLE_EQ(estimate_threshold(std::vector<double>{}, rule), 0.0);
  }
}

TEST(Thresholds, SingleElement) {
  const std::vector<double> one{5.0};
  EXPECT_DOUBLE_EQ(estimate_threshold(one, ThresholdRule::kMean), 5.0);
  EXPECT_DOUBLE_EQ(estimate_threshold(one, ThresholdRule::kMedian), 5.0);
  EXPECT_DOUBLE_EQ(estimate_threshold(one, ThresholdRule::kMeanPlusMedian),
                   10.0);
  EXPECT_DOUBLE_EQ(estimate_threshold(one, ThresholdRule::kMeanPlusStddev),
                   5.0);
}

TEST(Thresholds, HistogramAgreesWithTheExpandedSample) {
  // kDist as (value, weight) bins: one rule, two representations.
  const std::vector<UsersBin> bins{
      {.value = 1, .weight = 1}, {.value = 2, .weight = 2},
      {.value = 3, .weight = 1}, {.value = 4, .weight = 1},
      {.value = 6, .weight = 1}};
  for (const auto rule :
       {ThresholdRule::kMean, ThresholdRule::kMedian,
        ThresholdRule::kMeanPlusMedian}) {
    EXPECT_EQ(estimate_threshold(bins, rule), estimate_threshold(kDist, rule))
        << to_string(rule);
  }
  EXPECT_NEAR(estimate_threshold(bins, ThresholdRule::kMeanPlusStddev),
              estimate_threshold(kDist, ThresholdRule::kMeanPlusStddev),
              1e-12);
  EXPECT_EQ(estimate_threshold(std::vector<UsersBin>{}, ThresholdRule::kMean),
            0.0);
}

// Mean+Median is always at least Mean for non-negative samples, which is
// why Figure 3 shows it trading extra repetitions for fewer false negatives.
class ThresholdOrdering : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ThresholdOrdering, StricterRulesNeedMoreRepetitions) {
  util::Rng rng = util::Rng(GetParam());
  std::vector<double> dist;
  for (int i = 0; i < 50; ++i)
    dist.push_back(1.0 + static_cast<double>(rng.below(10)));
  const double mean_th = estimate_threshold(dist, ThresholdRule::kMean);
  const double mm_th =
      estimate_threshold(dist, ThresholdRule::kMeanPlusMedian);
  const double ms_th =
      estimate_threshold(dist, ThresholdRule::kMeanPlusStddev);
  EXPECT_GE(mm_th, mean_th);
  EXPECT_GE(ms_th, mean_th);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ThresholdOrdering,
                         ::testing::Values(1, 7, 42, 1337, 9999));

TEST(Thresholds, ToStringCoversAllRules) {
  EXPECT_STREQ(to_string(ThresholdRule::kMean), "Mean");
  EXPECT_STREQ(to_string(ThresholdRule::kMedian), "Median");
  EXPECT_STREQ(to_string(ThresholdRule::kMeanPlusMedian), "Mean+Median");
  EXPECT_STREQ(to_string(ThresholdRule::kMeanPlusStddev), "Mean+Stddev");
}

TEST(Verdict, ToString) {
  EXPECT_STREQ(to_string(Verdict::kTargeted), "targeted");
  EXPECT_STREQ(to_string(Verdict::kNonTargeted), "non-targeted");
  EXPECT_STREQ(to_string(Verdict::kInsufficientData), "insufficient-data");
}

}  // namespace
}  // namespace eyw::core
