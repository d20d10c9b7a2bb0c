#include "core/thresholds.hpp"

#include "../oracle/sample_detector.hpp"
#include "util/rng.hpp"

#include <gtest/gtest.h>

namespace eyw::core {
namespace {

constexpr ThresholdRule kRules[] = {
    ThresholdRule::kMean, ThresholdRule::kMedian,
    ThresholdRule::kMeanPlusMedian, ThresholdRule::kMeanPlusStddev};

// The sample {1, 2, 2, 3, 4, 6} as (value, weight) bins.
const std::vector<UsersBin> kBins{
    {.value = 1, .weight = 1}, {.value = 2, .weight = 2},
    {.value = 3, .weight = 1}, {.value = 4, .weight = 1},
    {.value = 6, .weight = 1}};

TEST(Thresholds, Mean) {
  EXPECT_DOUBLE_EQ(estimate_threshold(kBins, ThresholdRule::kMean), 3.0);
}

TEST(Thresholds, Median) {
  EXPECT_DOUBLE_EQ(estimate_threshold(kBins, ThresholdRule::kMedian), 2.5);
}

TEST(Thresholds, MeanPlusMedian) {
  EXPECT_DOUBLE_EQ(
      estimate_threshold(kBins, ThresholdRule::kMeanPlusMedian), 5.5);
}

TEST(Thresholds, MeanPlusStddevAboveMean) {
  const double t = estimate_threshold(kBins, ThresholdRule::kMeanPlusStddev);
  EXPECT_GT(t, 3.0);
}

TEST(Thresholds, EmptyDistributionIsZero) {
  for (const auto rule : kRules)
    EXPECT_DOUBLE_EQ(estimate_threshold(std::vector<UsersBin>{}, rule), 0.0);
}

TEST(Thresholds, SingleElement) {
  const std::vector<UsersBin> one{{.value = 5, .weight = 1}};
  EXPECT_DOUBLE_EQ(estimate_threshold(one, ThresholdRule::kMean), 5.0);
  EXPECT_DOUBLE_EQ(estimate_threshold(one, ThresholdRule::kMedian), 5.0);
  EXPECT_DOUBLE_EQ(estimate_threshold(one, ThresholdRule::kMeanPlusMedian),
                   10.0);
  EXPECT_DOUBLE_EQ(estimate_threshold(one, ThresholdRule::kMeanPlusStddev),
                   5.0);
}

TEST(Thresholds, HistogramAgreesWithTheExpandedSample) {
  // One rule, two representations: each histogram against the sample
  // oracle on its expansion. Zero-weight bins stand for no ads, wherever
  // they sit (between, before or after the others): the detector's dense
  // #Domains histogram holds them for counts no ad has at the moment.
  const std::vector<UsersBin> layouts[] = {
      kBins,
      {{.value = 1, .weight = 1}, {.value = 2, .weight = 2},
       {.value = 3, .weight = 1}, {.value = 4, .weight = 1},
       {.value = 5, .weight = 0}, {.value = 6, .weight = 1}},
      {{.value = 1, .weight = 0}, {.value = 2, .weight = 0},
       {.value = 3, .weight = 0}, {.value = 4, .weight = 0},
       {.value = 5, .weight = 0}, {.value = 6, .weight = 0},
       {.value = 7, .weight = 1}, {.value = 8, .weight = 2},
       {.value = 9, .weight = 1}, {.value = 10, .weight = 1},
       {.value = 12, .weight = 1}},
      {{.value = 1, .weight = 1}, {.value = 2, .weight = 2},
       {.value = 3, .weight = 1}, {.value = 4, .weight = 1},
       {.value = 6, .weight = 1}, {.value = 7, .weight = 0},
       {.value = 8, .weight = 0}}};
  for (const std::vector<UsersBin>& bins : layouts) {
    std::vector<UsersBin> packed;
    std::vector<double> sample;
    for (const UsersBin& b : bins) {
      if (b.weight != 0) packed.push_back(b);
      sample.insert(sample.end(), b.weight, b.value);
    }
    for (const auto rule : kRules) {
      SCOPED_TRACE(to_string(rule));
      const double t = estimate_threshold(bins, rule);
      EXPECT_EQ(t, estimate_threshold(packed, rule));
      if (rule == ThresholdRule::kMeanPlusStddev)
        EXPECT_NEAR(t, oracle::sample_threshold(sample, rule), 1e-12);
      else
        EXPECT_EQ(t, oracle::sample_threshold(sample, rule));
    }
  }
  const std::vector<UsersBin> all_zero{{.value = 1, .weight = 0},
                                       {.value = 2, .weight = 0},
                                       {.value = 3, .weight = 0}};
  for (const auto rule : kRules)
    EXPECT_EQ(estimate_threshold(all_zero, rule), 0.0) << to_string(rule);
}

// Mean+Median is always at least Mean for non-negative samples, which is
// why Figure 3 shows it trading extra repetitions for fewer false negatives.
class ThresholdOrdering : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ThresholdOrdering, StricterRulesNeedMoreRepetitions) {
  util::Rng rng = util::Rng(GetParam());
  // A dense histogram over 1..10, as the detector keeps it: a value no
  // draw hits keeps a bin of weight 0.
  std::vector<UsersBin> dist;
  for (std::uint32_t v = 1; v <= 10; ++v) dist.push_back({.value = v});
  for (int i = 0; i < 50; ++i) ++dist[rng.below(10)].weight;
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
