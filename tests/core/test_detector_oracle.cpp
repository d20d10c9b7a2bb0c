// The LocalDetector against the sample path it replaced
// (tests/oracle/sample_detector.hpp), side by side on seeded impression
// streams: single-day bursts, runs of consecutive days and jumps past the
// window. After every step both must agree on #Domains of every ad, on the
// ad-serving domains and the min-data rule, on Domains_th(u) (bit for bit
// under Mean, Median and Mean+Median, within 16 ulp under Mean+Stddev,
// whose sample form sums squared deviations in double) and on every verdict
// under all four rules. run_detection's one pass over a world must match
// one oracle pass per rule, verdict by verdict.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <ostream>
#include <vector>

#include "../oracle/sample_detector.hpp"
#include "analysis/detection_experiment.hpp"
#include "core/local_detector.hpp"
#include "simulator/engine.hpp"
#include "util/rng.hpp"

namespace eyw::core {
namespace {

constexpr ThresholdRule kRules[] = {
    ThresholdRule::kMean, ThresholdRule::kMedian,
    ThresholdRule::kMeanPlusMedian, ThresholdRule::kMeanPlusStddev};
constexpr AdId kAds = 30;

std::uint64_t ulp_distance(double a, double b) {
  const auto ia = std::bit_cast<std::int64_t>(a);
  const auto ib = std::bit_cast<std::int64_t>(b);
  return ia > ib ? static_cast<std::uint64_t>(ia - ib)
                 : static_cast<std::uint64_t>(ib - ia);
}

void expect_same_state(const LocalDetector& det,
                       const oracle::SampleDetector& ref) {
  for (AdId ad = 0; ad < kAds; ++ad)
    ASSERT_EQ(det.domains_for(ad), ref.domains_for(ad)) << "ad " << ad;
  ASSERT_EQ(det.ad_serving_domains(), ref.ad_serving_domains());
  ASSERT_EQ(det.has_sufficient_data(), ref.has_sufficient_data());
  for (const ThresholdRule rule : kRules) {
    SCOPED_TRACE(to_string(rule));
    const double got = det.domains_threshold(rule);
    const double want = ref.domains_threshold(rule);
    if (rule == ThresholdRule::kMeanPlusStddev)
      ASSERT_LE(ulp_distance(got, want), 16u) << got << " vs " << want;
    else
      ASSERT_EQ(std::bit_cast<std::uint64_t>(got),
                std::bit_cast<std::uint64_t>(want))
          << got << " vs " << want;
    for (AdId ad = 0; ad < kAds; ++ad)
      ASSERT_EQ(det.classify(ad, 1.0, 2.0, rule),
                ref.classify(ad, 1.0, 2.0, rule))
          << "ad " << ad;
  }
}

struct StreamCase {
  std::uint64_t seed;
  DetectorConfig config;
};

void PrintTo(const StreamCase& c, std::ostream* os) {
  *os << "seed " << c.seed << ", window " << c.config.window_days
      << ", min domains " << c.config.min_ad_serving_domains;
}

class DetectorOracleStreams
    : public ::testing::TestWithParam<StreamCase> {};

TEST_P(DetectorOracleStreams, EveryStepMatchesTheSampleDetector) {
  const StreamCase& c = GetParam();
  util::Rng rng(c.seed);
  LocalDetector det(c.config);
  oracle::SampleDetector ref(c.config);
  // Each stream mixes three regimes: long single-day bursts, a day at a
  // time for weeks, and jumps that empty the window.
  const double next_day = 0.02 + 0.2 * rng.uniform();
  Day day = 0;
  for (int step = 0; step < 400; ++step) {
    SCOPED_TRACE(testing::Message() << "step " << step << " day " << day);
    if (rng.chance(0.01))
      day += c.config.window_days + static_cast<Day>(rng.below(20));
    else if (rng.chance(next_day))
      day += 1 + static_cast<Day>(rng.below(2));
    if (rng.chance(0.05)) {
      det.advance_to(day);
      ref.advance_to(day);
    } else {
      const AdId ad = rng.below(kAds);
      const auto domain = static_cast<DomainId>(rng.below(12));
      det.observe(ad, domain, day);
      ref.observe(ad, domain, day);
    }
    expect_same_state(det, ref);
    if (HasFatalFailure()) return;
  }
}

std::vector<StreamCase> stream_cases() {
  const DetectorConfig configs[] = {
      {},
      {.min_ad_serving_domains = 1, .window_days = 1},
      {.min_ad_serving_domains = 2, .window_days = 3},
      {.min_ad_serving_domains = 6, .window_days = 14}};
  std::vector<StreamCase> out;
  for (std::uint64_t seed = 1; seed <= 12; ++seed)
    for (const DetectorConfig& config : configs)
      out.push_back({.seed = seed, .config = config});
  return out;
}

INSTANTIATE_TEST_SUITE_P(Seeds, DetectorOracleStreams,
                         ::testing::ValuesIn(stream_cases()));

TEST(DetectorOracle, OnePassMatchesOneOraclePassPerRule) {
  sim::SimConfig cfg;
  cfg.num_users = 40;
  cfg.num_websites = 60;
  cfg.num_campaigns = 40;
  cfg.ads_per_website = 8;
  cfg.avg_user_visits = 40;
  cfg.pct_targeted_ads = 0.2;
  cfg.audience_cohort = 0.5;
  cfg.frequency_cap = 4;
  cfg.weeks = 3;  // so that sightings leave the 7-day window
  cfg.seed = 2718;
  const sim::SimResult sim = sim::simulate(cfg);
  const std::vector<analysis::DetectionOutcome> got =
      analysis::run_detection(sim, kRules);
  ASSERT_EQ(got.size(), std::size(kRules));
  for (std::size_t r = 0; r < std::size(kRules); ++r) {
    SCOPED_TRACE(to_string(kRules[r]));
    const analysis::DetectionOutcome want =
        oracle::sample_detection(sim, kRules[r]);
    EXPECT_EQ(got[r].users_distribution, want.users_distribution);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got[r].users_threshold),
              std::bit_cast<std::uint64_t>(want.users_threshold));
    ASSERT_EQ(got[r].verdicts.size(), want.verdicts.size());
    std::size_t targeted = 0;
    for (std::size_t i = 0; i < want.verdicts.size(); ++i) {
      const analysis::PairVerdict& a = got[r].verdicts[i];
      const analysis::PairVerdict& b = want.verdicts[i];
      ASSERT_EQ(a.user, b.user) << i;
      ASSERT_EQ(a.ad, b.ad) << i;
      ASSERT_EQ(a.verdict, b.verdict) << i;
      ASSERT_EQ(a.ground_truth_targeted, b.ground_truth_targeted) << i;
      targeted += a.verdict == Verdict::kTargeted;
    }
    EXPECT_GT(targeted, 0u);
    EXPECT_EQ(got[r].confusion.tp, want.confusion.tp);
    EXPECT_EQ(got[r].confusion.fp, want.confusion.fp);
    EXPECT_EQ(got[r].confusion.tn, want.confusion.tn);
    EXPECT_EQ(got[r].confusion.fn, want.confusion.fn);
    EXPECT_EQ(got[r].confusion.abstained, want.confusion.abstained);
  }
}

TEST(DetectorOracle, ServedDistributionSetsEachRulesUsersThreshold) {
  sim::SimConfig cfg;
  cfg.num_users = 20;
  cfg.num_websites = 40;
  cfg.num_campaigns = 20;
  cfg.avg_user_visits = 20;
  cfg.seed = 31;
  const sim::SimResult sim = sim::simulate(cfg);
  const UsersDistribution served = UsersDistribution::from_bins(
      {{.value = 1, .weight = 3}, {.value = 7, .weight = 1}});
  const auto got = analysis::run_detection(sim, kRules, &served);
  const auto exact = analysis::run_detection(sim, kRules);
  for (std::size_t r = 0; r < std::size(kRules); ++r) {
    EXPECT_EQ(got[r].users_threshold, served.threshold(kRules[r]));
    EXPECT_EQ(got[r].users_distribution, exact[r].users_distribution);
  }
}

}  // namespace
}  // namespace eyw::core
