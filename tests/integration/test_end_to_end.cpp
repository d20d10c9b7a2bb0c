// Integration tests: whole-pipeline properties that span simulator, core,
// client, server, and analysis.
#include <gtest/gtest.h>

#include "analysis/detection_experiment.hpp"
#include "client/extension.hpp"
#include "server/round.hpp"
#include "simulator/engine.hpp"

namespace eyw {
namespace {

constexpr core::ThresholdRule kMean[] = {core::ThresholdRule::kMean};

sim::SimConfig tiny_world(std::uint32_t cap) {
  sim::SimConfig cfg;
  cfg.num_users = 60;
  cfg.num_websites = 80;
  cfg.num_campaigns = 50;
  cfg.ads_per_website = 8;
  cfg.avg_user_visits = 50;
  cfg.pct_targeted_ads = 0.2;
  // Small panel: open the cohorts up so every campaign reaches a couple of
  // panelists and ground-truth positives exist.
  cfg.audience_cohort = 0.5;
  cfg.frequency_cap = cap;
  cfg.seed = 4321;
  return cfg;
}

TEST(EndToEnd, FalsePositivesStayNearZero) {
  const auto sim = sim::simulate(tiny_world(6));
  const auto out = analysis::run_detection(sim, kMean).front();
  EXPECT_LT(out.confusion.false_positive_rate(), 0.02);
  EXPECT_GT(out.confusion.decided(), 1000u);
}

TEST(EndToEnd, DetectionImprovesWithFrequencyCap) {
  // Detected share of ground-truth targeted pairs (abstentions count as
  // undetected: an unclassifiable ad is never flagged).
  const auto detected_at = [](std::uint32_t cap) {
    const auto sim = sim::simulate(tiny_world(cap));
    std::size_t positives = 0;
    for (const auto& [pair, targeted] : sim.targeted_pair)
      positives += targeted;
    const auto out = analysis::run_detection(sim, kMean).front();
    return positives == 0 ? 0.0
                          : static_cast<double>(out.confusion.tp) /
                                static_cast<double>(positives);
  };
  const double d1 = detected_at(1);
  const double d8 = detected_at(8);
  EXPECT_LT(d1, 0.2);  // one appearance is (nearly) undetectable
  EXPECT_GT(d8, d1 + 0.5);
}

TEST(EndToEnd, StricterRuleNeedsMoreRepetitions) {
  const auto sim = sim::simulate(tiny_world(3));
  constexpr core::ThresholdRule kRules[] = {
      core::ThresholdRule::kMean, core::ThresholdRule::kMeanPlusMedian};
  const auto out = analysis::run_detection(sim, kRules);
  // At a low cap the stricter rule cannot detect more than the mean rule.
  EXPECT_GE(out[1].confusion.false_negative_rate(),
            out[0].confusion.false_negative_rate());
}

TEST(EndToEnd, VerdictsCoverEveryObservedPair) {
  const auto sim = sim::simulate(tiny_world(5));
  const auto out = analysis::run_detection(sim, kMean).front();
  EXPECT_EQ(out.verdicts.size(), sim.targeted_pair.size());
}

TEST(EndToEnd, PrivacyPipelineMatchesExactCounts) {
  // The blinded-CMS path must agree with cleartext counting for every ad
  // the clients saw (sketch sized so collisions are negligible).
  sim::SimConfig cfg = tiny_world(6);
  cfg.num_users = 25;
  cfg.avg_user_visits = 12;
  sim::Engine engine(sim::World::build(cfg));
  const auto sim = engine.run();

  client::HashUrlMapper mapper(100'000);
  const auto params = sketch::CmsParams::from_error_bounds(3'000, 0.001, 0.001);
  const client::ExtensionConfig ecfg{
      .detector = {}, .cms_params = params, .cms_hash_seed = 21};
  std::vector<client::BrowserExtension> exts;
  for (std::size_t u = 0; u < cfg.num_users; ++u)
    exts.emplace_back(static_cast<core::UserId>(u), ecfg, mapper);

  core::GlobalUserCounter exact;
  for (const auto& si : sim.impressions) {
    const adnet::Ad* ad = engine.ad_server().find_ad(si.impression.ad);
    exts[si.impression.user].observe_ad(ad->landing_url, si.impression.domain,
                                        si.impression.day);
    exact.record(si.impression.user, mapper.map(ad->landing_url));
  }

  util::Rng rng(77);
  const crypto::DhGroup group = crypto::DhGroup::generate(rng, 128);
  server::BackendServer backend({.cms_params = params,
                                 .cms_hash_seed = 21,
                                 .id_space = 100'000,
                                 .users_rule = core::ThresholdRule::kMean});
  server::RoundCoordinator coordinator(
      group, std::span<client::BrowserExtension>(exts), backend, 31);
  const auto round = coordinator.run_full_round(0);
  EXPECT_EQ(round.reports, cfg.num_users);

  std::size_t mismatches = 0, checked = 0;
  for (const auto& si : sim.impressions) {
    const adnet::Ad* ad = engine.ad_server().find_ad(si.impression.ad);
    const auto id = mapper.map(ad->landing_url);
    ++checked;
    if (*backend.users_for(id) != static_cast<double>(exact.users_for(id)))
      ++mismatches;
  }
  EXPECT_EQ(mismatches, 0u) << "of " << checked;
  // Threshold from the private pipeline within CMS error of the exact one.
  const core::UsersDistribution exact_dist = exact.distribution();
  EXPECT_NEAR(round.users_threshold,
              exact_dist.threshold(core::ThresholdRule::kMean), 0.25);
  // The estimate can only sit ABOVE (collisions merge, never split).
  EXPECT_GE(round.users_threshold,
            exact_dist.threshold(core::ThresholdRule::kMean) - 1e-9);
}

TEST(EndToEnd, InsufficientDataUsersAbstain) {
  // A user who saw ads on fewer than 4 domains must abstain.
  sim::SimConfig cfg = tiny_world(6);
  cfg.avg_user_visits = 2;  // almost no browsing
  const auto sim = sim::simulate(cfg);
  const auto out = analysis::run_detection(sim, kMean).front();
  EXPECT_GT(out.confusion.abstained, 0u);
}

TEST(EndToEnd, IndirectTargetingDetectedWithoutSemanticOverlap) {
  // The headline capability: indirectly-targeted ads have no semantic
  // overlap with the user profile yet are detected by counting. Build a
  // world with ONLY indirect targeted campaigns and verify detections.
  sim::SimConfig cfg = tiny_world(8);
  cfg.indirect_share = 1.0;
  cfg.retargeting_share = 0.0;
  cfg.seed = 777;
  const auto sim = sim::simulate(cfg);
  const auto out = analysis::run_detection(sim, kMean).front();
  EXPECT_GT(out.confusion.tp, 0u);
  EXPECT_LT(out.confusion.false_positive_rate(), 0.02);
}

}  // namespace
}  // namespace eyw
