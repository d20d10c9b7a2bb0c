// Figure 4: the live-validation evaluation tree — precision of eyeWnder's
// classification assessed against the crawler (CR), the content-based
// heuristic (CB), and FigureEight labels (F8), with Section 7.3.3's manual
// resolution of the UNKNOWN pools.
//
// Expected shape (paper, 100 users / 3 weeks / 6743 ads): most ads are
// non-targeted; FP(CR) is a small share of targeted verdicts; the UNKNOWN
// pools dominate and mostly resolve to likely-TP / likely-TN; overall
// likely-TP ~78% and likely-TN ~87%.
#include <cstdio>
#include <map>

#include "analysis/content_based.hpp"
#include "analysis/detection_experiment.hpp"
#include "analysis/eval_tree.hpp"
#include "analysis/f8_labeler.hpp"

int main() {
  using namespace eyw;

  sim::SimConfig cfg;
  cfg.num_users = 100;
  cfg.num_websites = 1000;
  cfg.num_campaigns = 200;
  cfg.pct_targeted_ads = 0.25;
  // With only 100 users, a realistic audience segment is a couple of
  // panelists per campaign (the paper's Users_th sits at 2.2-3.3).
  cfg.audience_cohort = 0.25;
  cfg.weeks = 3;
  cfg.frequency_cap = 6;
  cfg.seed = 190703;

  sim::Engine engine(sim::World::build(cfg));
  const sim::SimResult sim = engine.run();
  constexpr core::ThresholdRule kMean[] = {core::ThresholdRule::kMean};
  const analysis::DetectionOutcome detection =
      analysis::run_detection(sim, kMean).front();

  // Content-based baseline: profile from the visit log. T is scaled to the
  // simulated catalog (the paper's T=20 is calibrated to the live web).
  analysis::ContentBasedClassifier cb({.min_sites_per_category = 20});
  for (const auto& si : sim.impressions) {
    const auto& site = engine.world().websites[si.impression.domain];
    cb.record_visit(si.impression.user, si.impression.domain, site.category);
  }

  analysis::F8Labeler f8({.coverage = 0.35, .accuracy = 0.85, .seed = 88});

  std::vector<analysis::EvalRecord> records;
  for (const analysis::PairVerdict& pv : detection.verdicts) {
    if (pv.verdict == core::Verdict::kInsufficientData) continue;
    const adnet::Ad* ad = engine.ad_server().find_ad(pv.ad);
    analysis::EvalRecord rec;
    rec.user = pv.user;
    rec.ad = pv.ad;
    rec.eyewnder_targeted = pv.verdict == core::Verdict::kTargeted;
    rec.in_crawler = sim.crawler_ads.contains(pv.ad);
    rec.semantic_overlap =
        cb.has_semantic_overlap(pv.user, ad->offering_category);
    rec.f8_label = f8.label(pv.user, pv.ad, pv.ground_truth_targeted);
    rec.ground_truth_targeted = pv.ground_truth_targeted;
    records.push_back(rec);
  }

  const analysis::EvalTreeResult tree = analysis::evaluate_tree(
      records, {.resolution_accuracy = 0.9, .seed = 4242});
  std::printf("%s", tree.to_report().c_str());

  std::printf(
      "\nShape check vs paper (Fig 4): non-targeted branch dominates; "
      "FP(CR) is a small\nshare of targeted verdicts; overall likely-TP "
      "~78%% and likely-TN ~87%%.\n");
  return 0;
}
