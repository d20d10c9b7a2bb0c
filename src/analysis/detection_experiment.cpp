#include "analysis/detection_experiment.hpp"

#include <map>

namespace eyw::analysis {

std::vector<DetectionOutcome> run_detection(
    const sim::SimResult& sim, std::span<const core::ThresholdRule> rules,
    const core::UsersDistribution* served) {
  // Global pass: the #Users counters and threshold the back-end would
  // distribute (full-period counts; the deployed system refreshes them
  // weekly).
  core::GlobalUserCounter counter;
  for (const sim::SimImpression& si : sim.impressions)
    counter.record(si.impression.user, si.impression.ad);
  const core::UsersDistribution exact = counter.distribution();
  std::vector<DetectionOutcome> out(rules.size());
  for (std::size_t r = 0; r < rules.size(); ++r) {
    out[r].users_distribution = exact;
    out[r].users_threshold = (served ? *served : exact).threshold(rules[r]);
  }

  // eyeWnder classifies in real time, when the user audits a just-rendered
  // ad. We model an audit of every (user, ad) pair at the moment of its
  // LAST impression — the detector state then is exactly what the live
  // extension would consult (classifying at the very end instead would
  // evaluate expired windows: campaigns whose frequency cap was exhausted
  // weeks ago would have no sliding-window state left).
  std::map<std::pair<core::UserId, core::AdId>, std::size_t> last_seen;
  for (std::size_t i = 0; i < sim.impressions.size(); ++i) {
    const auto& imp = sim.impressions[i].impression;
    last_seen[{imp.user, imp.ad}] = i;
  }

  std::map<core::UserId, core::LocalDetector> detectors;
  for (std::size_t i = 0; i < sim.impressions.size(); ++i) {
    const core::Impression& imp = sim.impressions[i].impression;
    core::LocalDetector& det = detectors[imp.user];
    det.observe(imp.ad, imp.domain, imp.day);
    if (last_seen.find({imp.user, imp.ad})->second != i) continue;

    const double users = counter.users_for(imp.ad);
    const bool truth = sim.is_targeted(imp.user, imp.ad);
    for (std::size_t r = 0; r < rules.size(); ++r) {
      const core::Verdict verdict =
          det.classify(imp.ad, users, out[r].users_threshold, rules[r]);
      if (verdict == core::Verdict::kInsufficientData)
        ++out[r].confusion.abstained;
      else
        out[r].confusion.add(verdict == core::Verdict::kTargeted, truth);
      out[r].verdicts.push_back({.user = imp.user,
                                 .ad = imp.ad,
                                 .verdict = verdict,
                                 .ground_truth_targeted = truth});
    }
  }
  return out;
}

}  // namespace eyw::analysis
