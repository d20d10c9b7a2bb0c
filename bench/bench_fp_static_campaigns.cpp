// Section 7.2.2: false positives from overlapping static campaigns.
//
// Scenario: a niche subset of users happens to co-visit a small set of
// sites that all carry the same static (brand-awareness) campaign. The
// campaign "follows" them across domains without targeting anyone. The
// paper reports misclassification below 2% across 30+ parameter
// configurations; this harness sweeps 36 configurations of the same shape.
#include <algorithm>
#include <cstdio>

#include "analysis/detection_experiment.hpp"

namespace {

using eyw::analysis::DetectionOutcome;
using eyw::core::ThresholdRule;
using eyw::sim::SimConfig;

struct Scenario {
  double static_spread;   // fraction of sites each static campaign covers
  double revisit_bias;    // how clustered browsing is
  std::size_t preferred;  // size of the co-visited site pool
};

}  // namespace

int main() {
  std::printf(
      "Section 7.2.2: false-positive study — static campaigns + clustered "
      "browsing\n");
  std::printf("%-4s %-8s %-8s %-10s %-8s %-9s %-9s %-10s\n", "cfg", "spread",
              "revisit", "preferred", "seed", "FP%", "FN%", "decided");

  const Scenario scenarios[] = {
      // spread, revisit bias, preferred-set size
      {0.005, 0.80, 6},  {0.005, 0.90, 6},  {0.005, 0.80, 10},
      {0.010, 0.80, 6},  {0.010, 0.90, 6},  {0.010, 0.80, 10},
      {0.020, 0.80, 6},  {0.020, 0.90, 6},  {0.020, 0.80, 10},
      {0.050, 0.70, 8},  {0.050, 0.85, 8},  {0.050, 0.70, 12},
  };
  const std::uint64_t seeds[] = {11, 22, 33};
  constexpr ThresholdRule kMean[] = {ThresholdRule::kMean};

  int cfg_id = 0;
  double worst_fp = 0.0;
  for (const Scenario& sc : scenarios) {
    for (const std::uint64_t seed : seeds) {
      SimConfig cfg;  // Table 1 base
      cfg.static_spread_min = sc.static_spread * 0.5;
      cfg.static_spread_max = sc.static_spread;
      cfg.revisit_bias = sc.revisit_bias;
      cfg.preferred_sites = sc.preferred;
      cfg.seed = 77000 + seed;
      const eyw::sim::SimResult sim = eyw::sim::simulate(cfg);
      const DetectionOutcome outcome =
          eyw::analysis::run_detection(sim, kMean).front();
      const double fp = 100.0 * outcome.confusion.false_positive_rate();
      worst_fp = std::max(worst_fp, fp);
      std::printf("%-4d %-8.3f %-8.2f %-10zu %-8llu %-9.2f %-9.1f %-10zu\n",
                  ++cfg_id, sc.static_spread, sc.revisit_bias, sc.preferred,
                  static_cast<unsigned long long>(seed), fp,
                  100.0 * outcome.confusion.false_negative_rate(),
                  outcome.confusion.decided());
    }
  }
  std::printf(
      "\n%d configurations. Worst-case FP = %.2f%% (paper: <2%% across 30+ "
      "configurations,\nreached only in the most extreme corner).\n",
      cfg_id, worst_fp);
  return 0;
}
