// Composition helper: run the count-based detection pipeline over a
// simulated impression stream and score it against ground truth. This is
// the engine behind Figure 3 (false negatives vs frequency cap), the
// Section 7.2.2 false-positive study, and the Figure 4 evaluation.
#pragma once

#include <span>
#include <vector>

#include "analysis/confusion.hpp"
#include "core/global_view.hpp"
#include "core/local_detector.hpp"
#include "simulator/engine.hpp"

namespace eyw::analysis {

struct PairVerdict {
  core::UserId user = 0;
  core::AdId ad = 0;
  core::Verdict verdict = core::Verdict::kInsufficientData;
  bool ground_truth_targeted = false;
};

/// One threshold rule's classification of a simulated stream.
struct DetectionOutcome {
  ConfusionMatrix confusion;
  std::vector<PairVerdict> verdicts;
  /// Users_th under the rule.
  double users_threshold = 0.0;
  /// The exact #Users distribution of the stream.
  core::UsersDistribution users_distribution;
};

/// Feed every impression into per-user LocalDetectors and the exact
/// GlobalUserCounter, classify every (user, ad) pair the stream contains
/// under each of `rules`, and score against the simulator's ground truth.
/// Returns one outcome per rule, in the order given: the detectors' state
/// does not depend on the rule, so one pass serves them all.
///
/// This is the cleartext evaluation path; the privacy-preserving path
/// (client sketches -> blinded reports -> server aggregate) is exercised by
/// server::RoundCoordinator and compared against this oracle in the Figure 2
/// bench.
///
/// `served`, when given, is the #Users distribution a back-end recovered —
/// e.g. from a blinded round over the wire — and each rule's Users_th is
/// read off it instead of the exact one. Users_th is the only
/// globally-distributed quantity in the protocol; per-ad #Users counts stay
/// exact either way (the Figure 3 socket mode uses this to classify against
/// the thresholds the real server would derive).
[[nodiscard]] std::vector<DetectionOutcome> run_detection(
    const sim::SimResult& sim, std::span<const core::ThresholdRule> rules,
    const core::UsersDistribution* served = nullptr);

}  // namespace eyw::analysis
