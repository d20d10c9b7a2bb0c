// The detector's former sample path, kept as a test oracle. Thresholds were
// computed by applying a rule to an expanded std::vector<double> sample
// (mean, nth_element median, two-pass double stddev), the #Domains sample
// was rebuilt on every classification, every observe rescanned the whole
// window, and the #Users histogram was built from per-ad counts held as
// doubles. src/ now reads every threshold off a histogram
// (core/thresholds.hpp); the differential tests hold it to this.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <set>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "analysis/detection_experiment.hpp"
#include "core/global_view.hpp"
#include "core/local_detector.hpp"
#include "simulator/engine.hpp"

namespace eyw::oracle {

/// A ThresholdRule applied to a sample. Returns 0 for an empty sample.
inline double sample_threshold(std::span<const double> xs,
                               core::ThresholdRule rule) {
  if (xs.empty()) return 0.0;
  double acc = 0.0;
  for (const double x : xs) acc += x;
  const double mean = acc / static_cast<double>(xs.size());
  const auto median = [&] {
    std::vector<double> v(xs.begin(), xs.end());
    const std::size_t mid = v.size() / 2;
    std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid),
                     v.end());
    const double hi = v[mid];
    if (v.size() % 2 == 1) return hi;
    const double lo = *std::max_element(
        v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid));
    return (lo + hi) / 2.0;
  };
  const auto stddev = [&] {
    if (xs.size() < 2) return 0.0;
    double sq = 0.0;
    for (const double x : xs) sq += (x - mean) * (x - mean);
    return std::sqrt(sq / static_cast<double>(xs.size() - 1));
  };
  switch (rule) {
    case core::ThresholdRule::kMean:
      return mean;
    case core::ThresholdRule::kMedian:
      return median();
    case core::ThresholdRule::kMeanPlusMedian:
      return mean + median();
    case core::ThresholdRule::kMeanPlusStddev:
      return mean + stddev();
  }
  return 0.0;
}

/// The #Users histogram of per-ad counts (whole numbers below 2^32); zero
/// counts are excluded.
inline core::UsersDistribution from_counts(std::span<const double> counts) {
  core::UsersTally tally;
  for (const double c : counts)
    if (c >= 1.0) tally.add(static_cast<std::uint32_t>(c));
  return tally.finish();
}

/// The LocalDetector as it was: the same window semantics, every expiry a
/// full scan, Domains_th(u) from the per-ad sample.
class SampleDetector {
 public:
  explicit SampleDetector(core::DetectorConfig config = {})
      : config_(config) {}

  void observe(core::AdId ad, core::DomainId domain, core::Day day) {
    advance_to(day);
    seen_[ad][domain] = day;
    visited_domains_[domain] = day;
  }

  void advance_to(core::Day today) {
    if (today < today_)
      throw std::invalid_argument("SampleDetector: day went backwards");
    today_ = today;
    const core::Day cutoff = today_ + 1 >= config_.window_days
                                 ? today_ + 1 - config_.window_days
                                 : 0;
    for (auto ad_it = seen_.begin(); ad_it != seen_.end();) {
      auto& domains = ad_it->second;
      for (auto d_it = domains.begin(); d_it != domains.end();) {
        if (d_it->second < cutoff)
          d_it = domains.erase(d_it);
        else
          ++d_it;
      }
      if (domains.empty())
        ad_it = seen_.erase(ad_it);
      else
        ++ad_it;
    }
    for (auto it = visited_domains_.begin(); it != visited_domains_.end();) {
      if (it->second < cutoff)
        it = visited_domains_.erase(it);
      else
        ++it;
    }
  }

  [[nodiscard]] std::uint32_t domains_for(core::AdId ad) const {
    const auto it = seen_.find(ad);
    return it == seen_.end() ? 0
                             : static_cast<std::uint32_t>(it->second.size());
  }

  [[nodiscard]] std::uint32_t ad_serving_domains() const {
    return static_cast<std::uint32_t>(visited_domains_.size());
  }

  [[nodiscard]] bool has_sufficient_data() const {
    return ad_serving_domains() >= config_.min_ad_serving_domains;
  }

  [[nodiscard]] std::vector<double> domain_count_distribution() const {
    std::vector<double> out;
    out.reserve(seen_.size());
    for (const auto& [ad, domains] : seen_)
      out.push_back(static_cast<double>(domains.size()));
    return out;
  }

  [[nodiscard]] double domains_threshold(core::ThresholdRule rule) const {
    return sample_threshold(domain_count_distribution(), rule);
  }

  [[nodiscard]] core::Verdict classify(core::AdId ad, double users_count,
                                       double users_threshold,
                                       core::ThresholdRule rule) const {
    if (!has_sufficient_data()) return core::Verdict::kInsufficientData;
    const bool follows_user = domains_for(ad) > domains_threshold(rule);
    const bool seen_by_few = users_count < users_threshold;
    return follows_user && seen_by_few ? core::Verdict::kTargeted
                                       : core::Verdict::kNonTargeted;
  }

 private:
  core::DetectorConfig config_;
  core::Day today_ = 0;
  std::map<core::AdId, std::map<core::DomainId, core::Day>> seen_;
  std::map<core::DomainId, core::Day> visited_domains_;
};

/// One detection pass under one rule, as run_detection made it: exact
/// #Users counts as doubles, Users_th off their histogram, a
/// SampleDetector per user, every (user, ad) pair audited at its last
/// impression.
inline analysis::DetectionOutcome sample_detection(const sim::SimResult& sim,
                                                   core::ThresholdRule rule) {
  std::map<core::AdId, std::set<core::UserId>> seen_by;
  for (const sim::SimImpression& si : sim.impressions)
    seen_by[si.impression.ad].insert(si.impression.user);
  std::vector<double> counts;
  for (const auto& [ad, users] : seen_by)
    counts.push_back(static_cast<double>(users.size()));
  analysis::DetectionOutcome out;
  out.users_distribution = from_counts(counts);
  out.users_threshold = out.users_distribution.threshold(rule);

  std::map<std::pair<core::UserId, core::AdId>, std::size_t> last_seen;
  for (std::size_t i = 0; i < sim.impressions.size(); ++i) {
    const auto& imp = sim.impressions[i].impression;
    last_seen[{imp.user, imp.ad}] = i;
  }
  std::map<core::UserId, SampleDetector> detectors;
  for (std::size_t i = 0; i < sim.impressions.size(); ++i) {
    const core::Impression& imp = sim.impressions[i].impression;
    SampleDetector& det = detectors[imp.user];
    det.observe(imp.ad, imp.domain, imp.day);
    if (last_seen.find({imp.user, imp.ad})->second != i) continue;
    analysis::PairVerdict pv;
    pv.user = imp.user;
    pv.ad = imp.ad;
    pv.ground_truth_targeted = sim.is_targeted(imp.user, imp.ad);
    pv.verdict = det.classify(
        imp.ad, static_cast<double>(seen_by.find(imp.ad)->second.size()),
        out.users_threshold, rule);
    if (pv.verdict == core::Verdict::kInsufficientData)
      ++out.confusion.abstained;
    else
      out.confusion.add(pv.verdict == core::Verdict::kTargeted,
                        pv.ground_truth_targeted);
    out.verdicts.push_back(pv);
  }
  return out;
}

}  // namespace eyw::oracle
