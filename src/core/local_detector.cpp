#include "core/local_detector.hpp"

#include <stdexcept>

namespace eyw::core {

LocalDetector::LocalDetector(DetectorConfig config) : config_(config) {
  if (config_.window_days == 0)
    throw std::invalid_argument("LocalDetector: window_days == 0");
}

void LocalDetector::observe(AdId ad, DomainId domain, Day day) {
  if (day < today_)
    throw std::invalid_argument("LocalDetector::observe: day went backwards");
  advance_to(day);
  auto& domains = seen_[ad];
  const std::size_t before = domains.size();
  domains[domain] = day;
  rebin(before, domains.size());
  visited_domains_[domain] = day;
}

void LocalDetector::advance_to(Day today) {
  if (today < today_)
    throw std::invalid_argument("LocalDetector::advance_to: day went backwards");
  today_ = today;
  expire();
}

void LocalDetector::expire() noexcept {
  const Day start = today_ + 1 >= config_.window_days
                        ? today_ + 1 - config_.window_days
                        : 0;
  // Days never decrease, so nothing can have fallen out of an unmoved
  // window.
  if (start == window_start_) return;
  window_start_ = start;
  const auto expired = [this](const auto& entry) {
    return entry.second < window_start_;
  };
  for (auto ad_it = seen_.begin(); ad_it != seen_.end();) {
    auto& domains = ad_it->second;
    const std::size_t before = domains.size();
    std::erase_if(domains, expired);
    rebin(before, domains.size());
    if (domains.empty())
      ad_it = seen_.erase(ad_it);
    else
      ++ad_it;
  }
  std::erase_if(visited_domains_, expired);
}

void LocalDetector::rebin(std::size_t from, std::size_t to) {
  if (from == to) return;
  if (from > 0) --domains_histogram_[from - 1].weight;
  if (to > domains_histogram_.size())
    domains_histogram_.push_back({.value = static_cast<std::uint32_t>(to)});
  if (to > 0) ++domains_histogram_[to - 1].weight;
}

std::uint32_t LocalDetector::domains_for(AdId ad) const noexcept {
  const auto it = seen_.find(ad);
  return it == seen_.end() ? 0 : static_cast<std::uint32_t>(it->second.size());
}

std::uint32_t LocalDetector::ad_serving_domains() const noexcept {
  return static_cast<std::uint32_t>(visited_domains_.size());
}

bool LocalDetector::has_sufficient_data() const noexcept {
  return ad_serving_domains() >= config_.min_ad_serving_domains;
}

double LocalDetector::domains_threshold(ThresholdRule rule) const {
  return estimate_threshold(domains_histogram_, rule);
}

Verdict LocalDetector::classify(AdId ad, double users_count,
                                double users_threshold,
                                ThresholdRule rule) const {
  if (!has_sufficient_data()) return Verdict::kInsufficientData;
  const double domains = domains_for(ad);
  // Strict inequalities: the paper labels an ad targeted when #Domains
  // "crosses" the threshold and #Users is "below" the threshold. The strict
  // forms also make the degenerate all-ads-single-domain window (threshold
  // exactly 1) behave correctly: one sighting is never "following".
  const bool follows_user = domains > domains_threshold(rule);
  const bool seen_by_few = users_count < users_threshold;
  return follows_user && seen_by_few ? Verdict::kTargeted
                                     : Verdict::kNonTargeted;
}

std::vector<AdId> LocalDetector::ads_in_window() const {
  std::vector<AdId> out;
  out.reserve(seen_.size());
  for (const auto& [ad, domains] : seen_) out.push_back(ad);
  return out;
}

}  // namespace eyw::core
