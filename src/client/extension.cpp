#include "client/extension.hpp"

namespace eyw::client {

BrowserExtension::BrowserExtension(core::UserId user, ExtensionConfig config,
                                   UrlMapper& mapper)
    : user_(user),
      config_(config),
      mapper_(mapper),
      detector_(config.detector) {}

std::uint64_t BrowserExtension::ad_id(std::string_view identity) {
  return mapper_.map(identity);
}

void BrowserExtension::observe_ad(std::string_view identity,
                                  core::DomainId domain, core::Day day) {
  const std::uint64_t id = mapper_.map(identity);
  detector_.observe(id, domain, day);
  period_ads_.insert(id);
}

void BrowserExtension::advance_to(core::Day day) { detector_.advance_to(day); }

sketch::CountMinSketch BrowserExtension::build_sketch() const {
  sketch::CountMinSketch cms(config_.cms_params, config_.cms_hash_seed);
  for (const std::uint64_t id : period_ads_) cms.update(id);
  return cms;
}

std::vector<crypto::BlindCell> BrowserExtension::build_blinded_report(
    const crypto::BlindingParticipant& blinding, std::uint64_t round) const {
  const sketch::CountMinSketch cms = build_sketch();
  const auto cells = cms.cells();
  return blinding.blind(
      std::span<const crypto::BlindCell>(cells.data(), cells.size()), round);
}

void BrowserExtension::start_new_period() { period_ads_.clear(); }

core::Verdict BrowserExtension::audit(std::string_view identity,
                                      double users_count,
                                      double users_threshold,
                                      core::ThresholdRule rule) {
  // An audit of a never-observed ad maps it (cache miss) and classifies
  // against empty detector state, which yields kNonTargeted /
  // kInsufficientData — the right answer for an ad this user never saw.
  const std::uint64_t id = mapper_.map(identity);
  return detector_.classify(id, users_count, users_threshold, rule);
}

}  // namespace eyw::client
