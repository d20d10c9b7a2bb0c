// live_audit: the full eyeWnder system end to end, including the web-model
// extraction path — the closest thing to "install the extension and click
// audit".
//
// 1. A simulated world serves ads to 40 users for a week.
// 2. Each impression is rendered into synthetic HTML; the extension's
//    ad-detection pipeline extracts the ad identity from the markup
//    (anchor / onclick / script heuristics, click-free).
// 3. Extensions report blinded sketches; the back-end computes Users_th.
// 4. We audit a handful of ads in "real time" and print the verdicts,
//    including an indirectly-targeted campaign that content analysis
//    cannot flag (no semantic overlap between user profile and ad).
//
// `live_audit --soak SECONDS` runs the multi-round soak service instead:
// back-to-back durable blinded rounds with 25% reporter churn against one
// long-lived server stack, leak gauges sampled between rounds through the
// operator stats endpoint (docs/scenarios.md#soak).
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "scenario/scenario.hpp"
#include "server/round.hpp"
#include "simulator/engine.hpp"
#include "webmodel/ad_detect.hpp"
#include "webmodel/html.hpp"

int main(int argc, char** argv) {
  using namespace eyw;

  if (argc >= 2 && std::string(argv[1]) == "--soak") {
    long seconds = 60;
    if (argc == 3) {
      char* end = nullptr;
      seconds = std::strtol(argv[2], &end, 10);
      if (end == argv[2] || *end != '\0' || seconds < 1 ||
          seconds > 86'400) {
        std::fprintf(stderr, "usage: live_audit [--soak SECONDS]\n");
        return 2;
      }
    } else if (argc != 2) {
      std::fprintf(stderr, "usage: live_audit [--soak SECONDS]\n");
      return 2;
    }
    scenario::ScenarioOptions options;
    options.soak_budget = std::chrono::seconds(seconds);
    options.work_dir = std::filesystem::temp_directory_path().string();
    try {
      return scenario::run_scenario("soak", options);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "live_audit --soak: %s\n", e.what());
      return 1;
    }
  }

  sim::SimConfig cfg;
  cfg.num_users = 50;
  cfg.num_websites = 40;
  cfg.ads_per_website = 12;
  cfg.num_campaigns = 40;
  cfg.pct_targeted_ads = 0.25;
  // A 50-user panel is a thin sample of any real campaign audience: only a
  // couple of panelists fall into each campaign's segment.
  cfg.audience_cohort = 0.3;
  cfg.frequency_cap = 6;
  cfg.avg_user_visits = 30;
  cfg.seed = 42;

  sim::Engine engine(sim::World::build(cfg));
  const sim::SimResult sim = engine.run();
  std::printf("simulated %zu impressions for %zu users\n",
              sim.impressions.size(), cfg.num_users);

  // Client-side machinery.
  util::Rng rng(7);
  const crypto::OprfServer oprf_server(rng, 256);
  client::OprfUrlMapper mapper(oprf_server, 50'000, 3);
  const crypto::DhGroup group = crypto::DhGroup::generate(rng, 256);
  const auto params = sketch::CmsParams::from_error_bounds(2'000, 0.005, 0.005);
  const client::ExtensionConfig ecfg{
      .detector = {}, .cms_params = params, .cms_hash_seed = 1};
  std::vector<client::BrowserExtension> exts;
  for (std::size_t u = 0; u < cfg.num_users; ++u)
    exts.emplace_back(static_cast<core::UserId>(u), ecfg, mapper);

  // Initial-crawl OPRF warm-up: the clean-profile crawler has just swept
  // every website, so the landing URLs of the static/contextual inventory
  // are known up front. Batch-map them in ONE OprfEvalRequest round trip;
  // the per-impression mapping below then mostly hits the shared cache.
  {
    std::vector<std::string> crawl_urls;
    crawl_urls.reserve(sim.crawler_ads.size());
    for (const core::AdId id : sim.crawler_ads)
      crawl_urls.push_back(engine.ad_server().find_ad(id)->landing_url);
    (void)mapper.map_batch(crawl_urls);
    std::printf("initial-crawl OPRF warm-up: %zu URLs in %llu round trip(s)\n",
                crawl_urls.size(),
                static_cast<unsigned long long>(
                    mapper.transport_stats().round_trips()));
  }

  // Render each impression into HTML and run the extraction pipeline —
  // the extension never sees simulator ids, only markup.
  webmodel::PageGenerator pages({}, 11);
  const webmodel::AdDetector detector(adnet::AdNetworkRegistry::with_defaults());
  std::size_t extracted = 0, rendered = 0;
  std::map<std::pair<core::UserId, core::Day>, bool> audited;
  for (const auto& si : sim.impressions) {
    const adnet::Ad* ad = engine.ad_server().find_ad(si.impression.ad);
    const auto& site = engine.world().websites[si.impression.domain];
    const webmodel::Page page = pages.generate(site.hostname, {*ad});
    ++rendered;
    const auto detected = detector.detect(page.html);
    if (detected.empty()) continue;
    ++extracted;
    exts[si.impression.user].observe_ad(detected.front().identity(),
                                        si.impression.domain,
                                        si.impression.day);
  }
  std::printf("webmodel extraction: %zu/%zu impressions recovered from "
              "markup\n",
              extracted, rendered);

  // Weekly privacy-preserving round.
  server::BackendServer backend({.cms_params = params,
                                 .cms_hash_seed = 1,
                                 .id_space = 50'000,
                                 .users_rule = core::ThresholdRule::kMean});
  server::RoundCoordinator coordinator(
      group, std::span<client::BrowserExtension>(exts), backend, 99);
  const auto round = coordinator.run_full_round(0);
  std::printf("weekly round done: Users_th = %.2f (%zu/%zu reports)\n\n",
              round.users_threshold, round.reports, round.roster);

  // Real-time audits: every (user, ad) pair is audited at its last
  // sighting — the moment a real user would click "audit this ad". We
  // print a per-campaign-type summary plus a few example rows.
  struct TypeStats {
    std::size_t flagged = 0;
    std::size_t audits = 0;
  };
  std::map<adnet::CampaignType, TypeStats> stats;
  std::map<adnet::CampaignType, int> shown;
  std::set<std::pair<core::UserId, core::AdId>> done;
  std::printf("example audits:\n%-6s %-18s %-8s %-9s %s\n", "user",
              "campaign-type", "#Users", "verdict", "ground-truth");
  for (auto it = sim.impressions.rbegin(); it != sim.impressions.rend();
       ++it) {
    const auto& si = *it;
    if (!done.insert({si.impression.user, si.impression.ad}).second) continue;
    const adnet::Ad* ad = engine.ad_server().find_ad(si.impression.ad);
    auto& ext = exts[si.impression.user];
    const double users = *backend.users_for(ext.ad_id(ad->landing_url));
    // Both thresholds come from one rule: Domains_th(u) is derived under
    // the rule the back-end used for Users_th.
    const auto verdict = ext.audit(ad->landing_url, users,
                                   round.users_threshold,
                                   backend.config().users_rule);
    const bool flagged = verdict == core::Verdict::kTargeted;
    auto& ts = stats[si.campaign_type];
    ++ts.audits;
    ts.flagged += flagged;
    const bool interesting = flagged || adnet::is_targeted(si.campaign_type);
    if (interesting && shown[si.campaign_type] < 2) {
      ++shown[si.campaign_type];
      std::printf("%-6u %-18s %-8.0f %-9s %s\n", si.impression.user,
                  to_string(si.campaign_type), users,
                  flagged ? "TARGETED" : "not", 
                  sim.is_targeted(si.impression.user, si.impression.ad)
                      ? "targeted-delivery"
                      : "untargeted");
    }
  }
  std::printf("\nper-type audit summary (flagged-as-targeted / audits):\n");
  for (const auto& [type, ts] : stats) {
    std::printf("  %-18s %5zu / %zu\n", to_string(type), ts.flagged,
                ts.audits);
  }
  std::printf(
      "\nNote the indirect-targeted rows: the ad's offering category shares "
      "no semantic\noverlap with the user profile, so content-based tools "
      "cannot flag them; the\ncount-based verdict does not care.\n");
  return 0;
}
