// Figure 2: effect of the privacy-preserving protocol on the #Users
// distribution and its threshold, across three consecutive weeks.
//
// Runs the FULL pipeline end to end per week: 100 extensions map every ad
// URL through the RSA-blind OPRF, encode ad-IDs in count-min sketches,
// blind every cell with pairwise-DH additive shares, and report; the
// back-end aggregates, unblinds, enumerates the over-provisioned id space,
// and derives Users_th. The cleartext oracle computes the exact
// distribution for the same week.
//
// Expected shape (paper): CMS curve hugs the actual curve; CMS threshold
// sits slightly ABOVE the actual one (2.30 vs 2.25 etc.) because of id
// collisions in the mapping.
//
// `--transport socket` runs the same pipeline at reduced scale with the
// back-end deployed as a real server process stack: every report and
// barrier traverses client reactor -> TCP -> frame server -> dispatcher ->
// endpoint instead of a function call. RemoteBackend is a drop-in
// RoundBackend, so the coordinator code below is byte-for-byte the same in
// both modes; only the construction differs.
//
// Crypto parameters are scaled down (256-bit RSA / DH) to keep the bench
// interactive; bench_crypto_primitives measures the full-size primitives.
#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>
#include <vector>

#include "core/global_view.hpp"
#include "proto/client_reactor.hpp"
#include "scenario/scenario.hpp"
#include "server/deployment.hpp"
#include "server/remote_backend.hpp"
#include "server/round.hpp"
#include "simulator/engine.hpp"

int main(int argc, char** argv) {
  using namespace eyw;

  bool socket = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--transport") == 0 && i + 1 < argc) {
      const char* mode = argv[++i];
      if (std::strcmp(mode, "socket") == 0) {
        socket = true;
      } else if (std::strcmp(mode, "local") != 0) {
        std::fprintf(stderr, "unknown transport '%s' (local|socket)\n", mode);
        return 2;
      }
    } else {
      std::fprintf(stderr,
                   "usage: bench_fig2_users_distribution "
                   "[--transport local|socket]\n");
      return 2;
    }
  }

  // Socket mode is a smoke-scale run: the point is the transport path, not
  // the statistics, so the world shrinks to keep it ctest-fast.
  const std::size_t users = socket ? 24 : 100;
  const std::size_t weeks = socket ? 2 : 3;
  const std::uint64_t id_space = socket ? 4000 : 20000;  // over-estimated |A|

  sim::SimConfig cfg;
  cfg.num_users = users;
  cfg.num_websites = socket ? 80 : 300;
  cfg.num_campaigns = socket ? 30 : 80;
  cfg.weeks = weeks;
  cfg.frequency_cap = 6;
  // Match the live deployment's exposure: ~35 unique ads per user per week
  // (Section 7.1). Most browsing happens on pages without tracked ads, so
  // ad-serving visits are far fewer than total page views.
  cfg.avg_user_visits = 25;
  cfg.slots_per_visit = 2;
  cfg.seed = 190702;

  std::printf("Simulating %zu users, %zu weeks...\n", users, weeks);
  sim::Engine engine(sim::World::build(cfg));
  const sim::SimResult sim = engine.run();

  // Group impressions by week.
  std::vector<std::vector<const sim::SimImpression*>> by_week(weeks);
  for (const auto& si : sim.impressions)
    by_week[si.impression.day / 7].push_back(&si);

  // Shared infrastructure.
  util::Rng rng(424242);
  const crypto::OprfServer oprf_server(rng, 256);
  client::OprfUrlMapper mapper(oprf_server, id_space, 99);
  const crypto::DhGroup group = crypto::DhGroup::generate(rng, 256);

  const sketch::CmsParams cms_params =
      socket ? sketch::CmsParams::from_error_bounds(1200, 0.005, 0.005)
             : sketch::CmsParams::from_error_bounds(5000, 0.002, 0.001);
  std::printf("CMS geometry: d=%zu w=%zu (%zu cells, %.0f KB)\n",
              cms_params.depth, cms_params.width, cms_params.cells(),
              static_cast<double>(cms_params.bytes()) / 1000.0);

  const client::ExtensionConfig ext_cfg{
      .detector = {}, .cms_params = cms_params, .cms_hash_seed = 7777};
  std::vector<client::BrowserExtension> extensions;
  extensions.reserve(users);
  for (std::size_t u = 0; u < users; ++u)
    extensions.emplace_back(static_cast<core::UserId>(u), ext_cfg, mapper);

  const server::BackendConfig backend_config{
      .cms_params = cms_params,
      .cms_hash_seed = 7777,
      .id_space = id_space,
      .users_rule = core::ThresholdRule::kMean};

  // Declaration order fixes teardown order: the RemoteBackend flushes its
  // pipelined acks while the channel is alive, the reactor closes its
  // sockets while the server still answers, then the deployment stops.
  std::optional<server::BackendServer> local;
  std::optional<server::Deployment> deployment;
  std::optional<proto::ClientReactor> reactor;
  std::shared_ptr<proto::ClientChannel> channel;
  std::optional<server::RemoteBackend> remote;
  server::RoundBackend* backend = nullptr;
  if (socket) {
    deployment.emplace(server::DeploymentOptions{.config = backend_config});
    reactor.emplace(proto::ClientReactorOptions{.shards = 2});
    channel = reactor->open("127.0.0.1", deployment->port());
    remote.emplace(*channel, backend_config);
    backend = &*remote;
    std::printf("transport: socket (server on 127.0.0.1:%u)\n",
                static_cast<unsigned>(deployment->port()));
  } else {
    local.emplace(backend_config);
    backend = &*local;
  }

  server::RoundCoordinator coordinator(
      group, std::span<client::BrowserExtension>(extensions), *backend, 5150);

  for (std::size_t week = 0; week < weeks; ++week) {
    // Clients observe this week's ads.
    core::GlobalUserCounter exact;
    for (const sim::SimImpression* si : by_week[week]) {
      const adnet::Ad* ad = engine.ad_server().find_ad(si->impression.ad);
      extensions[si->impression.user].observe_ad(
          ad->landing_url, si->impression.domain, si->impression.day);
      exact.record(si->impression.user,
                   extensions[si->impression.user].ad_id(ad->landing_url));
    }

    const server::RoundResult round = coordinator.run_full_round(week);
    const core::UsersDistribution actual = exact.distribution();

    const double act_th = actual.threshold(core::ThresholdRule::kMean);
    const double cms_th = round.users_threshold;
    std::printf(
        "\nWeek %zu: reports=%zu/%zu  Act_Th=%.2f  CMS_Th=%.2f  "
        "TV-distance=%.4f\n",
        week + 1, round.reports, round.roster, act_th, cms_th,
        core::total_variation(actual, round.distribution));
    std::printf("#users   actual-pdf   cms-pdf\n");
    for (std::uint32_t k = 1; k <= 10; ++k) {
      std::printf("%6u   %10.4f   %7.4f\n", k, actual.pdf(k),
                  round.distribution.pdf(k));
    }
    for (auto& ext : extensions) ext.start_new_period();
  }

  if (socket) {
    // The operator stats endpoint is the witness that the rounds really
    // crossed the wire: per-week reports all arrived as envelopes.
    std::printf("\nsocket path counters: frames=%llu reports=%llu "
                "control=%llu refusals=%llu\n",
                static_cast<unsigned long long>(
                    scenario::stat(deployment->stats_port(), "frames")),
                static_cast<unsigned long long>(scenario::stat(
                    deployment->stats_port(), "reports_accepted")),
                static_cast<unsigned long long>(scenario::stat(
                    deployment->stats_port(), "control_served")),
                static_cast<unsigned long long>(
                    scenario::stat(deployment->stats_port(), "refusals")));
  }

  std::printf(
      "\nShape check vs paper: the CMS pdf tracks the actual pdf and "
      "CMS_Th >= Act_Th\n(collisions when mapping URLs to ad IDs only ever "
      "merge ads, never split them).\n");
  std::printf("OPRF evaluations served: %llu (one per unique ad per client; "
              "cached locally)\n",
              static_cast<unsigned long long>(oprf_server.evaluations()));
  return 0;
}
