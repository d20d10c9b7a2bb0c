// Section 7.1: performance and overhead of the privacy-preserving protocol.
//
// Reproduces every number of that section:
//  * CMS size vs cleartext reporting, for T = 10k / 50k / 100k
//    (paper: 185 / 196 / 207 KB vs ~3.5 KB average cleartext);
//  * blinding-roster exchange per client for 10k / 50k users
//    (paper: 0.38 MB / 1.9 MB, assuming ~256-bit group elements);
//  * client-side blinding computation time (paper: ~30 s for 1k users and
//    a 5k-cell sketch, on 2019 hardware and per-cell hashing; our pads are
//    expanded in counter mode, so expect a much smaller number), with the
//    pair secrets also derived in the deployed RFC 3526 2048-bit group;
//  * OPRF mapping latency and wire size (paper: <500 ms, two group
//    elements).
// Then the 60-client weekly round end to end, in process and over
// localhost TCP (exits 1 unless the two are bit-identical), and the
// parallel round-pipeline scaling table. Whole-stack throughput over TCP
// is bench/e2e's job (ingest_saturate, ingest_paced_journal).
#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench_json.hpp"
#include "client/url_mapper.hpp"
#include "crypto/blinding.hpp"
#include "crypto/mont_kernel.hpp"
#include "proto/client_reactor.hpp"
#include "server/deployment.hpp"
#include "server/remote_backend.hpp"
#include "server/round.hpp"
#include "sketch/count_min.hpp"

namespace {
using namespace eyw;
using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

}  // namespace

int main(int argc, char** argv) {
  // --json <path>: machine-readable records for the perf trajectory
  // (same schema as bench_crypto_primitives; see bench_json.hpp).
  const std::string json_path = eyw::bench::extract_json_path(argc, argv);
  eyw::bench::JsonWriter json;
  const char* kernel = crypto::active_mont_kernel().name;

  std::printf("== CMS size vs cleartext (delta = epsilon = 0.001, 4 B cells) ==\n");
  for (const std::size_t t : {10'000u, 50'000u, 100'000u}) {
    const auto p = sketch::CmsParams::from_error_bounds(t, 0.001, 0.001);
    std::printf("  T=%-7zu d=%-3zu w=%-5zu -> %7.0f KB  (paper: %s)\n", t,
                p.depth, p.width, static_cast<double>(p.bytes()) / 1000.0,
                t == 10'000 ? "185KB" : t == 50'000 ? "196KB" : "207KB");
  }
  // Cleartext: 35 unique ads on average, 100-char URLs; heavy users ~250.
  std::printf("  cleartext avg: %.1f KB (35 ads x 100-char URLs); heavy user:"
              " %.1f KB (250 ads)\n\n",
              35 * 100 / 1000.0, 250 * 100 / 1000.0);

  std::printf("== Blinding roster exchange per client ==\n");
  for (const std::size_t users : {10'000u, 50'000u}) {
    for (const std::size_t element_bits : {256u, 1024u, 2048u}) {
      const double mb = static_cast<double>(users) *
                        (static_cast<double>(element_bits) / 8.0) / 1e6;
      std::printf("  %-6zu users, %4zu-bit elements: %6.2f MB downloaded "
                  "roster%s\n",
                  users, element_bits, mb,
                  element_bits == 256
                      ? (users == 10'000 ? "  (paper: 0.38MB)"
                                         : "  (paper: 1.9MB)")
                      : "");
    }
  }

  std::printf("\n== Client-side blinding computation (1k users, 5k cells) ==\n");
  {
    // One real participant against a 1k roster: keygen for all peers, then
    // time the shared-secret derivation + pad expansion exactly as a
    // deployed client would run it. One call spreads several-fold between
    // identical runs, so each row is the median of repeated calls, with
    // the fastest and slowest.
    const auto median_min_max = [](std::vector<double>& ms) {
      std::sort(ms.begin(), ms.end());
      return std::array<double, 3>{ms[ms.size() / 2], ms.front(), ms.back()};
    };
    util::Rng rng(42);
    const crypto::DhGroup group = crypto::DhGroup::generate(rng, 256);
    const std::size_t kRoster = 1'000;
    std::vector<crypto::DhKeyPair> keys;
    std::vector<crypto::Bignum> publics;
    keys.reserve(kRoster);
    for (std::size_t i = 0; i < kRoster; ++i) {
      keys.push_back(crypto::dh_keygen(group, rng));
      publics.push_back(keys.back().public_key);
    }
    constexpr int kSetups = 11;
    std::vector<double> setup_ms;
    std::optional<crypto::BlindingParticipant> participant;
    for (int i = 0; i < kSetups; ++i) {
      const auto t0 = Clock::now();
      participant.emplace(group, 0, keys[0],
                          std::span<const crypto::Bignum>(publics));
      setup_ms.push_back(ms_since(t0));
    }
    constexpr int kBlinds = 11;
    std::vector<double> blind_ms;
    std::vector<crypto::BlindCell> blind;
    for (int i = 0; i < kBlinds; ++i) {
      const auto t1 = Clock::now();
      blind = participant->blinding_vector(5'000, /*round=*/1);
      blind_ms.push_back(ms_since(t1));
    }
    const auto setup = median_min_max(setup_ms);
    const auto pads = median_min_max(blind_ms);
    std::printf("  pairwise-secret derivation (999 modexps): %8.1f ms "
                "(median of %d, min %.1f, max %.1f; %s kernel)\n",
                setup[0], kSetups, setup[1], setup[2], kernel);
    std::printf("  pad expansion for 5k cells x 999 peers:   %8.1f ms "
                "(median of %d, min %.1f, max %.1f)\n",
                pads[0], kBlinds, pads[1], pads[2]);
    std::printf("  total: %.1f ms (paper: ~30 s; weekly, background)\n",
                setup[0] + pads[0]);
    std::printf("  (checksum %u)\n", blind[0]);

    // The deployed group: RFC 3526's 2048-bit MODP group, 2048-bit private
    // keys. The peers' public keys are drawn uniformly below p, because
    // 999 keygens at this size would take longer than everything else in
    // this bench, and a modexp costs the same whichever element it raises.
    const crypto::DhGroup modp = crypto::DhGroup::rfc3526_2048();
    const crypto::DhKeyPair own = crypto::dh_keygen(modp, rng);
    std::vector<crypto::Bignum> modp_publics{own.public_key};
    for (std::size_t i = 1; i < kRoster; ++i)
      modp_publics.push_back(crypto::Bignum::random_below(rng, modp.p));
    constexpr int kModpSetups = 3;
    std::vector<double> modp_ms;
    for (int i = 0; i < kModpSetups; ++i) {
      const auto t0 = Clock::now();
      const crypto::BlindingParticipant p(
          modp, 0, own, std::span<const crypto::Bignum>(modp_publics));
      modp_ms.push_back(ms_since(t0));
    }
    const auto modp_setup = median_min_max(modp_ms);
    std::printf("  same, RFC 3526 2048-bit group:            %8.1f ms "
                "(median of %d, min %.1f, max %.1f; %s kernel)\n",
                modp_setup[0], kModpSetups, modp_setup[1], modp_setup[2],
                kernel);
  }

  std::printf("\n== OPRF URL -> ad-ID mapping ==\n");
  for (const std::size_t bits : {256u, 512u, 1024u}) {
    util::Rng rng(7);
    const auto t0 = Clock::now();
    const crypto::OprfServer server(rng, bits);
    const double keygen_ms = ms_since(t0);
    client::OprfUrlMapper mapper(server, 100'000, 9);
    const auto t1 = Clock::now();
    constexpr int kEvals = 20;
    for (int i = 0; i < kEvals; ++i)
      (void)mapper.map("https://ads.example.test/creative/" +
                       std::to_string(i));
    const double per_eval = ms_since(t1) / kEvals;
    std::printf("  RSA-%-5zu keygen %7.1f ms | blind+eval+unblind %6.2f "
                "ms/ad | wire %zu B (2 group elements)%s\n",
                bits, keygen_ms, per_eval,
                mapper.bytes_exchanged() / mapper.cache_size(),
                bits == 1024 ? "  (paper: <500 ms)" : "");
    json.add({.op = "oprf_map",
              .modulus_bits = bits,
              .ns_per_op = per_eval * 1e6,
              .backend = kernel,
              .cores = 1});
  }

  std::printf("\n== Batched OPRF warm-up (one frame vs one trip per URL) ==\n");
  {
    util::Rng rng(7);
    const crypto::OprfServer server(rng, 512);
    constexpr int kUrls = 64;
    std::vector<std::string> urls;
    for (int i = 0; i < kUrls; ++i)
      urls.push_back("https://ads.example.test/batch/" + std::to_string(i));

    client::OprfUrlMapper serial(server, 100'000, 21);
    const auto t0 = Clock::now();
    for (const auto& u : urls) (void)serial.map(u);
    const double serial_ms = ms_since(t0);

    client::OprfUrlMapper batched(server, 100'000, 22);
    const auto t1 = Clock::now();
    (void)batched.map_batch(urls);
    const double batch_ms = ms_since(t1);
    json.add({.op = "oprf_map_batch",
              .modulus_bits = 512,
              .ns_per_op = batch_ms * 1e6 / kUrls,
              .backend = kernel,
              .cores = 1});

    std::printf("  map() x %d:      %8.1f ms, %4llu round trips, %6llu wire B\n",
                kUrls, serial_ms,
                static_cast<unsigned long long>(
                    serial.transport_stats().round_trips()),
                static_cast<unsigned long long>(
                    serial.transport_stats().total_bytes()));
    std::printf("  map_batch(%d):   %8.1f ms, %4llu round trip,  %6llu wire B "
                "(%.0fx fewer trips, %.1f%% fewer bytes)\n",
                kUrls, batch_ms,
                static_cast<unsigned long long>(
                    batched.transport_stats().round_trips()),
                static_cast<unsigned long long>(
                    batched.transport_stats().total_bytes()),
                static_cast<double>(serial.transport_stats().round_trips()) /
                    static_cast<double>(
                        batched.transport_stats().round_trips()),
                100.0 *
                    (1.0 -
                     static_cast<double>(
                         batched.transport_stats().total_bytes()) /
                         static_cast<double>(
                             serial.transport_stats().total_bytes())));
  }

  std::printf("\n== Full weekly round, end to end (60 clients) ==\n");
  {
    util::Rng rng(11);
    const crypto::DhGroup group = crypto::DhGroup::generate(rng, 256);
    const crypto::OprfServer oprf(rng, 256);
    client::OprfUrlMapper mapper(oprf, 10'000, 13);
    const auto params = sketch::CmsParams::from_error_bounds(2'000, 0.005, 0.005);
    const client::ExtensionConfig ecfg{
        .detector = {}, .cms_params = params, .cms_hash_seed = 3};
    std::vector<client::BrowserExtension> exts;
    for (core::UserId u = 0; u < 60; ++u) exts.emplace_back(u, ecfg, mapper);
    // Every client saw ~35 unique ads.
    for (auto& e : exts) {
      for (int a = 0; a < 35; ++a) {
        e.observe_ad("https://ad.test/" +
                         std::to_string((e.user() * 7 + a * 13) % 900),
                     static_cast<core::DomainId>(a % 9), 0);
      }
    }
    server::BackendServer backend({.cms_params = params,
                                   .cms_hash_seed = 3,
                                   .id_space = 10'000,
                                   .users_rule = core::ThresholdRule::kMean});
    server::RoundCoordinator coordinator(
        group, std::span<client::BrowserExtension>(exts), backend, 17);
    const auto t0 = Clock::now();
    const auto round = coordinator.run_full_round(0);
    const double round_ms = ms_since(t0);
    std::printf("  round wall time: %.1f ms, Users_th=%.2f\n", round_ms,
                round.users_threshold);

    // Exact encoded wire bytes per phase — read off the transports — next
    // to the closed-form estimates the paper's Section 7.1 accounting
    // implies (roster = group elements up + down, reports = 4 B/cell,
    // thresholds = 8 B/client). The delta is envelope framing + acks: the
    // honest cost of a real protocol that the estimates hide.
    const std::size_t n = exts.size();
    const auto& traffic = coordinator.traffic();
    const struct {
      const char* name;
      std::size_t measured;
      std::size_t estimate;
    } rows[] = {
        {"roster", traffic.roster_bytes, crypto::roster_bytes(group, n)},
        {"reports", traffic.report_bytes, n * params.bytes()},
        {"adjustments", traffic.adjustment_bytes, std::size_t{0}},
        {"thresholds", traffic.threshold_bytes, 8 * n},
    };
    std::printf("  %-12s %12s %12s %10s\n", "phase", "measured B",
                "estimate B", "delta");
    std::size_t measured_total = 0, estimate_total = 0;
    for (const auto& row : rows) {
      measured_total += row.measured;
      estimate_total += row.estimate;
      const double delta =
          row.estimate == 0
              ? 0.0
              : 100.0 * (static_cast<double>(row.measured) -
                         static_cast<double>(row.estimate)) /
                    static_cast<double>(row.estimate);
      std::printf("  %-12s %12zu %12zu %+9.2f%%\n", row.name, row.measured,
                  row.estimate, delta);
    }
    std::printf("  %-12s %12zu %12zu %+9.2f%%  (framing + acks)\n", "total",
                measured_total, estimate_total,
                100.0 * (static_cast<double>(measured_total) -
                         static_cast<double>(estimate_total)) /
                    static_cast<double>(estimate_total));
    std::printf("  transport cross-check: uplink+downlink = %llu B %s\n",
                static_cast<unsigned long long>(
                    coordinator.uplink_stats().total_bytes() +
                    coordinator.downlink_stats().total_bytes()),
                measured_total == coordinator.uplink_stats().total_bytes() +
                                      coordinator.downlink_stats().total_bytes()
                    ? "(== RoundTraffic.total)"
                    : "(MISMATCH vs RoundTraffic!)");

    // Same round again, but against the deployed back end — a
    // server::Deployment reached over localhost TCP by a pipelined
    // RemoteBackend on a ClientReactor channel: the honest cost of
    // deployment over the loopback simulation. Identical fleet +
    // coordinator seed, so the result must be bit-identical; the wire adds
    // the operator control plane (begin/missing/finalize) and 4 B of
    // length framing per frame.
    std::vector<client::BrowserExtension> exts_tcp;
    for (core::UserId u = 0; u < 60; ++u) exts_tcp.emplace_back(u, ecfg, mapper);
    for (auto& e : exts_tcp) {
      for (int a = 0; a < 35; ++a) {
        e.observe_ad("https://ad.test/" +
                         std::to_string((e.user() * 7 + a * 13) % 900),
                     static_cast<core::DomainId>(a % 9), 0);
      }
    }
    server::Deployment deployment(
        {.config = {.cms_params = params,
                    .cms_hash_seed = 3,
                    .id_space = 10'000,
                    .users_rule = core::ThresholdRule::kMean}});
    eyw::proto::ClientReactor reactor({.shards = 1});
    const auto channel = reactor.open("127.0.0.1", deployment.port());
    server::RemoteBackend remote(*channel, deployment.config());
    server::RoundCoordinator tcp_coordinator(
        group, std::span<client::BrowserExtension>(exts_tcp), remote, 17);
    const auto t2 = Clock::now();
    const auto tcp_round = tcp_coordinator.run_full_round(0);
    const double tcp_ms = ms_since(t2);
    const eyw::proto::TransportStats ls = channel->stats();
    const std::uint64_t frames = ls.messages_sent + ls.messages_received;
    // The socket carries the uplink phases plus the operator control
    // plane; roster/threshold distribution happens client-side in both
    // runs, so RoundTraffic (all four phases) must match exactly.
    std::printf("\n  loopback vs TCP deployment (same 60-client round):\n");
    std::printf("  %-10s %10s %15s %12s %18s\n", "path", "round ms",
                "RoundTraffic B", "socket B", "framing B (4/frm)");
    std::printf("  %-10s %10.1f %15zu %12s %18s\n", "loopback", round_ms,
                measured_total, "-", "-");
    std::printf("  %-10s %10.1f %15zu %12llu %12llu (%.2f%%)\n", "tcp",
                tcp_ms, tcp_coordinator.traffic().total(),
                static_cast<unsigned long long>(ls.total_bytes()),
                static_cast<unsigned long long>(4 * frames),
                100.0 * static_cast<double>(4 * frames) /
                    static_cast<double>(ls.total_bytes()));
    const auto loop_cells = round.aggregate.cells();
    const auto tcp_cells = tcp_round.aggregate.cells();
    bool identical =
        loop_cells.size() == tcp_cells.size() &&
        round.users_threshold == tcp_round.users_threshold &&
        round.distribution == tcp_round.distribution;
    for (std::size_t m = 0; identical && m < loop_cells.size(); ++m)
      identical = loop_cells[m] == tcp_cells[m];
    std::printf("  round result %s (Users_th %.2f vs %.2f)\n",
                identical ? "bit-identical (cells+distribution+threshold)"
                          : "MISMATCH",
                round.users_threshold, tcp_round.users_threshold);
    if (!identical) return 1;
  }

  std::printf("\n== Parallel round pipeline scaling (120 clients) ==\n");
  {
    // Same workload per thread count; the pipeline is deterministic, so
    // every configuration must land on the same Users_th (printed as a
    // cross-check). reports/s counts blinded-report construction +
    // submission + adjustment + finalize, i.e. the whole round.
    util::Rng rng(29);
    const crypto::DhGroup group = crypto::DhGroup::generate(rng, 256);
    const auto params = sketch::CmsParams::from_error_bounds(2'000, 0.005, 0.005);
    const client::ExtensionConfig ecfg{
        .detector = {}, .cms_params = params, .cms_hash_seed = 3};
    client::HashUrlMapper mapper(10'000);
    const std::size_t hw = std::max(1u, std::thread::hardware_concurrency());
    std::vector<std::size_t> thread_counts{1};
    if (hw >= 2) thread_counts.push_back(2);
    if (hw > 2) thread_counts.push_back(hw);
    for (const std::size_t threads : thread_counts) {
      std::vector<client::BrowserExtension> exts;
      for (core::UserId u = 0; u < 120; ++u) exts.emplace_back(u, ecfg, mapper);
      for (auto& e : exts) {
        for (int a = 0; a < 35; ++a) {
          e.observe_ad("https://ad.test/" +
                           std::to_string((e.user() * 7 + a * 13) % 900),
                       static_cast<core::DomainId>(a % 9), 0);
        }
      }
      server::BackendServer backend({.cms_params = params,
                                     .cms_hash_seed = 3,
                                     .id_space = 100'000,
                                     .users_rule = core::ThresholdRule::kMean});
      server::RoundCoordinator coordinator(
          group, std::span<client::BrowserExtension>(exts), backend, 17,
          threads);
      const auto t0 = Clock::now();
      const auto round = coordinator.run_full_round(0);
      const double round_ms = ms_since(t0);
      // Finalize alone (the id-space scan): rerun it on the warm backend.
      const auto t1 = Clock::now();
      (void)backend.finalize_round();
      const double finalize_ms = ms_since(t1);
      std::printf(
          "  threads=%-3zu round %8.1f ms (%7.1f reports/s) | finalize "
          "%6.1f ms (100k-id scan) | Users_th=%.3f\n",
          threads, round_ms, 120.0 * 1000.0 / round_ms, finalize_ms,
          round.users_threshold);
      json.add({.op = "round_pipeline_report",
                .modulus_bits = 256,
                .ns_per_op = round_ms * 1e6 / 120.0,
                .backend = kernel,
                .cores = threads});
    }
  }

  if (!json_path.empty()) {
    if (json.write(json_path))
      std::printf("\nwrote trajectory to %s\n", json_path.c_str());
    else
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
  }
  return 0;
}
