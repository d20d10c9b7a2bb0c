// Quickstart: the count-based detection algorithm in ~40 lines, the
// batch-first OPRF warm-up a fresh extension runs on install — and the
// same protocol deployed across two OS processes over real TCP sockets.
//
// Modes:
//   ./build/quickstart                       in-process loopback demo
//   ./build/quickstart --serve PORT [--once] [--journal DIR]
//                      [--port-file PATH]    host back-end + oprf-server
//   ./build/quickstart --connect HOST:PORT   drive reporters over TCP
//   ./build/quickstart --reporters N [HOST:PORT]
//                                            N logical reporters
//                                            multiplexed over a handful of
//                                            TCP connections (spins up its
//                                            own server when no target
//                                            given)
//   ./build/quickstart --crash-demo [N]      kill -9 a journaled server
//                                            mid-round, restart, finish —
//                                            asserts bit-identical recovery
//   ./build/quickstart --scenario NAME [--seed S] [--reporters N]
//                                            adversarial scenarios against
//                                            the real stack: churn30,
//                                            mutator, poison, soak,
//                                            crash-churn (docs/scenarios.md)
//
// Every server this binary stands up is a server::Deployment, so `--serve`
// also serves the operator stats endpoint (GET /stats) on a second
// loopback port, printed at startup. `--journal DIR` makes the served
// round durable: accepted submissions are write-ahead journaled with
// sketch checkpoints (src/storage/), and a server restarted on the same
// DIR resumes the in-flight round. SIGINT / SIGTERM shut the server down
// gracefully — dispatcher drained, journal flushed, a final checkpoint
// installed, one last stats line printed. `--port-file PATH` writes
// "PORT\nSTATS_PORT\n" once both are bound (for --serve 0 under scripts).
//
// The two-process mode runs one full reporting round twice with identical
// inputs — once over in-process loopback, once through the remote
// back-end — and exits non-zero unless the aggregates are bit-identical
// (the protocol's deployment invariant; see docs/architecture.md).
// `--once` makes the server exit after serving one finalize, for CI.
// `--reporters` is the swarm driver: N logical reporters driven through
// the *client* reactor, each a MuxStream — a stream-id-tagged logical
// channel fanned over a fixed handful of mux-negotiated connections — so
// fds AND threads stay flat while N climbs to 100k+; a sliding
// completion-chained window keeps the swarm self-paced against the
// server's drain rate. The batched OPRF warm-up overlaps the in-flight
// submissions, and the mode exits non-zero if resident client-side
// threads exceed shards + 1, the fd footprint grows with N, the
// overload-shed probe misbehaves, or the aggregate is not bit-identical
// to the same submissions applied in-process. Both sides multiplex: the
// server end holds thousands of connections on shards + acceptor; this
// mode proves one process can *drive* 100k logical peers.
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <system_error>
#include <thread>
#include <vector>

#include <sys/wait.h>

#include "client/extension.hpp"
#include "client/url_mapper.hpp"
#include "core/global_view.hpp"
#include "core/local_detector.hpp"
#include "proto/client_reactor.hpp"
#include "proto/raw_frame_io.hpp"
#include "scenario/scenario.hpp"
#include "server/deployment.hpp"
#include "server/remote_backend.hpp"
#include "server/round.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace eyw;

constexpr std::size_t kNetClients = 12;
constexpr std::size_t kNetShards = server::Deployment::kBackendShards;

/// The fleet both round runs share: every client saw ~12 unique ads, with
/// overlap so some ads cross the threshold.
std::vector<client::BrowserExtension> make_fleet(client::UrlMapper& mapper) {
  const server::BackendConfig config = server::default_config();
  const client::ExtensionConfig ecfg{.detector = {},
                                     .cms_params = config.cms_params,
                                     .cms_hash_seed = config.cms_hash_seed};
  std::vector<client::BrowserExtension> exts;
  for (std::size_t u = 0; u < kNetClients; ++u)
    exts.emplace_back(static_cast<core::UserId>(u), ecfg, mapper);
  for (auto& e : exts) {
    for (int a = 0; a < 12; ++a) {
      e.observe_ad("https://ad.test/" +
                       std::to_string((e.user() * 5 + a * 7) % 40),
                   static_cast<core::DomainId>(a % 6), 0);
    }
  }
  return exts;
}

int run_loopback_demo() {
  using namespace eyw::core;

  // The browser extension's local state: it records (ad, domain, day).
  LocalDetector detector;  // 7-day window, min 4 domains

  // Ad 1001 follows the user across domains; ads 2000+ are one-off.
  detector.observe(/*ad=*/1001, /*domain=*/1, /*day=*/0);
  detector.observe(1001, 2, 0);
  detector.observe(2000, 1, 0);
  detector.observe(1001, 3, 1);
  detector.observe(2001, 2, 1);
  detector.observe(1001, 4, 2);
  detector.observe(2002, 3, 2);

  // Global inputs (the back-end computes these from blinded CMS reports):
  // ad 1001 was seen by 2 users; the fleet-wide threshold is 3.1.
  GlobalUserCounter counter;
  counter.record(/*user=*/0, 1001);
  counter.record(1, 1001);
  for (UserId u = 0; u < 40; ++u) counter.record(u, 2000);  // popular ad

  // Both thresholds under the paper's rule, the mean.
  const double users_th = 3.1;
  const ThresholdRule rule = ThresholdRule::kMean;
  std::printf("Domains_th(u) = %.2f, ad-serving domains in window = %u\n",
              detector.domains_threshold(rule),
              detector.ad_serving_domains());

  for (const AdId ad : {AdId{1001}, AdId{2000}, AdId{2001}}) {
    const Verdict v = detector.classify(
        ad, static_cast<double>(counter.users_for(ad)), users_th, rule);
    std::printf("ad %llu: #Domains=%u #Users=%u -> %s\n",
                static_cast<unsigned long long>(ad), detector.domains_for(ad),
                counter.users_for(ad), to_string(v));
  }

  // A real extension maps landing URLs to ad ids through the keyed OPRF.
  // On first run the cache is cold, so it warms up with ONE batched round
  // trip (OprfEvalRequest with every URL blinded inside) instead of one
  // round trip per URL.
  eyw::util::Rng rng(7);
  const eyw::crypto::OprfServer oprf_server(rng, 256);
  eyw::client::OprfUrlMapper mapper(oprf_server, /*id_space=*/100'000,
                                    /*rng_seed=*/11);
  const std::vector<std::string> urls{
      "https://shoes.example/landing", "https://travel.example/deal",
      "https://shoes.example/landing",  // duplicates are free
      "https://news.example/subscribe"};
  const auto ids = mapper.map_batch(urls);
  std::printf("\nOPRF warm-up: mapped %zu URLs (%zu unique) in %llu round "
              "trip(s), %zu wire bytes\n",
              urls.size(), mapper.cache_size(),
              static_cast<unsigned long long>(
                  mapper.transport_stats().round_trips()),
              static_cast<std::size_t>(
                  mapper.transport_stats().total_bytes()));
  for (std::size_t i = 0; i < urls.size(); ++i)
    std::printf("  %-34s -> ad id %llu\n", urls[i].c_str(),
                static_cast<unsigned long long>(ids[i]));
  std::printf("\n(two-process mode: `quickstart --serve 9077` in one "
              "terminal,\n `quickstart --connect 127.0.0.1:9077` in "
              "another)\n");
  return 0;
}

/// Deterministic synthetic report for reporter `i` (this mode measures
/// the transport; the blinded-crypto round is --connect's job). Shared
/// with the in-process reference so the swarm aggregate can be asserted
/// bit-identical.
std::vector<std::uint32_t> reporter_cells(const server::BackendConfig& config,
                                          std::size_t i) {
  std::vector<std::uint32_t> cells(config.cms_params.cells());
  for (std::size_t c = 0; c < cells.size(); ++c)
    cells[c] = static_cast<std::uint32_t>(i * 2654435761u + c);
  return cells;
}

/// Shared swarm bookkeeping: completions validate the expected reply kind
/// right on the loop thread (storing per-reporter results would be O(n)
/// memory a 100k swarm has no reason to pay) and count down to the main
/// thread's wait. Declared before the reactor wherever it is used, so
/// unwinding completions always find it alive.
struct SwarmSink {
  proto::MsgKind want = proto::MsgKind::kAck;
  std::mutex mu;
  std::condition_variable cv;
  std::size_t done = 0;
  std::size_t acked = 0;
  std::string first_error;

  void complete(std::size_t i, proto::AsyncResult r, std::size_t n) {
    bool ok = false;
    std::string err;
    try {
      if (r.error) std::rethrow_exception(r.error);
      (void)proto::expect_reply(r.reply, want);
      ok = true;
    } catch (const std::exception& e) {
      err = e.what();
    }
    std::lock_guard<std::mutex> lock(mu);
    if (ok) {
      ++acked;
    } else if (first_error.empty()) {
      first_error = "reporter " + std::to_string(i) + ": " + err;
    }
    if (++done == n) cv.notify_one();
  }

  void wait_all(std::size_t n) {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return done == n; });
  }
};

int run_reporters(std::size_t n, const std::string& target_host,
                  long target_port) {
  // Mux geometry: a fixed handful of sockets, reporter i = a logical
  // stream on connection i mod K, and a sliding window of exchanges in
  // flight so the driver self-paces against the server's drain rate
  // instead of materializing n frames up front.
  constexpr std::size_t kMuxConnections = 8;
  constexpr std::size_t kMuxWindow = 2048;
  /// Fd head-room the swarm may use over its pre-reactor baseline: both
  /// ends of the K connections + control/OPRF links + per-shard loop
  /// plumbing (epoll, eventfd, timerfd) — a constant, never O(n).
  constexpr std::size_t kMuxFdBudget = 64;

  // Self-serve when no target: both halves of the story live in this
  // process — the server multiplexing inbound connections on its
  // shards, and the client reactor driving the swarm on its own.
  std::optional<server::Deployment> local;
  std::string host = target_host;
  std::uint16_t port = 0;
  if (target_port < 0) {
    local.emplace();
    host = "127.0.0.1";
    port = local->port();
  } else {
    port = static_cast<std::uint16_t>(target_port);
  }
  const server::BackendConfig config = server::default_config();

  // Declared before the reactor: reporter completions write into the
  // sink, and if anything below throws, the unwinding reactor fails every
  // pending completion — which must find its target still alive.
  SwarmSink sink;

  // Everything outbound below — control plane, OPRF warm-up, the whole
  // reporter swarm — multiplexes on this client reactor's shard threads.
  // The thread and fd deltas from here on are the claim under test — so
  // the process-wide pool (which the self-serve server's OPRF batch
  // handler and finalize would otherwise lazily spawn *inside* the
  // measured window) is materialized first; its workers are compute
  // fan-out, not transport threads.
  (void)util::ThreadPool::shared();
  const std::size_t threads_before = proto::raw::process_threads();
  const std::size_t fds_before = scenario::open_fds();
  constexpr std::size_t kClientShards = 2;
  proto::ClientReactor reactor(
      {.shards = kClientShards, .backoff_jitter_seed = 42});

  // Operator control plane on its own channel, pipelined RemoteBackend:
  // begin_round is a barrier, so the roster is open before reports fly.
  // Deliberately a version-1 channel — the control plane and the mux
  // swarm sharing one port is exactly the mixed deployment the Hello
  // negotiation exists for.
  auto control = reactor.open(host, port);
  server::RemoteBackend remote(*control, config);
  remote.begin_round(/*round=*/0, n);

  const auto t0 = std::chrono::steady_clock::now();
  const auto report_frame = [&config](std::size_t i) {
    return proto::BlindedReport{.participant = static_cast<std::uint32_t>(i),
                                .params = config.cms_params,
                                .cells = reporter_cells(config, i)}
        .encode(/*round=*/0);
  };

  // The mux channels stay alive until the last completion has fired (and
  // each in-flight exchange additionally pins its own stream through the
  // completion's capture). K sockets total, negotiated once each; every
  // completion chains the next reporter to keep the window full.
  std::vector<std::shared_ptr<proto::MuxChannel>> muxes;
  for (std::size_t k = 0; k < std::min(kMuxConnections, n); ++k)
    muxes.push_back(reactor.open_mux(host, port));
  std::atomic<std::size_t> next_reporter{0};
  std::function<void(std::size_t)> submit;
  submit = [&](std::size_t i) {
    auto stream = muxes[i % muxes.size()]->open_stream();
    auto* raw = stream.get();
    raw->exchange_async(
        report_frame(i), [&, stream, i](proto::AsyncResult r) {
          // Chain first, account last: the moment sink.complete() counts
          // the final reporter the main thread may pass its wait, so the
          // lambda touches nothing after it.
          const std::size_t next =
              next_reporter.fetch_add(1, std::memory_order_relaxed);
          if (next < n) submit(next);
          sink.complete(i, std::move(r), n);
        });
  };
  const std::size_t prime = std::min(kMuxWindow, n);
  next_reporter.store(prime, std::memory_order_relaxed);
  for (std::size_t i = 0; i < prime; ++i) submit(i);

  // While those exchanges are in flight, run the batched OPRF warm-up a
  // fresh extension would: key fetch + one batch evaluation, blocking the
  // main thread only — the reactor shards keep pumping the swarm
  // underneath it instead of serializing warm-up then reports.
  auto oprf_ch = reactor.open(host, port);
  proto::SyncTransportAdapter oprf_link(*oprf_ch);
  std::size_t warm_urls = 0;
  std::uint64_t warm_trips = 0;
  {
    const proto::OprfKeyAnswer key = proto::OprfKeyAnswer::decode(
        proto::expect_reply(oprf_link.exchange(proto::encode_oprf_key_query()),
                            proto::MsgKind::kOprfKeyAnswer));
    client::OprfUrlMapper mapper(oprf_link,
                                 crypto::RsaPublicKey{.n = key.n, .e = key.e},
                                 config.id_space, /*rng_seed=*/11);
    std::vector<std::string> urls;
    for (int id = 0; id < 32; ++id)
      urls.push_back("https://ad.test/" + std::to_string(id));
    (void)mapper.map_batch(urls);
    warm_urls = urls.size();
    warm_trips = mapper.transport_stats().round_trips();
  }

  // The swarm and the warm-up were concurrently in flight on the same
  // fixed thread and fd set — sample both before collecting stragglers.
  const std::size_t threads_during = proto::raw::process_threads();
  const std::size_t fds_during = scenario::open_fds();
  sink.wait_all(n);
  if (!sink.first_error.empty())
    std::fprintf(stderr, "%s (%zu of %zu reporters failed)\n",
                 sink.first_error.c_str(), n - sink.acked, n);
  const double wall_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - t0)
          .count();

  // Overload-shed probe (self-serve only): freeze the dispatcher so one
  // stream's in-flight handler never completes, stuff that stream past
  // its server-side backlog, and watch the reactor shed the excess with
  // Error(kUnavailable) + retry-after — which this client honors by
  // backing off and resubmitting, so every probe exchange still answers
  // once the dispatcher thaws. Runs after the swarm (same port, same
  // stack) and uses side-effect-free OprfKeyQuery frames, so the round's
  // aggregate cannot be perturbed.
  bool overload_ok = true;
  std::uint64_t probe_sheds = 0;
  std::uint64_t probe_retries = 0;
  constexpr std::size_t kProbeOverflow = 8;
  if (local) {
    const std::uint64_t sheds_before =
        local->server().stats().reactor.streams_shed;
    const std::uint64_t retries_before =
        reactor.counters().unavailable_retries;
    const std::size_t probe_total =
        1 + proto::FrameServerOptions{}.max_stream_backlog + kProbeOverflow;
    SwarmSink probe;
    probe.want = proto::MsgKind::kOprfKeyAnswer;
    auto probe_mux = reactor.open_mux(host, port);
    auto probe_stream = probe_mux->open_stream();
    local->dispatcher().pause();
    for (std::size_t i = 0; i < probe_total; ++i)
      probe_stream->exchange_async(proto::encode_oprf_key_query(),
                                   [&probe, probe_total,
                                    i](proto::AsyncResult r) {
                                     probe.complete(i, std::move(r),
                                                    probe_total);
                                   });
    // Thaw only after the server has counted the shed tail (bounded spin:
    // the sheds are synchronous with the reactor reading the probe burst).
    for (int spin = 0; spin < 10'000; ++spin) {
      if (local->server().stats().reactor.streams_shed - sheds_before >=
          kProbeOverflow)
        break;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    local->dispatcher().resume();
    probe.wait_all(probe_total);
    probe_sheds = local->server().stats().reactor.streams_shed - sheds_before;
    probe_retries =
        reactor.counters().unavailable_retries - retries_before;
    overload_ok = probe.acked == probe_total &&
                  probe_sheds >= kProbeOverflow &&
                  probe_retries >= kProbeOverflow;
    if (!overload_ok)
      std::fprintf(stderr,
                   "FAIL: overload probe — %zu/%zu served, %llu sheds, "
                   "%llu client resubmissions (want >= %zu of each)\n",
                   probe.acked, probe_total,
                   static_cast<unsigned long long>(probe_sheds),
                   static_cast<unsigned long long>(probe_retries),
                   kProbeOverflow);
  }

  // Close the round through the control plane so a --once server exits,
  // then rebuild the same round in-process: the swarm's aggregate must be
  // bit-identical to n local submissions of the same synthetic cells.
  const auto missing = remote.missing_participants();
  const server::RoundResult result = remote.finalize_round();
  server::BackendCluster reference(config, kNetShards);
  reference.begin_round(/*round=*/0, n);
  for (std::size_t i = 0; i < n; ++i)
    reference.submit_report(i, reporter_cells(config, i));
  const server::RoundResult want = reference.finalize_round();
  const bool identical = scenario::results_identical(want, result);

  const std::size_t client_threads = threads_during - threads_before;
  const std::size_t fd_delta =
      fds_during > fds_before ? fds_during - fds_before : 0;
  const auto counters = reactor.counters();
  // Aggregate the mux channels' envelope-byte accounting: counted on the
  // version-1 bytes, so these totals match what a socket-per-reporter
  // client of the same size would report.
  proto::TransportStats mux_stats{};
  for (const auto& m : muxes) {
    const auto s = m->stats();
    mux_stats.messages_sent += s.messages_sent;
    mux_stats.bytes_sent += s.bytes_sent;
    mux_stats.messages_received += s.messages_received;
    mux_stats.bytes_received += s.bytes_received;
  }
  std::printf("%zu logical reporters over %zu mux connection(s), window "
              "%zu in flight: %zu acked, %zu missing at finalize; OPRF "
              "warm-up of %zu URLs in %llu trip(s) overlapped the swarm\n",
              n, muxes.size(), prime, sink.acked, missing.size(), warm_urls,
              static_cast<unsigned long long>(warm_trips));
  std::printf("mux channels: %llu frames / %llu B up, %llu frames / "
              "%llu B down (v1-equivalent byte accounting)\n",
              static_cast<unsigned long long>(mux_stats.messages_sent),
              static_cast<unsigned long long>(mux_stats.bytes_sent),
              static_cast<unsigned long long>(mux_stats.messages_received),
              static_cast<unsigned long long>(mux_stats.bytes_received));
  std::printf("wall %.1f ms (%.0f reporters/s incl. connect+report+ack)\n",
              wall_ms, 1000.0 * static_cast<double>(n) / wall_ms);
  std::printf("client reactor: %zu shard thread(s) for %llu connection(s), "
              "%llu mux-negotiated (%llu retries, %llu deadline drops, "
              "%llu eventfd wakeups)\n",
              reactor.shards(),
              static_cast<unsigned long long>(counters.connects_established),
              static_cast<unsigned long long>(counters.mux_negotiated),
              static_cast<unsigned long long>(counters.connect_retries),
              static_cast<unsigned long long>(counters.deadline_drops),
              static_cast<unsigned long long>(counters.eventfd_wakeups));
  std::printf("resident client-side threads while driving: %zu "
              "(= reactor shards; never O(reporters))\n",
              client_threads);
  std::printf("open fds while driving: +%zu over baseline %zu "
              "(budget %zu; independent of N=%zu)\n",
              fd_delta, fds_before, kMuxFdBudget, n);
  std::printf("round finalized over the same port: Users_th=%.3f (%zu/%zu "
              "reported), aggregate %s vs in-process reference\n",
              result.users_threshold, result.reports, result.roster,
              identical ? "bit-identical" : "MISMATCH");
  // Zero-copy ingest budget: frame-pool misses are one-time allocations
  // for the in-flight high-water, which the client window bounds — so the
  // budget is the window plus slack, independent of N (a recycle leak
  // shows up as misses ~ N and fails here at the 16x size).
  bool ingest_ok = true;
  if (local) {
    std::printf("overload probe: dispatcher frozen, %llu stream shed(s) "
                "answered with retry-after; client backoff resubmitted "
                "%llu time(s); all probe exchanges served after thaw\n",
                static_cast<unsigned long long>(probe_sheds),
                static_cast<unsigned long long>(probe_retries));
    const proto::FrameServerStats server_stats = local->server().stats();
    std::printf("server side: %zu accepted (%llu mux-negotiated) / %llu "
                "refused on %zu reactor shard(s) + acceptor + %zu dispatch "
                "lane(s); %llu stream shed(s), dispatcher %llu accepted / "
                "%llu shed\n",
                static_cast<std::size_t>(
                    local->server().connections_accepted()),
                static_cast<unsigned long long>(
                    server_stats.reactor.mux_connections),
                static_cast<unsigned long long>(
                    local->server().connections_refused()),
                local->server().shards(), local->dispatcher().lanes(),
                static_cast<unsigned long long>(
                    server_stats.reactor.streams_shed),
                static_cast<unsigned long long>(
                    local->dispatcher().accepted()),
                static_cast<unsigned long long>(local->dispatcher().shed()));
    constexpr std::uint64_t kMissBudget = kMuxWindow + 128;
    std::printf("ingest fast path: %llu pooled frame(s), %llu pool miss(es) "
                "(budget %llu), %llu copied byte(s)\n",
                static_cast<unsigned long long>(
                    server_stats.reactor.frames_pooled),
                static_cast<unsigned long long>(
                    server_stats.reactor.pool_misses),
                static_cast<unsigned long long>(kMissBudget),
                static_cast<unsigned long long>(
                    server_stats.reactor.bytes_copied_ingest));
    ingest_ok = server_stats.reactor.pool_misses <= kMissBudget;
    if (!ingest_ok)
      std::fprintf(stderr,
                   "FAIL: ingest fast-path budget — %llu pool misses "
                   "(budget %llu, the in-flight window)\n",
                   static_cast<unsigned long long>(
                       server_stats.reactor.pool_misses),
                   static_cast<unsigned long long>(kMissBudget));
    local->stop();
  }
  const bool threads_ok = client_threads <= reactor.shards() + 1;
  if (!threads_ok)
    std::fprintf(stderr,
                 "FAIL: %zu resident client threads exceed shards + 1\n",
                 client_threads);
  const bool fds_ok = fd_delta <= kMuxFdBudget;
  if (!fds_ok)
    std::fprintf(stderr,
                 "FAIL: fd delta %zu exceeds the flat budget %zu — the mux "
                 "swarm's fd footprint must not grow with N\n",
                 fd_delta, kMuxFdBudget);
  const bool mux_ok = !local || counters.mux_negotiated >= muxes.size();
  if (!mux_ok)
    std::fprintf(stderr,
                 "FAIL: only %llu of %zu channels negotiated the mux "
                 "capability against a capable server\n",
                 static_cast<unsigned long long>(counters.mux_negotiated),
                 muxes.size());
  const bool ok = sink.acked == n && missing.empty() &&
                  result.reports == n && identical && threads_ok &&
                  fds_ok && mux_ok && overload_ok && ingest_ok;
  std::printf("multiplexing check: %s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}

int run_connect(const std::string& host, std::uint16_t port) {
  const server::BackendConfig config = server::default_config();

  // Both outbound links multiplex on one client-reactor shard; the OPRF
  // mapper (a sync Transport user) rides a channel through the blocking
  // adapter, unchanged.
  proto::ClientReactor reactor({.shards = 1, .backoff_jitter_seed = 7});

  // Channel 1: the oprf-server. Key distribution happens in-band — the
  // mapper is bootstrapped from the answer, nothing shared but the address.
  auto oprf_ch = reactor.open(host, port);
  proto::SyncTransportAdapter oprf_link(*oprf_ch);
  const proto::OprfKeyAnswer key = proto::OprfKeyAnswer::decode(
      proto::expect_reply(oprf_link.exchange(proto::encode_oprf_key_query()),
                          proto::MsgKind::kOprfKeyAnswer));
  oprf_link.reset_stats();  // count the warm-up alone below
  client::OprfUrlMapper mapper(oprf_link,
                               crypto::RsaPublicKey{.n = key.n, .e = key.e},
                               config.id_space, /*rng_seed=*/11);
  std::printf("oprf-server key fetched: RSA-%zu\n", key.n.bit_length());

  // Cold-cache warm-up: every landing URL the fleet will report, one
  // batched OPRF exchange.
  {
    std::vector<std::string> urls;
    for (int id = 0; id < 40; ++id)
      urls.push_back("https://ad.test/" + std::to_string(id));
    (void)mapper.map_batch(urls);
    std::printf("OPRF warm-up: %zu URLs in %llu round trip(s), %llu wire B\n",
                urls.size(),
                static_cast<unsigned long long>(
                    mapper.transport_stats().round_trips()),
                static_cast<unsigned long long>(
                    mapper.transport_stats().total_bytes()));
  }

  util::Rng rng(42);
  const crypto::DhGroup group = crypto::DhGroup::generate(rng, 128);

  // Reference run: the identical fleet and coordinator seed against an
  // in-process cluster. Same keys -> same pads -> same frames, so the
  // remote round below must reproduce this bit for bit.
  auto exts_local = make_fleet(mapper);
  server::BackendCluster local(config, kNetShards);
  server::RoundCoordinator ref(
      group, std::span<client::BrowserExtension>(exts_local), local,
      /*seed=*/17);
  const server::RoundResult want = ref.run_full_round(0);

  // Channel 2: the remote back-end, driven through the RoundBackend stub
  // in pipelined mode — report and adjustment submissions go out with
  // their acks collected in the background, and the protocol's phase
  // barriers flush. The coordinator code is the same one the loopback run
  // just used.
  auto round_ch = reactor.open(host, port);
  server::RemoteBackend remote(*round_ch, config);
  auto exts_tcp = make_fleet(mapper);
  server::RoundCoordinator live(
      group, std::span<client::BrowserExtension>(exts_tcp), remote,
      /*seed=*/17);
  const server::RoundResult got = live.run_full_round(0);

  const bool identical = scenario::results_identical(want, got);

  const auto stats = round_ch->stats();
  std::printf("round over TCP (async client, pipelined submissions): "
              "Users_th=%.3f (%zu/%zu reported)\n",
              got.users_threshold, got.reports, got.roster);
  std::printf("round channel: %llu exchanges, %llu B sent, %llu B received "
              "(envelope bytes; +4 B framing each way per frame)\n",
              static_cast<unsigned long long>(stats.round_trips()),
              static_cast<unsigned long long>(stats.bytes_sent),
              static_cast<unsigned long long>(stats.bytes_received));
  std::printf("loopback vs TCP aggregates: %s\n",
              identical ? "bit-identical (PASS)" : "MISMATCH (FAIL)");
  return identical ? 0 : 1;
}

int run_crash_demo(std::size_t n) {
  const server::BackendConfig config = server::default_config();

  // Control: the same round, uninterrupted, in-process. The recovered
  // round must match this bit for bit.
  server::BackendCluster reference(config, kNetShards);
  reference.begin_round(/*round=*/1, n);
  for (std::size_t i = 0; i < n; ++i)
    reference.submit_report(i, reporter_cells(config, i));
  const server::RoundResult want = reference.finalize_round();

  // Journal directory shared by both incarnations — under the working
  // directory so CI and sandboxes contain every byte this demo writes.
  char dir_template[] = "eyw-crash-demo.XXXXXX";
  if (mkdtemp(dir_template) == nullptr)
    throw std::runtime_error("mkdtemp failed");
  const std::string dir = dir_template;
  const std::string journal_dir = dir + "/journal";

  // Each incarnation is `quickstart --serve 0 --once --journal DIR
  // --port-file PATH` in a fresh OS process: kill -9 must take down a real
  // process image — page cache, threads, sockets and all — to prove
  // anything about the journal. Each is driven through a sync
  // RemoteBackend over a reactor channel: every call is one blocking round
  // trip, so each ack means the server applied that submission, and a
  // refusal throws at the call that made it. The reactor lives inside each
  // incarnation's scope, so no client thread or socket exists when the
  // next server is forked.

  // Incarnation 1: open the round, submit just over half the roster, then
  // SIGKILL.
  const std::size_t kill_after = n - n / 2;
  std::size_t missing_before_kill = 0;
  const pid_t first =
      server::spawn_journaled_server(journal_dir, dir + "/port1");
  {
    proto::ClientReactor reactor({.shards = 1});
    const auto channel = reactor.open(
        "127.0.0.1", server::await_port_file(dir + "/port1").port);
    proto::SyncTransportAdapter link(*channel);
    server::RemoteBackend remote(link, config);
    remote.begin_round(/*round=*/1, n);
    for (std::size_t i = 0; i < kill_after; ++i)
      remote.submit_report(i, reporter_cells(config, i));
    // Server-side durability barrier: missing_participants flushes the
    // journal before replying, so every ack above is ON DISK when the
    // SIGKILL lands — a deterministic kill point, not a race against the
    // group-commit writer.
    missing_before_kill = remote.missing_participants().size();
    kill(first, SIGKILL);
  }
  int first_status = 0;
  waitpid(first, &first_status, 0);
  const bool killed =
      WIFSIGNALED(first_status) && WTERMSIG(first_status) == SIGKILL;
  std::printf("incarnation 1: %zu/%zu reports accepted, then kill -9 "
              "(%s)\n",
              kill_after, n, killed ? "confirmed" : "UNEXPECTED EXIT");

  // Incarnation 2: same journal directory, brand-new process. It must
  // resume round 1 (adopt_round: no BeginRound — reopening would throw
  // the recovered submissions away), know exactly who is missing, refuse
  // a duplicate of a pre-crash report, and finalize bit-identical. Its
  // /stats must show the recovery replayed exactly the kill_after
  // submissions the barrier above flushed — the journal carries nothing
  // else — with nothing refused and no torn tail. Read before the
  // finalize: a --once server exits once the round is done.
  std::size_t missing_after_crash = 0;
  bool dup_refused = false;
  std::uint64_t replayed = 0;
  bool recovery_clean = false;
  std::optional<server::RoundResult> got;
  const pid_t second =
      server::spawn_journaled_server(journal_dir, dir + "/port2");
  {
    const server::ServedPorts ports =
        server::await_port_file(dir + "/port2");
    replayed = scenario::stat(ports.stats_port, "recovery_records_replayed");
    recovery_clean =
        replayed == kill_after &&
        scenario::stat(ports.stats_port, "recovery_records_refused") == 0 &&
        scenario::stat(ports.stats_port, "recovery_torn_bytes") == 0;
    proto::ClientReactor reactor({.shards = 1});
    const auto channel = reactor.open("127.0.0.1", ports.port);
    proto::SyncTransportAdapter link(*channel);
    server::RemoteBackend remote(link, config);
    remote.adopt_round(1);
    missing_after_crash = remote.missing_participants().size();
    try {
      remote.submit_report(0, reporter_cells(config, 0));
    } catch (const proto::ProtoError&) {
      dup_refused = true;  // the recovered round remembers reporter 0
    }
    for (std::size_t i = kill_after; i < n; ++i)
      remote.submit_report(i, reporter_cells(config, i));
    got = remote.finalize_round();
  }
  int second_status = 0;
  waitpid(second, &second_status, 0);  // --once: exits after the finalize
  const bool clean_exit =
      WIFEXITED(second_status) && WEXITSTATUS(second_status) == 0;

  const bool identical =
      got.has_value() && scenario::results_identical(want, *got);
  std::printf("incarnation 2: /stats shows %llu record(s) replayed (want "
              "%zu), recovery %s; recovered %zu missing (want %zu), "
              "duplicate of pre-crash report %s, round finalized: "
              "Users_th=%.3f (%zu/%zu reported)\n",
              static_cast<unsigned long long>(replayed), kill_after,
              recovery_clean ? "clean" : "NOT CLEAN (FAIL)",
              missing_after_crash, n - kill_after,
              dup_refused ? "refused" : "ACCEPTED (FAIL)",
              got ? got->users_threshold : 0.0, got ? got->reports : 0,
              got ? got->roster : 0);
  std::printf("recovered aggregate vs uninterrupted control: %s\n",
              identical ? "bit-identical" : "MISMATCH");

  std::error_code ec;
  std::filesystem::remove_all(dir, ec);  // best-effort cleanup

  const bool ok = killed && clean_exit && recovery_clean &&
                  missing_before_kill == n - kill_after &&
                  missing_after_crash == n - kill_after && dup_refused &&
                  identical;
  std::printf("crash-recovery check: %s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}

}  // namespace

namespace {

/// Parse a whole decimal token as a port; -1 on anything else (empty,
/// trailing garbage, out of range) so "8o80" cannot silently bind port 8.
long parse_port(const char* token) {
  char* end = nullptr;
  const long port = std::strtol(token, &end, 10);
  if (end == token || *end != '\0' || port < 0 || port > 65535) return -1;
  return port;
}

/// Operational failures in the networked modes (peer down, port in use,
/// mid-round disconnect) are expected events for an operator: report and
/// exit nonzero, never abort.
int run_guarded(const std::function<int()>& mode) {
  try {
    return mode();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "quickstart: %s\n", e.what());
    return 1;
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 1) return run_loopback_demo();

  const std::string mode = argv[1];
  if (mode == "--serve") return server::serve_main(argc, argv);
  if (mode == "--crash-demo" && (argc == 2 || argc == 3)) {
    long n = 24;
    if (argc == 3) {
      char* end = nullptr;
      n = std::strtol(argv[2], &end, 10);
      if (end == argv[2] || *end != '\0' || n < 2 || n > 65536) {
        std::fprintf(stderr, "usage: quickstart --crash-demo [N]\n");
        return 2;
      }
    }
    return run_guarded(
        [&] { return run_crash_demo(static_cast<std::size_t>(n)); });
  }
  if (mode == "--scenario" && argc >= 3) {
    const std::string name = argv[2];
    scenario::ScenarioOptions options;
    options.work_dir = std::filesystem::temp_directory_path().string();
    bool usage_ok = true;
    for (int i = 3; usage_ok && i < argc; ++i) {
      const std::string flag = argv[i];
      char* end = nullptr;
      if (flag == "--seed" && i + 1 < argc) {
        options.seed = std::strtoull(argv[++i], &end, 10);
        usage_ok = end != argv[i] && *end == '\0';
      } else if (flag == "--reporters" && i + 1 < argc) {
        const long n = std::strtol(argv[++i], &end, 10);
        usage_ok = end != argv[i] && *end == '\0' && n >= 2 && n <= 65536;
        options.reporters = static_cast<std::size_t>(n);
      } else if (flag == "--soak-seconds" && i + 1 < argc) {
        const long s = std::strtol(argv[++i], &end, 10);
        usage_ok = end != argv[i] && *end == '\0' && s >= 1 && s <= 86'400;
        options.soak_budget = std::chrono::seconds(s);
      } else {
        usage_ok = false;
      }
    }
    if (!usage_ok) {
      std::fprintf(stderr,
                   "usage: quickstart --scenario NAME [--seed S] "
                   "[--reporters N] [--soak-seconds S]\n");
      return 2;
    }
    return run_guarded([&] { return scenario::run_scenario(name, options); });
  }
  if (mode == "--connect" && argc == 3) {
    const std::string target = argv[2];
    const std::size_t colon = target.rfind(':');
    if (colon == std::string::npos || colon == 0) {
      std::fprintf(stderr, "usage: quickstart --connect HOST:PORT\n");
      return 2;
    }
    const long port = parse_port(target.c_str() + colon + 1);
    if (port <= 0) {
      std::fprintf(stderr, "quickstart: bad port in %s\n", target.c_str());
      return 2;
    }
    return run_guarded([&] {
      return run_connect(target.substr(0, colon),
                         static_cast<std::uint16_t>(port));
    });
  }
  if (mode == "--reporters" && (argc == 3 || argc == 4)) {
    char* end = nullptr;
    const long n = std::strtol(argv[2], &end, 10);
    std::string host;
    long port = -1;
    // The swarm fans logical streams over eight sockets, so the ceiling is
    // the per-connection stream-id cap (8 x 65536), not fds.
    bool usage_ok =
        end != argv[2] && *end == '\0' && n >= 1 && n <= 524'288;
    if (usage_ok && argc == 4) {
      const std::string target = argv[3];
      const std::size_t colon = target.rfind(':');
      usage_ok = colon != std::string::npos && colon != 0 &&
                 (port = parse_port(target.c_str() + colon + 1)) > 0;
      if (usage_ok) host = target.substr(0, colon);
    }
    if (!usage_ok) {
      std::fprintf(stderr, "usage: quickstart --reporters N [HOST:PORT]\n");
      return 2;
    }
    return run_guarded([&] {
      return run_reporters(static_cast<std::size_t>(n), host, port);
    });
  }
  std::fprintf(stderr,
               "usage: quickstart [--serve PORT [--once] [--journal DIR] "
               "[--port-file PATH] | --connect HOST:PORT | --reporters N "
               "[HOST:PORT] | --crash-demo [N] | --scenario NAME [--seed S] "
               "[--reporters N] [--soak-seconds S]]\n");
  return 2;
}
