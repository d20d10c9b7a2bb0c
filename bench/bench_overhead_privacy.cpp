// Section 7.1: performance and overhead of the privacy-preserving protocol.
//
// Reproduces every number of that section:
//  * CMS size vs cleartext reporting, for T = 10k / 50k / 100k
//    (paper: 185 / 196 / 207 KB vs ~3.5 KB average cleartext);
//  * blinding-roster exchange per client for 10k / 50k users
//    (paper: 0.38 MB / 1.9 MB, assuming ~256-bit group elements);
//  * client-side blinding computation time (paper: ~30 s for 1k users and
//    a 5k-cell sketch, on 2019 hardware and per-cell hashing; our pads are
//    expanded in counter mode, so expect a much smaller number);
//  * OPRF mapping latency and wire size (paper: <500 ms, two group
//    elements).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <latch>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "bench_json.hpp"
#include "client/url_mapper.hpp"
#include "crypto/blinding.hpp"
#include "crypto/mont_kernel.hpp"
#include "proto/client_reactor.hpp"
#include "proto/raw_frame_io.hpp"
#include "proto/tcp.hpp"
#include "server/cluster.hpp"
#include "server/dispatcher.hpp"
#include "server/durable_backend.hpp"
#include "server/endpoint.hpp"
#include "scenario/harness.hpp"
#include "server/remote_backend.hpp"
#include "server/round.hpp"
#include "sketch/count_min.hpp"

namespace {
using namespace eyw;
using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

// ----------------------------------------------------------------------
// Transport-concurrency bench helpers: a minimal reproduction of the
// pre-reactor thread-per-connection FrameServer (blocking accept, one
// blocking exchange-loop thread per connection), so the before/after of
// the concurrency model is measured inside one binary — the production
// reactor FrameServer is the after. Raw-frame client I/O comes from
// proto/raw_frame_io.hpp (shared with quickstart --reporters and the
// reactor tests).

using eyw::proto::raw::connect_loopback;
using eyw::proto::raw::process_threads;
using eyw::proto::raw::read_framed;
using eyw::proto::raw::with_prefix;

bool send_raw(int fd, std::span<const std::uint8_t> bytes) {
  return eyw::proto::raw::send_all(fd, bytes);
}

/// The old model, distilled: every accepted connection gets its own OS
/// thread running a blocking read-frame / handle / write-reply loop.
class ThreadPerConnServer {
 public:
  explicit ThreadPerConnServer(eyw::proto::FrameHandler handler)
      : handler_(std::move(handler)) {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    struct sockaddr_in addr {};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    (void)::bind(listen_fd_, reinterpret_cast<struct sockaddr*>(&addr),
                 sizeof(addr));
    (void)::listen(listen_fd_, 256);
    socklen_t len = sizeof(addr);
    (void)::getsockname(listen_fd_,
                        reinterpret_cast<struct sockaddr*>(&addr), &len);
    port_ = ntohs(addr.sin_port);
    acceptor_ = std::thread([this] {
      for (;;) {
        const int fd = ::accept(listen_fd_, nullptr, nullptr);
        if (fd < 0) return;  // listener closed: shutting down
        std::lock_guard<std::mutex> lock(mu_);
        workers_.emplace_back([this, fd] {
          for (;;) {
            const auto request = read_framed(fd);
            if (request.empty()) break;  // EOF (bench requests: never empty)
            if (!send_raw(fd, with_prefix(handler_(request)))) break;
          }
          ::close(fd);
        });
      }
    });
  }

  ~ThreadPerConnServer() {
    ::shutdown(listen_fd_, SHUT_RDWR);
    ::close(listen_fd_);
    acceptor_.join();
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& w : workers_) w.join();
  }

  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

 private:
  eyw::proto::FrameHandler handler_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::thread acceptor_;
  std::mutex mu_;
  std::vector<std::thread> workers_;
};

struct ConcurrencyRow {
  double wall_ms = 0.0;
  std::size_t peak_threads = 0;
  std::size_t exchanges = 0;
};

/// C concurrent connections, `rounds` outstanding-request waves each: all
/// connections hold an in-flight request at once, every wave. Peak
/// resident threads are sampled with every connection established.
ConcurrencyRow drive_connections(std::uint16_t port, std::size_t conns,
                                 int rounds) {
  const auto framed = with_prefix(eyw::proto::encode_oprf_key_query());
  ConcurrencyRow row;
  const auto t0 = Clock::now();
  std::vector<int> fds;
  fds.reserve(conns);
  for (std::size_t i = 0; i < conns; ++i) {
    const int fd = connect_loopback(port);
    if (fd < 0) break;
    fds.push_back(fd);
  }
  for (int r = 0; r < rounds; ++r) {
    for (const int fd : fds) (void)send_raw(fd, framed);
    row.peak_threads = std::max(row.peak_threads, process_threads());
    for (const int fd : fds)
      if (!read_framed(fd).empty()) ++row.exchanges;
  }
  row.wall_ms = ms_since(t0);
  for (const int fd : fds) ::close(fd);
  return row;
}

// ----------------------------------------------------------------------
// Durability bench helpers: the 128-reporter round over TCP (reactor
// server, sharded dispatch, pipelined control plane) with the write-ahead
// journal off / group-commit / fsync-per-submit, same synthetic inputs.
// Two round shapes share the harness: the full protocol round (reporters
// derive their per-round blinding pads and submit as each is ready — the
// deployment-shaped arrival pattern) and a burst round (pre-encoded
// frames, no client compute — adversarial pressure on the queue).

struct DurableRoundRow {
  double wall_ms = 0.0;  // best full-round wall across the repeats
  double users_threshold = 0.0;
  std::size_t reports = 0;
  std::size_t acked = 0;
  eyw::storage::DurabilityStats stats;  // zeroes when the journal is off
};

eyw::server::BackendConfig durable_bench_config() {
  // 4 x 64 cells keeps the paced round (128 reporters x 127-peer pad
  // expansion each) in bench territory; journal volume and client compute
  // both scale linearly in cells, so the on/off ratio is unaffected.
  return {.cms_params = {.depth = 4, .width = 64},
          .cms_hash_seed = 3,
          .id_space = 10'000,
          .users_rule = eyw::core::ThresholdRule::kMean};
}

std::vector<eyw::crypto::BlindCell> durable_bench_cells(std::size_t i,
                                                        std::size_t cells) {
  std::vector<eyw::crypto::BlindCell> out(cells);
  for (std::size_t c = 0; c < cells; ++c)
    out[c] = static_cast<eyw::crypto::BlindCell>(i * 2654435761u + c);
  return out;
}

/// The client-side half of the paper's round: a fixed roster whose members
/// derive additive shares of zero pairwise (Kursawe-style). Built once —
/// roster keygen plus every pairwise DH secret — and shared read-only by
/// all bench modes; blind() is const and per-reporter.
struct BlindingSwarm {
  eyw::crypto::DhGroup group;
  std::vector<eyw::crypto::BlindingParticipant> participants;
};

BlindingSwarm make_blinding_swarm(std::size_t reporters) {
  eyw::util::Rng rng(31);
  eyw::crypto::DhGroup group = eyw::crypto::DhGroup::generate(rng, 256);
  std::vector<eyw::crypto::DhKeyPair> keys;
  std::vector<eyw::crypto::Bignum> publics;
  keys.reserve(reporters);
  publics.reserve(reporters);
  for (std::size_t i = 0; i < reporters; ++i) {
    keys.push_back(eyw::crypto::dh_keygen(group, rng));
    publics.push_back(keys.back().public_key);
  }
  BlindingSwarm swarm{std::move(group), {}};
  swarm.participants.reserve(reporters);
  for (std::size_t i = 0; i < reporters; ++i)
    swarm.participants.push_back(eyw::crypto::BlindingParticipant(
        swarm.group, i, keys[i],
        std::span<const eyw::crypto::Bignum>(publics)));
  return swarm;
}

/// Reporter i's true (unblinded) sketch cells: sparse small counts, so
/// the aggregate the pads cancel down to is deterministic across modes.
std::vector<eyw::crypto::BlindCell> durable_true_cells(std::size_t i,
                                                       std::size_t cells) {
  std::vector<eyw::crypto::BlindCell> out(cells, 0);
  for (std::size_t c = i % 7; c < cells; c += 7 + i % 5)
    out[c] = static_cast<eyw::crypto::BlindCell>(1 + i % 3);
  return out;
}

/// One server stack + 128 reporter channels; `rounds` full rounds (begin,
/// 128 pipelined report submissions, missing barrier, finalize), keeping
/// the best wall time. Empty `journal_dir` = durability off. With a
/// `swarm`, each reporter derives its per-round pad and submits when
/// ready (the paper's cadence); without one, pre-encoded frames go out in
/// one burst.
DurableRoundRow run_durable_rounds(const std::string& journal_dir,
                                   bool sync_each, int rounds,
                                   const BlindingSwarm* swarm) {
  namespace server = eyw::server;
  constexpr std::size_t kReporters = 128;
  constexpr std::size_t kShards = 2;
  const server::BackendConfig config = durable_bench_config();

  server::BackendCluster cluster(config, kShards);
  std::unique_ptr<server::DurableBackend> durable;
  if (!journal_dir.empty())
    durable = std::make_unique<server::DurableBackend>(
        cluster, server::DurabilityConfig{.dir = journal_dir,
                                          .sync_each_submit = sync_each});
  server::BackendEndpoint endpoint(
      durable ? static_cast<server::RoundBackend&>(*durable)
              : static_cast<server::RoundBackend&>(cluster),
      &cluster, /*serve_control=*/true);
  server::AsyncDispatcher dispatcher(
      [&](std::span<const std::uint8_t> frame) {
        return endpoint.handle(frame);
      },
      kShards, server::cluster_lane_router(cluster),
      server::control_plane_barrier());
  eyw::proto::FrameServer frame_server(
      dispatcher.handler(),
      {.backlog = 256, .max_connections = kReporters + 8});
  dispatcher.set_frame_recycler(frame_server.frame_recycler());

  eyw::proto::ClientReactor reactor({.shards = 2, .backoff_jitter_seed = 5});
  auto control = reactor.open("127.0.0.1", frame_server.port());
  server::RemoteBackend remote(*control, config);
  std::vector<std::shared_ptr<eyw::proto::ClientChannel>> channels;
  channels.reserve(kReporters);
  for (std::size_t i = 0; i < kReporters; ++i)
    channels.push_back(reactor.open("127.0.0.1", frame_server.port()));

  DurableRoundRow row;
  row.wall_ms = 1e300;
  for (int r = 1; r <= rounds; ++r) {
    std::mutex mu;
    std::condition_variable cv;
    std::size_t done = 0;
    std::atomic<std::size_t> acked{0};
    const auto on_ack = [&](eyw::proto::AsyncResult res) {
      if (res.ok() && !res.reply.empty()) acked.fetch_add(1);
      std::lock_guard<std::mutex> lock(mu);
      ++done;
      cv.notify_one();
    };
    const auto t0 = Clock::now();
    remote.begin_round(static_cast<std::uint64_t>(r), kReporters);
    if (swarm != nullptr) {
      // Full protocol round: a few client threads work through the
      // roster, each reporter blinding its true cells with its per-round
      // pad and shipping the report the moment it is ready. Submissions
      // arrive spread across the round's client compute — the queue's
      // group commit runs concurrently instead of after one burst.
      std::atomic<std::size_t> cursor{0};
      constexpr std::size_t kClientThreads = 4;
      std::vector<std::thread> swarm_threads;
      swarm_threads.reserve(kClientThreads);
      for (std::size_t t = 0; t < kClientThreads; ++t)
        swarm_threads.emplace_back([&] {
          for (std::size_t i; (i = cursor.fetch_add(1)) < kReporters;) {
            const std::vector<eyw::crypto::BlindCell> cells =
                durable_true_cells(i, config.cms_params.cells());
            const auto frame =
                eyw::proto::BlindedReport{
                    .participant = static_cast<std::uint32_t>(i),
                    .params = config.cms_params,
                    .cells = swarm->participants[i].blind(
                        cells, static_cast<std::uint64_t>(r))}
                    .encode(static_cast<std::uint64_t>(r));
            channels[i]->exchange_async(frame, on_ack);
          }
        });
      for (std::thread& th : swarm_threads) th.join();
    } else {
      for (std::size_t i = 0; i < kReporters; ++i) {
        const auto frame =
            eyw::proto::BlindedReport{
                .participant = static_cast<std::uint32_t>(i),
                .params = config.cms_params,
                .cells = durable_bench_cells(i, config.cms_params.cells())}
                .encode(static_cast<std::uint64_t>(r));
        channels[i]->exchange_async(frame, on_ack);
      }
    }
    {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return done == kReporters; });
    }
    (void)remote.missing_participants();
    const server::RoundResult result = remote.finalize_round();
    row.wall_ms = std::min(row.wall_ms, ms_since(t0));
    row.users_threshold = result.users_threshold;
    row.reports = result.reports;
    row.acked = acked.load();
  }
  if (durable) {
    row.stats = durable->stats();
    durable->shutdown();
  }
  return row;
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
    util::Rng rng(42);
    const crypto::DhGroup group = crypto::DhGroup::generate(rng, 256);
    // One real participant against a 1k roster: keygen for all peers, then
    // time the shared-secret derivation + pad expansion exactly as a
    // deployed client would run it.
    const std::size_t kRoster = 1'000;
    std::vector<crypto::DhKeyPair> keys;
    std::vector<crypto::Bignum> publics;
    keys.reserve(kRoster);
    for (std::size_t i = 0; i < kRoster; ++i) {
      keys.push_back(crypto::dh_keygen(group, rng));
      publics.push_back(keys.back().public_key);
    }
    const auto t0 = Clock::now();
    const crypto::BlindingParticipant participant(
        group, 0, keys[0], std::span<const crypto::Bignum>(publics));
    const double setup_ms = ms_since(t0);
    const auto t1 = Clock::now();
    const auto blind = participant.blinding_vector(5'000, /*round=*/1);
    const double blind_ms = ms_since(t1);
    std::printf("  pairwise-secret derivation (999 modexps): %8.1f ms\n",
                setup_ms);
    std::printf("  pad expansion for 5k cells x 999 peers:   %8.1f ms\n",
                blind_ms);
    std::printf("  total: %.1f s (paper: ~30 s; weekly, background)\n",
                (setup_ms + blind_ms) / 1000.0);
    std::printf("  (checksum %u)\n", blind[0]);
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

    // Same round again, but the back-end behind a real socket (localhost
    // TCP via RemoteBackend): the honest cost of deployment over the
    // loopback simulation. Identical fleet + coordinator seed, so the
    // result must be bit-identical; the wire adds the operator control
    // plane (begin/missing/finalize) and 4 B of length framing per frame.
    std::vector<client::BrowserExtension> exts_tcp;
    for (core::UserId u = 0; u < 60; ++u) exts_tcp.emplace_back(u, ecfg, mapper);
    for (auto& e : exts_tcp) {
      for (int a = 0; a < 35; ++a) {
        e.observe_ad("https://ad.test/" +
                         std::to_string((e.user() * 7 + a * 13) % 900),
                     static_cast<core::DomainId>(a % 9), 0);
      }
    }
    server::BackendServer tcp_backend({.cms_params = params,
                                       .cms_hash_seed = 3,
                                       .id_space = 10'000,
                                       .users_rule = core::ThresholdRule::kMean});
    server::BackendEndpoint endpoint(tcp_backend, /*serve_control=*/true);
    eyw::proto::FrameServer frame_server(
        [&](std::span<const std::uint8_t> frame) {
          return endpoint.handle(frame);
        });
    eyw::proto::TcpTransport link("127.0.0.1", frame_server.port());
    server::RemoteBackend remote(link, tcp_backend.config());
    server::RoundCoordinator tcp_coordinator(
        group, std::span<client::BrowserExtension>(exts_tcp), remote, 17);
    const auto t2 = Clock::now();
    const auto tcp_round = tcp_coordinator.run_full_round(0);
    const double tcp_ms = ms_since(t2);
    const auto& ls = link.stats();
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

  std::printf("\n== Transport concurrency: thread-per-connection vs "
              "reactor ==\n");
  {
    // Same workload against both concurrency models: C concurrent
    // connections each holding an outstanding request per wave, small
    // envelopes (the protocol's dominant frame count). The baseline
    // thread count is sampled first so only transport threads are
    // attributed to each row.
    const std::size_t kConns = 128;
    const int kRounds = 4;
    const auto ack_handler = [](std::span<const std::uint8_t> frame) {
      (void)eyw::proto::decode_envelope(frame);
      return eyw::proto::encode_ack();
    };
    const std::size_t base_threads = process_threads();

    ConcurrencyRow threaded;
    {
      ThreadPerConnServer server(ack_handler);
      threaded = drive_connections(server.port(), kConns, kRounds);
    }
    ConcurrencyRow reactor;
    std::size_t reactor_shards = 0;
    {
      eyw::proto::FrameServer server(ack_handler,
                                     {.backlog = 256,
                                      .max_connections = kConns + 8});
      reactor_shards = server.shards();
      reactor = drive_connections(server.port(), kConns, kRounds);
    }

    std::printf("  %zu connections x %d waves, %zu exchanges (client side "
                "included in thread counts):\n",
                kConns, kRounds, threaded.exchanges);
    std::printf("  %-18s %10s %14s %18s\n", "model", "wall ms",
                "exchanges/s", "transport threads");
    std::printf("  %-18s %10.1f %14.0f %18zu\n", "thread-per-conn",
                threaded.wall_ms,
                1000.0 * static_cast<double>(threaded.exchanges) /
                    threaded.wall_ms,
                threaded.peak_threads - base_threads);
    std::printf("  %-18s %10.1f %14.0f %18zu  (= %zu shard(s) + "
                "acceptor)\n",
                "reactor", reactor.wall_ms,
                1000.0 * static_cast<double>(reactor.exchanges) /
                    reactor.wall_ms,
                reactor.peak_threads - base_threads, reactor_shards);
    if (threaded.exchanges != reactor.exchanges ||
        reactor.exchanges != kConns * static_cast<std::size_t>(kRounds)) {
      std::printf("  MISMATCH: exchange counts differ\n");
      return 1;
    }

    // Outbound side of the same story: one process *driving* R reporter
    // connections. Thread-per-link (one blocking TcpTransport on its own
    // thread per reporter — the only way to hold R exchanges in flight
    // with the sync client) vs R ClientReactor channels pipelined on 2
    // shard threads. Every reporter connects, holds one in-flight
    // exchange, and stays connected until all have finished, so peak
    // thread counts are sampled at full swarm width (numbers recorded in
    // docs/perf.md).
    std::printf("\n  outbound driver at swarm width (1 exchange/reporter, "
                "all concurrent):\n");
    std::printf("  %-9s %-18s %10s %20s %12s\n", "reporters", "model",
                "wall ms", "client threads", "wire KB");
    for (const std::size_t reporters : {128u, 512u, 1024u}) {
      // Backlog sized to the swarm: the reactor client fires all R
      // connects in the same instant, and a SYN dropped off a full accept
      // queue costs a 1 s kernel retransmit — an operator knob, not a
      // transport property (see docs/protocol.md, scaling knobs).
      eyw::proto::FrameServer swarm_server(
          ack_handler,
          {.backlog = static_cast<int>(reporters + 8),
           .max_connections = reporters + 8});
      const auto ping = eyw::proto::encode_oprf_key_query();

      {
        const std::size_t base = process_threads();
        std::atomic<std::size_t> finished{0};
        std::atomic<std::size_t> ok{0};
        std::atomic<std::uint64_t> wire_bytes{0};
        // Everyone (workers + sampler) parks here until the last reporter
        // has its reply, keeping all R connections simultaneously open.
        std::latch hold(static_cast<std::ptrdiff_t>(reporters) + 1);
        const auto t0 = Clock::now();
        std::vector<std::thread> links;
        links.reserve(reporters);
        for (std::size_t i = 0; i < reporters; ++i) {
          links.emplace_back([&] {
            try {
              eyw::proto::TcpTransport link("127.0.0.1",
                                            swarm_server.port());
              const auto reply = link.exchange(ping);
              wire_bytes.fetch_add(ping.size() + reply.size(),
                                   std::memory_order_relaxed);
              if (!reply.empty()) ok.fetch_add(1);
              finished.fetch_add(1);
              hold.arrive_and_wait();
            } catch (const std::exception&) {
              finished.fetch_add(1);  // failed links count too: no hang
              hold.count_down();
            }
          });
        }
        std::size_t peak = process_threads();
        while (finished.load(std::memory_order_relaxed) < reporters) {
          peak = std::max(peak, process_threads());
          std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
        peak = std::max(peak, process_threads());
        const double wall = ms_since(t0);
        hold.arrive_and_wait();
        for (auto& t : links) t.join();
        if (ok.load() != reporters)
          std::printf("  (%zu/%zu thread-per-link exchanges failed)\n",
                      reporters - ok.load(), reporters);
        std::printf("  %-9zu %-18s %10.1f %20zu %12.1f\n", reporters,
                    "thread-per-link", wall, peak - base,
                    static_cast<double>(wire_bytes.load()) / 1000.0);
      }

      // Let the server fully release the previous model's connections:
      // otherwise this row's connect burst can land on top of them,
      // trip the admission cap, and skew the comparison.
      for (int spin = 0;
           spin < 5'000 && swarm_server.active_connections() != 0; ++spin)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));

      {
        const std::size_t base = process_threads();
        eyw::proto::ClientReactor reactor(
            {.shards = 2, .backoff_jitter_seed = 3});
        std::mutex mu;
        std::condition_variable cv;
        std::size_t done = 0;
        std::atomic<std::size_t> acked{0};
        const auto t0 = Clock::now();
        std::vector<std::shared_ptr<eyw::proto::ClientChannel>> channels;
        channels.reserve(reporters);
        for (std::size_t i = 0; i < reporters; ++i)
          channels.push_back(
              reactor.open("127.0.0.1", swarm_server.port()));
        for (std::size_t i = 0; i < reporters; ++i) {
          channels[i]->exchange_async(
              ping, [&](eyw::proto::AsyncResult r) {
                if (r.ok() && !r.reply.empty()) acked.fetch_add(1);
                std::lock_guard<std::mutex> lock(mu);
                ++done;
                cv.notify_one();
              });
        }
        const std::size_t peak = process_threads();
        {
          std::unique_lock<std::mutex> lock(mu);
          cv.wait(lock, [&] { return done == reporters; });
        }
        const double wall = ms_since(t0);
        std::uint64_t wire_bytes = 0;
        for (const auto& ch : channels) {
          const auto s = ch->stats();
          wire_bytes += s.bytes_sent + s.bytes_received;
        }
        if (acked.load() != reporters)
          std::printf("  (%zu/%zu client-reactor exchanges lost their "
                      "reply; %llu refused at the admission cap)\n",
                      reporters - acked.load(), reporters,
                      static_cast<unsigned long long>(
                          swarm_server.connections_refused()));
        std::printf("  %-9zu %-18s %10.1f %17zu =%zu %12.1f\n", reporters,
                    "client-reactor", wall,
                    std::max(peak, process_threads()) - base,
                    reactor.shards(),
                    static_cast<double>(wire_bytes) / 1000.0);
      }
    }

    // TCP_NODELAY before/after on one sequential request/reply channel:
    // what Nagle + delayed-ACK coalescing costs a small-envelope exchange
    // (numbers recorded in docs/perf.md).
    const int kPings = 200;
    double nodelay_ms[2] = {0.0, 0.0};
    for (const bool nodelay : {false, true}) {
      eyw::proto::FrameServer server(
          ack_handler, {.tcp_nodelay = nodelay});
      eyw::proto::TcpTransport client(
          "127.0.0.1", server.port(),
          {.tcp_nodelay = nodelay});
      const auto ping = eyw::proto::encode_oprf_key_query();
      const auto t0 = Clock::now();
      for (int i = 0; i < kPings; ++i) (void)client.exchange(ping);
      nodelay_ms[nodelay ? 1 : 0] = ms_since(t0);
    }
    std::printf("  TCP_NODELAY off: %7.3f ms/exchange | on: %7.3f "
                "ms/exchange (%d sequential small-envelope round trips)\n",
                nodelay_ms[0] / kPings, nodelay_ms[1] / kPings, kPings);
  }

  std::printf("\n== Channel multiplexing: socket-per-reporter vs mux "
              "streams ==\n");
  {
    // The quickstart swarm, measured: the same N-reporter synthetic round
    // (begin, N BlindedReports, missing barrier, finalize) driven once
    // with one socket per reporter (the PR 4 shape) and once with N
    // logical streams fanned over 8 mux-negotiated connections with a
    // sliding completion-chained window (PR 9). Identical inputs, so the
    // two finalizes must be bit-identical; the table records what the
    // multiplexer costs (or saves) per reporter and what it does to the
    // process's fd footprint at full swarm width (numbers recorded in
    // docs/perf.md, rows in the perf-trajectory json).
    namespace server = eyw::server;
    const server::BackendConfig config = durable_bench_config();

    struct SwarmRow {
      double wall_ms = 0.0;
      std::size_t acked = 0;
      std::size_t fds = 0;  // open fds with the whole swarm in flight
      std::optional<server::RoundResult> result;
    };

    const auto run_swarm = [&config](std::size_t n, bool use_mux) {
      constexpr std::size_t kMuxConns = 8;
      constexpr std::size_t kWindow = 2048;
      server::BackendCluster cluster(config, 2);
      server::BackendEndpoint endpoint(cluster, &cluster,
                                       /*serve_control=*/true);
      server::AsyncDispatcher dispatcher(
          [&](std::span<const std::uint8_t> frame) {
            return endpoint.handle(frame);
          },
          2, server::cluster_lane_router(cluster),
          server::control_plane_barrier(),
          server::DispatcherLimits{.max_lane_depth = 8192,
                                   .retry_after_ms = 25,
                                   .counters = &endpoint.counters()});
      eyw::proto::FrameServer frame_server(
          dispatcher.handler(),
          {.backlog = static_cast<int>(std::max<std::size_t>(256, n + 8)),
           .max_connections = (use_mux ? kMuxConns : n) + 8});
      dispatcher.set_frame_recycler(frame_server.frame_recycler());
      eyw::proto::ClientReactor reactor(
          {.shards = 2, .backoff_jitter_seed = 9});
      auto control = reactor.open("127.0.0.1", frame_server.port());
      server::RemoteBackend remote(*control, config);

      SwarmRow row;
      std::mutex mu;
      std::condition_variable cv;
      std::size_t done = 0;
      const auto on_ack = [&](eyw::proto::AsyncResult res) {
        const bool ok = res.ok() && !res.reply.empty();
        std::lock_guard<std::mutex> lock(mu);
        if (ok) ++row.acked;
        if (++done == n) cv.notify_one();
      };
      const auto frame_for = [&config](std::size_t i) {
        return eyw::proto::BlindedReport{
                   .participant = static_cast<std::uint32_t>(i),
                   .params = config.cms_params,
                   .cells =
                       durable_bench_cells(i, config.cms_params.cells())}
            .encode(/*round=*/1);
      };
      const auto t0 = Clock::now();
      remote.begin_round(/*round=*/1, n);
      std::vector<std::shared_ptr<eyw::proto::ClientChannel>> channels;
      std::vector<std::shared_ptr<eyw::proto::MuxChannel>> muxes;
      std::atomic<std::size_t> next{0};
      std::function<void(std::size_t)> submit;
      if (use_mux) {
        for (std::size_t k = 0; k < std::min(kMuxConns, n); ++k)
          muxes.push_back(
              reactor.open_mux("127.0.0.1", frame_server.port()));
        submit = [&, n](std::size_t i) {
          auto stream = muxes[i % muxes.size()]->open_stream();
          auto* raw = stream.get();
          raw->exchange_async(frame_for(i),
                              [&, stream](eyw::proto::AsyncResult r) {
                                // Chain first, account last (the final
                                // on_ack releases the main thread).
                                const std::size_t j = next.fetch_add(
                                    1, std::memory_order_relaxed);
                                if (j < n) submit(j);
                                on_ack(std::move(r));
                              });
        };
        const std::size_t prime = std::min(kWindow, n);
        next.store(prime, std::memory_order_relaxed);
        for (std::size_t i = 0; i < prime; ++i) submit(i);
      } else {
        channels.reserve(n);
        for (std::size_t i = 0; i < n; ++i)
          channels.push_back(
              reactor.open("127.0.0.1", frame_server.port()));
        for (std::size_t i = 0; i < n; ++i)
          channels[i]->exchange_async(frame_for(i), on_ack);
      }
      row.fds = eyw::scenario::open_fds();
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return done == n; });
      }
      (void)remote.missing_participants();
      row.result = remote.finalize_round();
      row.wall_ms = ms_since(t0);
      return row;
    };

    std::printf("  %-9s %-20s %10s %12s %10s\n", "reporters", "model",
                "wall ms", "us/reporter", "open fds");
    bool mux_identical = true;
    for (const std::size_t n : {1'024u, 4'096u, 8'192u}) {
      const SwarmRow socket = run_swarm(n, false);
      const SwarmRow mux = run_swarm(n, true);
      const bool identical =
          socket.result.has_value() && mux.result.has_value() &&
          eyw::scenario::results_identical(*socket.result, *mux.result) &&
          socket.acked == n && mux.acked == n;
      mux_identical = mux_identical && identical;
      std::printf("  %-9zu %-20s %10.1f %12.2f %10zu\n", n,
                  "socket-per-reporter", socket.wall_ms,
                  1000.0 * socket.wall_ms / static_cast<double>(n),
                  socket.fds);
      std::printf("  %-9zu %-20s %10.1f %12.2f %10zu  finalize %s\n", n,
                  "mux-8-connections", mux.wall_ms,
                  1000.0 * mux.wall_ms / static_cast<double>(n), mux.fds,
                  identical ? "bit-identical" : "MISMATCH (FAIL)");
      json.add({.op = "swarm_socket_per_reporter_" + std::to_string(n),
                .modulus_bits = 0,
                .ns_per_op =
                    socket.wall_ms * 1e6 / static_cast<double>(n),
                .backend = kernel,
                .cores = 2});
      json.add({.op = "swarm_mux_" + std::to_string(n),
                .modulus_bits = 0,
                .ns_per_op = mux.wall_ms * 1e6 / static_cast<double>(n),
                .backend = kernel,
                .cores = 2});
    }
    if (!mux_identical) {
      std::printf("  MISMATCH: mux and socket-per-reporter rounds "
                  "diverged\n");
      return 1;
    }
  }

  std::printf("\n== Durability: write-ahead journal under the 128-reporter "
              "round ==\n");
  {
    // Each round shape runs three ways: no journal, group-commit journal
    // (acks return once enqueued; the phase barriers fsync), and
    // fsync-per-submit (every ack is an on-disk guarantee). Best-of-N
    // walls, identical synthetic inputs — so within a shape the rows
    // differ only in what durability costs, and all three must land on
    // the same Users_th.
    //
    // The FULL round is the deployment shape the 15% budget is judged
    // against: reporters pay their per-round pad derivation and reports
    // arrive spread across it, so the journal writer commits concurrently
    // with client compute. The BURST round (pre-encoded frames, zero
    // client compute) is the adversarial arrival pattern: every record
    // lands at once and the barrier pays the whole commit serially — it
    // exists to show what group commit amortizes, not to model a round.
    const int kFullRounds = 3;
    const int kBurstRounds = 5;
    const BlindingSwarm swarm = make_blinding_swarm(128);

    char dirs[4][40] = {"eyw-bench-journal-full-batch.XXXXXX",
                        "eyw-bench-journal-full-sync.XXXXXX",
                        "eyw-bench-journal-burst-batch.XXXXXX",
                        "eyw-bench-journal-burst-sync.XXXXXX"};
    for (char* dir : dirs) {
      if (mkdtemp(dir) == nullptr) {
        std::fprintf(stderr, "mkdtemp failed\n");
        return 1;
      }
    }
    const DurableRoundRow full_off =
        run_durable_rounds("", false, kFullRounds, &swarm);
    const DurableRoundRow full_batch =
        run_durable_rounds(dirs[0], false, kFullRounds, &swarm);
    const DurableRoundRow full_sync =
        run_durable_rounds(dirs[1], true, kFullRounds, &swarm);
    const DurableRoundRow burst_off =
        run_durable_rounds("", false, kBurstRounds, nullptr);
    const DurableRoundRow burst_batch =
        run_durable_rounds(dirs[2], false, kBurstRounds, nullptr);
    const DurableRoundRow burst_sync =
        run_durable_rounds(dirs[3], true, kBurstRounds, nullptr);
    for (const char* dir : dirs) {
      std::error_code ec;
      std::filesystem::remove_all(dir, ec);
    }

    const auto print_header = [] {
      std::printf("  %-16s %10s %12s %9s %8s %8s %14s\n", "journal",
                  "round ms", "us/report", "records", "fsyncs", "ckpts",
                  "off-writer I/O");
    };
    const auto print_row = [](const char* name, const DurableRoundRow& r,
                              bool journaled) {
      std::printf("  %-16s %10.1f %12.1f", name, r.wall_ms,
                  1000.0 * r.wall_ms / 128.0);
      if (journaled)
        std::printf(" %9llu %8llu %8llu %14llu\n",
                    static_cast<unsigned long long>(r.stats.records),
                    static_cast<unsigned long long>(r.stats.fsyncs),
                    static_cast<unsigned long long>(r.stats.checkpoints),
                    static_cast<unsigned long long>(r.stats.off_writer_io));
      else
        std::printf(" %9s %8s %8s %14s\n", "-", "-", "-", "-");
    };
    std::printf("  full protocol round (per-round pad derivation + blinded "
                "submit):\n");
    print_header();
    print_row("off", full_off, false);
    print_row("group-commit", full_batch, true);
    print_row("fsync-each", full_sync, true);
    const double overhead =
        100.0 * (full_batch.wall_ms - full_off.wall_ms) / full_off.wall_ms;
    std::printf("  group-commit overhead vs journal-off: %+.1f%% wall "
                "(budget 15%%) — %s\n",
                overhead, overhead <= 15.0 ? "PASS" : "OVER BUDGET");

    std::printf("\n  burst pressure (pre-encoded frames, no client "
                "compute):\n");
    print_header();
    print_row("off", burst_off, false);
    print_row("group-commit", burst_batch, true);
    print_row("fsync-each", burst_sync, true);
    std::printf("  group commit under burst: %llu records in %llu fsyncs "
                "(%.1f records/fsync; fsync-each needed %llu) over %d "
                "rounds\n",
                static_cast<unsigned long long>(burst_batch.stats.records),
                static_cast<unsigned long long>(burst_batch.stats.fsyncs),
                burst_batch.stats.fsyncs > 0
                    ? static_cast<double>(burst_batch.stats.records) /
                          static_cast<double>(burst_batch.stats.fsyncs)
                    : 0.0,
                static_cast<unsigned long long>(burst_sync.stats.fsyncs),
                kBurstRounds);

    const auto trio_agrees = [](const DurableRoundRow& a,
                                const DurableRoundRow& b,
                                const DurableRoundRow& c) {
      return a.users_threshold == b.users_threshold &&
             a.users_threshold == c.users_threshold && a.reports == 128 &&
             b.reports == 128 && c.reports == 128 && a.acked == 128 &&
             b.acked == 128 && c.acked == 128;
    };
    const bool results_agree = trio_agrees(full_off, full_batch, full_sync) &&
                               trio_agrees(burst_off, burst_batch, burst_sync);
    const bool hot_path_clean = full_batch.stats.off_writer_io == 0 &&
                                full_sync.stats.off_writer_io == 0 &&
                                burst_batch.stats.off_writer_io == 0 &&
                                burst_sync.stats.off_writer_io == 0;
    std::printf("  results identical across modes: %s | journal I/O off "
                "the reactor threads: %s\n",
                results_agree ? "yes" : "NO (FAIL)",
                hot_path_clean ? "yes (0 off-writer calls)" : "NO (FAIL)");
    if (!results_agree || !hot_path_clean) return 1;

    json.add({.op = "round_128_journal_off",
              .modulus_bits = 256,
              .ns_per_op = full_off.wall_ms * 1e6 / 128.0,
              .backend = kernel});
    json.add({.op = "round_128_journal_group_commit",
              .modulus_bits = 256,
              .ns_per_op = full_batch.wall_ms * 1e6 / 128.0,
              .backend = kernel});
    json.add({.op = "round_128_journal_fsync_each",
              .modulus_bits = 256,
              .ns_per_op = full_sync.wall_ms * 1e6 / 128.0,
              .backend = kernel});
    json.add({.op = "burst_128_journal_off",
              .modulus_bits = 256,
              .ns_per_op = burst_off.wall_ms * 1e6 / 128.0,
              .backend = kernel});
    json.add({.op = "burst_128_journal_group_commit",
              .modulus_bits = 256,
              .ns_per_op = burst_batch.wall_ms * 1e6 / 128.0,
              .backend = kernel});
    json.add({.op = "burst_128_journal_fsync_each",
              .modulus_bits = 256,
              .ns_per_op = burst_sync.wall_ms * 1e6 / 128.0,
              .backend = kernel});
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
