// The deployment invariant of the socket transport: a full reporting
// round driven through a RemoteBackend over real TCP must be bit-identical
// to the same round over in-process loopback — aggregate cells, #Users
// distribution, and Users_th — and the byte totals each side's transport
// accounting reports must equal the sum of encoded envelope bytes that
// crossed the socket. The same holds with the write-ahead journal in
// front of the cluster, in every durability mode.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <thread>

#include <stdlib.h>

#include "client/url_mapper.hpp"
#include "proto/client_reactor.hpp"
#include "proto/tcp.hpp"
#include "server/cluster.hpp"
#include "server/deployment.hpp"
#include "server/dispatcher.hpp"
#include "server/endpoint.hpp"
#include "server/remote_backend.hpp"
#include "server/round.hpp"

namespace eyw::server {
namespace {

const sketch::CmsParams kParams{.depth = 4, .width = 64};

BackendConfig backend_config() {
  return {.cms_params = kParams,
          .cms_hash_seed = 5,
          .id_space = 500,
          .users_rule = core::ThresholdRule::kMean};
}

const crypto::DhGroup& group() {
  static const crypto::DhGroup g = [] {
    util::Rng rng(4096);
    return crypto::DhGroup::generate(rng, 128);
  }();
  return g;
}

std::vector<client::BrowserExtension> make_fleet(client::UrlMapper& mapper,
                                                 std::size_t n) {
  const client::ExtensionConfig ecfg{
      .detector = {}, .cms_params = kParams, .cms_hash_seed = 5};
  std::vector<client::BrowserExtension> exts;
  for (std::size_t u = 0; u < n; ++u)
    exts.emplace_back(static_cast<core::UserId>(u), ecfg, mapper);
  for (auto& e : exts) {
    e.observe_ad("https://everyone.test", 1, 0);
    if (e.user() % 3 == 0) e.observe_ad("https://thirds.test", 2, 0);
  }
  exts[0].observe_ad("https://rare.test", 3, 0);
  return exts;
}

/// A blocking client: a ClientChannel behind SyncTransportAdapter, so a
/// RemoteBackend over `link` runs in its sync mode (one round trip per
/// call).
struct SyncLink {
  explicit SyncLink(std::uint16_t port)
      : channel(reactor.open("127.0.0.1", port)), link(*channel) {}

  proto::ClientReactor reactor{proto::ClientReactorOptions{.shards = 1}};
  std::shared_ptr<proto::ClientChannel> channel;
  proto::SyncTransportAdapter link;
};

/// Pass-through wrapper recording every frame size independently of the
/// Transport base-class stats, so "stats == sum of encoded frame bytes"
/// is asserted against a second bookkeeper, not against itself.
class RecordingTransport final : public proto::Transport {
 public:
  explicit RecordingTransport(proto::Transport& inner) : inner_(inner) {}

  std::uint64_t request_bytes = 0;
  std::uint64_t reply_bytes = 0;

 private:
  std::vector<std::uint8_t> do_exchange(
      std::span<const std::uint8_t> frame) override {
    request_bytes += frame.size();
    auto reply = inner_.exchange(frame);
    reply_bytes += reply.size();
    return reply;
  }

  proto::Transport& inner_;
};

TEST(TcpRound, FullRoundBitIdenticalToLoopbackAndBytesAccounted) {
  client::HashUrlMapper mapper(backend_config().id_space);
  const std::vector<std::size_t> reporting{0, 1, 3, 4, 5};  // client 2 dark

  // Loopback reference (the adjustment phase runs: client 2 is missing).
  BackendCluster loop_cluster(backend_config(), 2);
  auto exts_loop = make_fleet(mapper, 6);
  RoundCoordinator ref(group(),
                       std::span<client::BrowserExtension>(exts_loop),
                       loop_cluster, /*seed=*/79);
  const RoundResult want = ref.run_round(0, reporting);

  // Same round, back-end in a (logically) different process: the cluster
  // sits behind its proto endpoint behind a real socket.
  BackendCluster tcp_cluster(backend_config(), 2);
  BackendEndpoint endpoint(tcp_cluster, /*serve_control=*/true);
  proto::FrameServer server([&](std::span<const std::uint8_t> frame) {
    return endpoint.handle(frame);
  });
  SyncLink tcp(server.port());
  RecordingTransport recorded(tcp.link);
  RemoteBackend remote(recorded, backend_config());
  auto exts_tcp = make_fleet(mapper, 6);
  RoundCoordinator live(group(),
                        std::span<client::BrowserExtension>(exts_tcp),
                        remote, /*seed=*/79);
  const RoundResult got = live.run_round(0, reporting);

  // Bit-identical result: cells, distribution, threshold, bookkeeping.
  const auto want_cells = want.aggregate.cells();
  const auto got_cells = got.aggregate.cells();
  ASSERT_EQ(want_cells.size(), got_cells.size());
  for (std::size_t i = 0; i < want_cells.size(); ++i)
    ASSERT_EQ(want_cells[i], got_cells[i]) << "cell " << i;
  EXPECT_EQ(want.distribution.histogram(), got.distribution.histogram());
  EXPECT_EQ(want.users_threshold, got.users_threshold);
  EXPECT_EQ(want.reports, got.reports);
  EXPECT_EQ(want.roster, got.roster);

  // Byte accounting: the client-side TransportStats equal the sum of the
  // encoded frames the round moved (independent recorder), and the
  // server's view mirrors them exactly — nothing lost, nothing invented
  // by the length framing.
  tcp.channel->close();
  for (int i = 0; i < 2'000 && server.active_connections() != 0; ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  ASSERT_EQ(server.active_connections(), 0u);

  const proto::TransportStats& client_stats = tcp.link.stats();
  const proto::TransportStats server_stats = server.stats();
  EXPECT_GT(recorded.request_bytes, 0u);
  EXPECT_EQ(client_stats.bytes_sent, recorded.request_bytes);
  EXPECT_EQ(client_stats.bytes_received, recorded.reply_bytes);
  EXPECT_EQ(server_stats.bytes_received, recorded.request_bytes);
  EXPECT_EQ(server_stats.bytes_sent, recorded.reply_bytes);
  EXPECT_EQ(server_stats.messages_received, client_stats.messages_sent);
  EXPECT_EQ(server_stats.messages_sent, client_stats.messages_received);

  // The remote path exercised the control plane + submissions:
  // begin(1) + reports(5) + missing(1) + adjustments(5) + finalize(1).
  EXPECT_EQ(client_stats.messages_sent, 13u);
}

TEST(TcpRound, FullRoundBitIdenticalThroughAsyncDispatcherAndShards) {
  // The reactor deployment shape: multiple reactor shards, endpoint
  // dispatch behind an AsyncDispatcher so reactor callbacks never block
  // on round work. The round must still be bit-identical to loopback —
  // the concurrency model of the transport is not allowed to exist,
  // observably.
  client::HashUrlMapper mapper(backend_config().id_space);
  const std::vector<std::size_t> reporting{0, 1, 3, 4, 5};

  BackendCluster loop_cluster(backend_config(), 2);
  auto exts_loop = make_fleet(mapper, 6);
  RoundCoordinator ref(group(),
                       std::span<client::BrowserExtension>(exts_loop),
                       loop_cluster, /*seed=*/79);
  const RoundResult want = ref.run_round(0, reporting);

  BackendCluster tcp_cluster(backend_config(), 2);
  BackendEndpoint endpoint(tcp_cluster, /*serve_control=*/true);
  AsyncDispatcher dispatcher([&](std::span<const std::uint8_t> frame) {
    return endpoint.handle(frame);
  });
  proto::FrameServer server(dispatcher.handler(),
                            {.reactor_shards = 3});
  EXPECT_EQ(server.shards(), 3u);
  SyncLink tcp(server.port());
  RemoteBackend remote(tcp.link, backend_config());
  auto exts_tcp = make_fleet(mapper, 6);
  RoundCoordinator live(group(),
                        std::span<client::BrowserExtension>(exts_tcp),
                        remote, /*seed=*/79);
  const RoundResult got = live.run_round(0, reporting);

  const auto want_cells = want.aggregate.cells();
  const auto got_cells = got.aggregate.cells();
  ASSERT_EQ(want_cells.size(), got_cells.size());
  for (std::size_t i = 0; i < want_cells.size(); ++i)
    ASSERT_EQ(want_cells[i], got_cells[i]) << "cell " << i;
  EXPECT_EQ(want.distribution.histogram(), got.distribution.histogram());
  EXPECT_EQ(want.users_threshold, got.users_threshold);
  EXPECT_EQ(want.reports, got.reports);
  EXPECT_EQ(want.roster, got.roster);

  tcp.channel->close();
  for (int i = 0; i < 2'000 && server.active_connections() != 0; ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  const proto::TransportStats server_stats = server.stats();
  EXPECT_EQ(server_stats.messages_received, tcp.link.stats().messages_sent);
  EXPECT_EQ(server_stats.bytes_received, tcp.link.stats().bytes_sent);
  EXPECT_EQ(server_stats.bytes_sent, tcp.link.stats().bytes_received);
  EXPECT_EQ(dispatcher.pending(), 0u);
}

TEST(TcpRound, FullRoundBitIdenticalWithShardedDispatcherLanes) {
  // Dispatcher-shard parity: the same round through the deployed stack,
  // whose AsyncDispatcher runs one lane per backend shard (the full-width
  // ingest shape), must be bit-identical to a hand-built single-lane path —
  // per-shard submission order is preserved per lane, and aggregation
  // observes nothing else.
  client::HashUrlMapper mapper(backend_config().id_space);
  const std::vector<std::size_t> reporting{0, 1, 3, 4, 5};

  // Single-lane reference.
  BackendCluster one_cluster(backend_config(), 2);
  BackendEndpoint one_endpoint(one_cluster, /*serve_control=*/true);
  AsyncDispatcher one_lane([&](std::span<const std::uint8_t> frame) {
    return one_endpoint.handle(frame);
  });
  ASSERT_EQ(one_lane.lanes(), 1u);
  proto::FrameServer one_server(one_lane.handler(), {.reactor_shards = 1});
  SyncLink one_link(one_server.port());
  RemoteBackend one_remote(one_link.link, backend_config());
  auto exts_one = make_fleet(mapper, 6);
  RoundCoordinator one_coord(group(),
                             std::span<client::BrowserExtension>(exts_one),
                             one_remote, /*seed=*/79);
  const RoundResult want = one_coord.run_round(0, reporting);

  // Lane-per-shard path: the deployed stack.
  Deployment sharded({.config = backend_config()});
  ASSERT_EQ(sharded.dispatcher().lanes(), 2u);
  SyncLink sharded_link(sharded.port());
  RemoteBackend sharded_remote(sharded_link.link, backend_config());
  auto exts_sharded = make_fleet(mapper, 6);
  RoundCoordinator sharded_coord(
      group(), std::span<client::BrowserExtension>(exts_sharded),
      sharded_remote, /*seed=*/79);
  const RoundResult got = sharded_coord.run_round(0, reporting);

  const auto want_cells = want.aggregate.cells();
  const auto got_cells = got.aggregate.cells();
  ASSERT_EQ(want_cells.size(), got_cells.size());
  for (std::size_t i = 0; i < want_cells.size(); ++i)
    ASSERT_EQ(want_cells[i], got_cells[i]) << "cell " << i;
  EXPECT_EQ(want.distribution.histogram(), got.distribution.histogram());
  EXPECT_EQ(want.users_threshold, got.users_threshold);
  EXPECT_EQ(want.reports, got.reports);
  EXPECT_EQ(want.roster, got.roster);
  EXPECT_EQ(sharded.dispatcher().pending(), 0u);
}

TEST(TcpRound, FullRoundBitIdenticalThroughAsyncClientChannel) {
  // The async outbound path under the unchanged coordinator: a pipelined
  // RemoteBackend over a ClientReactor channel must reproduce the
  // loopback round bit for bit — the sync Transport contract holds
  // through the adapter and the pipelining is unobservable in the result.
  client::HashUrlMapper mapper(backend_config().id_space);
  const std::vector<std::size_t> reporting{0, 1, 3, 4, 5};

  BackendCluster loop_cluster(backend_config(), 2);
  auto exts_loop = make_fleet(mapper, 6);
  RoundCoordinator ref(group(),
                       std::span<client::BrowserExtension>(exts_loop),
                       loop_cluster, /*seed=*/79);
  const RoundResult want = ref.run_round(0, reporting);

  Deployment deployment({.config = backend_config()});

  proto::ClientReactor reactor({.shards = 1, .backoff_jitter_seed = 5});
  auto channel = reactor.open("127.0.0.1", deployment.port());
  RemoteBackend remote(*channel, backend_config());  // pipelined mode
  auto exts_async = make_fleet(mapper, 6);
  RoundCoordinator live(group(),
                        std::span<client::BrowserExtension>(exts_async),
                        remote, /*seed=*/79);
  const RoundResult got = live.run_round(0, reporting);
  EXPECT_EQ(remote.outstanding(), 0u);  // every barrier flushed

  const auto want_cells = want.aggregate.cells();
  const auto got_cells = got.aggregate.cells();
  ASSERT_EQ(want_cells.size(), got_cells.size());
  for (std::size_t i = 0; i < want_cells.size(); ++i)
    ASSERT_EQ(want_cells[i], got_cells[i]) << "cell " << i;
  EXPECT_EQ(want.distribution.histogram(), got.distribution.histogram());
  EXPECT_EQ(want.users_threshold, got.users_threshold);
  EXPECT_EQ(want.reports, got.reports);
  EXPECT_EQ(want.roster, got.roster);

  // The channel's byte accounting mirrors the server's, envelope bytes
  // only — pipelined or not, nothing is lost or invented on the wire.
  const proto::TransportStats client_stats = channel->stats();
  const proto::FrameServerStats server_stats = deployment.server().stats();
  EXPECT_EQ(server_stats.bytes_received, client_stats.bytes_sent);
  EXPECT_EQ(server_stats.bytes_sent, client_stats.bytes_received);
  EXPECT_EQ(server_stats.messages_received, client_stats.messages_sent);
}

TEST(TcpRound, JournalModesFinalizeIdenticalWithJournalIoOnTheWriter) {
  // The same round over TCP through a lane-sharded AsyncDispatcher, with
  // the write-ahead journal off, in group commit, and fsync-per-submit:
  // every mode must finalize bit-identical to loopback (so the three
  // agree with each other), and no journal I/O may run off the writer
  // thread — the dispatcher lanes only enqueue.
  client::HashUrlMapper mapper(backend_config().id_space);
  constexpr std::size_t kFleet = 16;
  std::vector<std::size_t> reporting;
  for (std::size_t i = 0; i < kFleet; ++i)
    if (i % 7 != 2) reporting.push_back(i);  // two dark: adjustments run

  BackendCluster loop_cluster(backend_config(), 2);
  auto exts_loop = make_fleet(mapper, kFleet);
  RoundCoordinator ref(group(),
                       std::span<client::BrowserExtension>(exts_loop),
                       loop_cluster, /*seed=*/79);
  const RoundResult want = ref.run_round(0, reporting);

  enum class Journal { kOff, kGroupCommit, kSyncEachSubmit };
  for (const Journal mode :
       {Journal::kOff, Journal::kGroupCommit, Journal::kSyncEachSubmit}) {
    SCOPED_TRACE("journal mode " + std::to_string(static_cast<int>(mode)));
    char tmpl[] = "eyw-tcp-round-journal.XXXXXX";
    ASSERT_NE(::mkdtemp(tmpl), nullptr);
    const std::string journal_dir = tmpl;
    {
      std::optional<DurabilityConfig> journal;
      if (mode != Journal::kOff)
        journal = DurabilityConfig{
            .dir = journal_dir,
            .sync_each_submit = mode == Journal::kSyncEachSubmit};
      Deployment deployment(
          {.config = backend_config(), .journal = std::move(journal)});

      proto::ClientReactor reactor({.shards = 1});
      auto channel = reactor.open("127.0.0.1", deployment.port());
      RemoteBackend remote(*channel, backend_config());  // pipelined mode
      auto exts = make_fleet(mapper, kFleet);
      RoundCoordinator live(group(), std::span<client::BrowserExtension>(exts),
                            remote, /*seed=*/79);
      const RoundResult got = live.run_round(0, reporting);

      const auto want_cells = want.aggregate.cells();
      const auto got_cells = got.aggregate.cells();
      ASSERT_EQ(want_cells.size(), got_cells.size());
      for (std::size_t i = 0; i < want_cells.size(); ++i)
        ASSERT_EQ(want_cells[i], got_cells[i]) << "cell " << i;
      EXPECT_EQ(want.distribution.histogram(), got.distribution.histogram());
      EXPECT_EQ(want.users_threshold, got.users_threshold);
      EXPECT_EQ(want.reports, got.reports);

      if (const DurableBackend* durable = deployment.durable()) {
        const storage::DurabilityStats stats = durable->stats();
        EXPECT_GT(stats.records, 0u);
        EXPECT_EQ(stats.off_writer_io, 0u);
      }
    }
    std::filesystem::remove_all(journal_dir);
  }
}

TEST(TcpRound, IdSpaceAboveFourMillionFinalizesOverTcp) {
  // Regression: the summary used to carry one f64 per id with a non-zero
  // estimate. With every cell non-zero, so is every id of a 2^22 + 1 id
  // space: the server encoded ~4.19M counts, the client refused them as
  // kOversized, and the round could not finalize. The histogram has at
  // most d·w bins whatever the id space.
  BackendConfig config = backend_config();
  config.id_space = (std::uint64_t{1} << 22) + 1;
  const auto cells = [](std::size_t reporter) {
    std::vector<crypto::BlindCell> out(kParams.cells());
    for (std::size_t c = 0; c < out.size(); ++c)
      out[c] = static_cast<crypto::BlindCell>(1 + (reporter * 7 + c) % 5);
    return out;
  };
  constexpr std::size_t kRoster = 3;

  BackendCluster loop_cluster(config, 2);
  loop_cluster.begin_round(0, kRoster);
  for (std::size_t i = 0; i < kRoster; ++i)
    loop_cluster.submit_report(i, cells(i));
  const RoundResult want = loop_cluster.finalize_round();
  ASSERT_EQ(want.distribution.size(), config.id_space);

  BackendCluster tcp_cluster(config, 2);
  BackendEndpoint endpoint(tcp_cluster, /*serve_control=*/true);
  proto::FrameServer server([&](std::span<const std::uint8_t> frame) {
    return endpoint.handle(frame);
  });
  SyncLink tcp(server.port());
  RecordingTransport recorded(tcp.link);
  RemoteBackend remote(recorded, config);
  remote.begin_round(0, kRoster);
  for (std::size_t i = 0; i < kRoster; ++i) remote.submit_report(i, cells(i));
  const RoundResult got = remote.finalize_round();

  EXPECT_TRUE(
      std::ranges::equal(want.aggregate.cells(), got.aggregate.cells()));
  EXPECT_EQ(want.distribution, got.distribution);
  EXPECT_EQ(want.users_threshold, got.users_threshold);
  EXPECT_EQ(want.reports, got.reports);
  EXPECT_EQ(want.roster, got.roster);
  // Every reply of the round — acks and the summary — fits in a few KB;
  // the old summary alone was ~32 MB.
  EXPECT_LT(recorded.reply_bytes, 16u * 1024);
}

TEST(TcpRound, PipelinedSubmissionErrorSurfacesAtNextBarrier) {
  // A submission the server refuses (participant outside the roster)
  // acks as Error; in pipelined mode that must surface as a thrown
  // ProtoError at the next barrier call, and never be lost.
  BackendCluster cluster(backend_config(), 2);
  BackendEndpoint endpoint(cluster, /*serve_control=*/true);
  proto::FrameServer server([&](std::span<const std::uint8_t> frame) {
    return endpoint.handle(frame);
  });
  proto::ClientReactor reactor({.shards = 1});
  auto channel = reactor.open("127.0.0.1", server.port());
  RemoteBackend remote(*channel, backend_config());

  remote.begin_round(0, 4);
  remote.submit_report(2, std::vector<crypto::BlindCell>(
                              backend_config().cms_params.cells(), 1u));
  remote.submit_report(9, std::vector<crypto::BlindCell>(
                              backend_config().cms_params.cells(), 1u));
  try {
    remote.flush();
    FAIL() << "refused submission did not surface at the barrier";
  } catch (const proto::ProtoError& e) {
    EXPECT_EQ(e.code(), proto::ErrorCode::kRejected);
  }
  // The error is consumed: the next barrier reflects reality (one good
  // report landed) instead of rethrowing forever.
  EXPECT_EQ(remote.missing_participants().size(), 3u);
}

TEST(TcpRound, ControlPlaneRefusedWithoutOptIn) {
  // An ingest-only endpoint (the default) must refuse round control: a
  // reporting client cannot open rounds or trigger finalization.
  BackendCluster cluster(backend_config(), 2);
  BackendEndpoint endpoint(cluster);  // serve_control defaults to false
  proto::FrameServer server([&](std::span<const std::uint8_t> frame) {
    return endpoint.handle(frame);
  });
  SyncLink tcp(server.port());
  RemoteBackend remote(tcp.link, backend_config());
  try {
    remote.begin_round(0, 4);
    FAIL() << "control message accepted by ingest-only endpoint";
  } catch (const proto::ProtoError& e) {
    EXPECT_EQ(e.code(), proto::ErrorCode::kRejected);
  }
}

TEST(TcpRound, OprfMapperBootstrapsAndMatchesInProcessMapping) {
  // Key distribution + batch evaluation over the socket must agree with
  // the in-process mapper against the same OprfServer key.
  util::Rng rng(1234);
  const crypto::OprfServer oprf(rng, 256);
  OprfEndpoint endpoint(oprf);
  proto::FrameServer server([&](std::span<const std::uint8_t> frame) {
    return endpoint.handle(frame);
  });

  SyncLink tcp(server.port());
  const proto::OprfKeyAnswer key = proto::OprfKeyAnswer::decode(
      proto::expect_reply(tcp.link.exchange(proto::encode_oprf_key_query()),
                          proto::MsgKind::kOprfKeyAnswer));
  EXPECT_EQ(key.n, oprf.public_key().n);
  EXPECT_EQ(key.e, oprf.public_key().e);

  client::OprfUrlMapper remote_mapper(
      tcp.link, crypto::RsaPublicKey{.n = key.n, .e = key.e},
      /*id_space=*/10'000, /*rng_seed=*/11);
  client::OprfUrlMapper local_mapper(oprf, /*id_space=*/10'000,
                                     /*rng_seed=*/22);
  const std::vector<std::string> urls{"https://a.test", "https://b.test",
                                      "https://c.test"};
  const auto over_tcp = remote_mapper.map_batch(urls);
  const auto in_process = local_mapper.map_batch(urls);
  EXPECT_EQ(over_tcp, in_process);
}

}  // namespace
}  // namespace eyw::server
